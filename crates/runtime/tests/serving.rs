//! End-to-end tests of the sharded serving runtime: exact parity with the
//! synchronous query path, fault recovery, degradation, and metrics.

use std::sync::OnceLock;
use std::time::Duration;

use crossbeam::clock;
use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_forms::{BoundaryEdge, FormStore};
use stq_runtime::{
    CrashWindow, FaultPlan, MessageCtx, PendingAnswer, QuerySpec, Runtime, RuntimeConfig,
    ServedAnswer, SubscribeError,
};

struct Fixture {
    scenario: Scenario,
    sampled: SampledGraph,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let scenario = Scenario::build(ScenarioConfig {
            junctions: 180,
            mix: WorkloadMix { random_waypoint: 20, commuter: 12, transit: 6 },
            seed: 41,
            ..Default::default()
        });
        let cands = scenario.sensing.sensor_candidates();
        let ids = stq_sampling::sample(
            stq_sampling::SamplingMethod::QuadTree,
            &cands,
            cands.len() / 4,
            7,
        );
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let sampled =
            SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
        Fixture { scenario, sampled }
    })
}

fn store(f: &Fixture) -> &FormStore {
    &f.scenario.tracked.store
}

fn runtime(f: &Fixture, cfg: RuntimeConfig) -> Runtime {
    Runtime::new(f.scenario.sensing.clone(), f.sampled.clone(), store(f), cfg)
}

/// The boundary chain the runtime's plan must have (`None`: a miss): the
/// synchronous resolve → boundary walk.
fn sync_boundary(f: &Fixture, spec: &QuerySpec) -> Option<Vec<BoundaryEdge>> {
    let covered = f.sampled.resolve(spec.region.junctions(), spec.approx);
    if covered.is_empty() {
        return None;
    }
    Some(f.scenario.sensing.boundary_walk(&covered, Some(f.sampled.monitored())).0)
}

/// The value the runtime must reproduce when coverage is complete: the
/// synchronous resolve → boundary → evaluate path.
fn sync_value(f: &Fixture, spec: &QuerySpec) -> Option<f64> {
    Some(evaluate(store(f), &sync_boundary(f, spec)?, spec.kind))
}

fn specs(f: &Fixture, n: usize, frac: f64, seed: u64) -> Vec<QuerySpec> {
    f.scenario
        .make_queries(n, frac, 1_500.0, seed)
        .into_iter()
        .flat_map(|(region, t0, t1)| {
            [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1), QueryKind::Static(t0, t1)]
                .into_iter()
                .map(move |kind| QuerySpec {
                    region: region.clone(),
                    kind,
                    approx: Approximation::Lower,
                    deadline: None,
                })
        })
        .collect()
}

#[test]
fn fault_free_answers_are_bit_identical_to_sync_path() {
    let f = fixture();
    for shards in [1, 3, 5] {
        let rt = runtime(
            f,
            RuntimeConfig { num_shards: shards, dispatchers: 2, ..RuntimeConfig::default() },
        );
        for spec in specs(f, 8, 0.15, 17) {
            let served = rt.query(spec.clone());
            match sync_value(f, &spec) {
                None => assert!(served.miss),
                Some(exact) => {
                    assert!(!served.miss);
                    assert_eq!(served.coverage, 1.0);
                    assert!(!served.degraded);
                    assert_eq!(
                        served.value.to_bits(),
                        exact.to_bits(),
                        "shards={shards} kind={:?}: {} vs sync {exact}",
                        spec.kind,
                        served.value
                    );
                    assert_eq!(served.lower.to_bits(), served.upper.to_bits());
                }
            }
        }
        rt.shutdown();
    }
}

/// A dispatcher serves every job it finds queued as one batch: each
/// answer of a batch is the answer the same spec gets alone, bit for bit,
/// and the engine's over the oracle store.
#[test]
fn a_batch_answers_each_query_as_it_is_answered_alone() {
    let f = fixture();
    let rt =
        runtime(f, RuntimeConfig { num_shards: 3, dispatchers: 2, ..RuntimeConfig::default() });
    let specs: Vec<QuerySpec> = specs(f, 22, 0.15, 29).into_iter().take(64).collect();
    assert_eq!(specs.len(), 64);
    let pending: Vec<PendingAnswer> = specs.iter().map(|spec| rt.submit(spec.clone())).collect();
    let batched: Vec<ServedAnswer> = pending.into_iter().map(PendingAnswer::wait).collect();
    let bits = |a: &ServedAnswer| [a.value, a.lower, a.upper, a.coverage].map(f64::to_bits);
    let mut served = 0;
    for (spec, got) in specs.iter().zip(&batched) {
        assert_eq!(bits(got), bits(&rt.query(spec.clone())), "{:?}", spec.kind);
        let plan = QueryPlan::compile(&f.scenario.sensing, &f.sampled, &spec.region, spec.approx);
        let oracle = plan.execute(store(f), spec.kind);
        assert_eq!(got.miss, oracle.miss);
        assert_eq!(got.value.to_bits(), oracle.value.to_bits());
        if !got.miss {
            assert_eq!((got.coverage, got.retries), (1.0, 0));
            served += 1;
        }
    }
    assert!(served >= 32, "only {served} of 64 specs resolve");
    rt.shutdown();
}

/// Every request of one query is lost: the queries batched with it are
/// answered as soon as their own shards reply, not when its window closes —
/// on virtual time, before the clock moves at all.
#[test]
fn a_query_whose_requests_are_lost_does_not_hold_up_its_batch() {
    const OTHERS: u64 = 6;
    let _virtual = clock::virtual_time();
    let f = fixture();
    // A seed under which queries 0 and 1 lose every request, to either of
    // two shards, and queries 2..8 none.
    let lost = |fault: &FaultPlan, query_id: u64| {
        (0..2).filter(|&node| fault.decide(MessageCtx { query_id, node, attempt: 0 }).drop).count()
    };
    let fault = (0..)
        .map(|seed| FaultPlan::lossy(seed, 0.5, 0.0, 0.0, 0))
        .find(|fault| {
            lost(fault, 0) == 2
                && lost(fault, 1) == 2
                && (2..2 + OTHERS).all(|q| lost(fault, q) == 0)
        })
        .expect("a seed");
    let cases: Vec<(QuerySpec, f64)> = specs(f, 8, 0.15, 17)
        .into_iter()
        .filter_map(|spec| Some((spec.clone(), sync_value(f, &spec)?)))
        .take(2 + OTHERS as usize)
        .collect();
    assert_eq!(cases.len(), 2 + OTHERS as usize);
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 1,
        max_retries: 0,
        fault,
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    // Query 0 holds the one dispatcher for a window: everything submitted
    // once it has sent is queued behind it, and is the next batch. The clock
    // moves only once every thread is parked, so the dispatcher is waiting
    // on query 0's shards by then.
    let blocker = rt.submit(cases[0].0.clone());
    clock::sleep(Duration::from_millis(1));
    assert_eq!(rt.metrics().report().shard_requests, 2, "query 0 asked both shards");
    let submitted: Vec<PendingAnswer> =
        cases.iter().skip(1).map(|c| rt.submit(c.0.clone())).collect();
    let mut submitted = submitted.into_iter();
    let dropped = submitted.next().expect("query 1");
    assert!(blocker.wait().degraded);
    let batch_start = clock::now();
    for (pending, (_, exact)) in submitted.zip(&cases[2..]) {
        let a = pending.wait();
        let took = clock::since(batch_start);
        assert_eq!(took, Duration::ZERO, "query {} waited on a lost one", a.query_id);
        assert_eq!((a.coverage, a.value.to_bits()), (1.0, exact.to_bits()));
    }
    let a = dropped.wait();
    let exact = cases[1].1;
    assert!(a.degraded && a.coverage < 1.0, "{a:?}");
    assert!(a.lower <= exact && exact <= a.upper, "unsound: {a:?} vs {exact}");
    rt.shutdown();
}

/// Shutting down while jobs sit in a batch (or in the queue behind it)
/// answers every one of them.
#[test]
fn shutdown_answers_every_job_of_a_batch() {
    let f = fixture();
    let rt =
        runtime(f, RuntimeConfig { num_shards: 2, dispatchers: 2, ..RuntimeConfig::default() });
    let specs = specs(f, 16, 0.15, 31);
    let pending: Vec<PendingAnswer> = specs.iter().map(|spec| rt.submit(spec.clone())).collect();
    rt.shutdown();
    for (pending, spec) in pending.into_iter().zip(&specs) {
        let a = pending.wait();
        match sync_value(f, spec) {
            None => assert!(a.miss),
            Some(exact) => {
                assert_eq!((a.coverage, a.value.to_bits()), (1.0, exact.to_bits()));
            }
        }
    }
}

#[test]
fn a_region_from_another_graph_is_refused_and_the_pool_keeps_serving() {
    let f = fixture();
    let other = Scenario::build(ScenarioConfig {
        junctions: 600,
        mix: WorkloadMix { random_waypoint: 2, commuter: 0, transit: 0 },
        seed: 43,
        ..Default::default()
    });
    let region = QueryRegion::from_rect(&other.sensing, other.sensing.road().bbox());
    let ours = f.scenario.sensing.road().num_junctions();
    assert!(region.junctions().last().is_some_and(|&j| j > ours), "names junctions we lack");
    // One dispatcher: a query that killed it would leave none.
    let rt =
        runtime(f, RuntimeConfig { num_shards: 2, dispatchers: 1, ..RuntimeConfig::default() });
    for approx in [Approximation::Lower, Approximation::Upper] {
        let served = rt.query(QuerySpec::new(region.clone(), QueryKind::Snapshot(500.0), approx));
        assert!(served.miss && !served.degraded && !served.plan_cache_hit);
        assert_eq!((served.value, served.lower, served.upper, served.shards), (0.0, 0.0, 0.0, 0));
        let refused = rt.subscribe(region.clone(), approx).err();
        assert_eq!(refused, Some(SubscribeError::Unresolvable));
    }
    let report = rt.metrics().report();
    assert_eq!((report.queries, report.misses, report.plan_cache_misses), (2, 2, 0));
    assert_eq!(rt.engine_stats().misses, 0, "refused before any plan");
    assert_eq!(report.subscriptions, 0);
    for spec in specs(f, 3, 0.15, 17) {
        let served = rt.query(spec.clone());
        match sync_value(f, &spec) {
            None => assert!(served.miss),
            Some(exact) => assert_eq!(served.value.to_bits(), exact.to_bits()),
        }
    }
    rt.shutdown();
}

#[test]
fn concurrent_submissions_all_complete() {
    let f = fixture();
    let rt =
        runtime(f, RuntimeConfig { num_shards: 4, dispatchers: 3, ..RuntimeConfig::default() });
    let all = specs(f, 10, 0.12, 29);
    let expected: Vec<Option<f64>> = all.iter().map(|s| sync_value(f, s)).collect();
    let pending: Vec<_> = all.iter().cloned().map(|s| rt.submit(s)).collect();
    let answers: Vec<ServedAnswer> = pending.into_iter().map(|p| p.wait()).collect();
    for (a, e) in answers.iter().zip(&expected) {
        match e {
            None => assert!(a.miss),
            Some(exact) => assert_eq!(a.value.to_bits(), exact.to_bits()),
        }
    }
    // Distinct ids, all traced, all counted.
    let mut ids: Vec<u64> = answers.iter().map(|a| a.query_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), all.len());
    let report = rt.metrics().report();
    assert_eq!(report.queries, all.len() as u64);
    assert_eq!(report.degraded, 0);
    assert!(report.shard_requests >= report.queries - report.misses);
    assert_eq!(rt.metrics().latency.len(), all.len() as u64);
}

#[test]
fn crashed_shard_degrades_with_sound_bounds() {
    let f = fixture();
    let cfg = RuntimeConfig {
        num_shards: 3,
        dispatchers: 2,
        shard_timeout: Duration::from_millis(4),
        max_retries: 1,
        fault: FaultPlan::none().with_crash(CrashWindow {
            node: 0,
            after_messages: 0,
            lasts_messages: u64::MAX,
        }),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let mut degraded_seen = 0;
    for spec in specs(f, 8, 0.2, 13) {
        let served = rt.query(spec.clone());
        let Some(exact) = sync_value(f, &spec) else {
            assert!(served.miss);
            continue;
        };
        assert!(
            served.lower <= exact + 1e-12 && exact <= served.upper + 1e-12,
            "bounds [{}, {}] must bracket sync value {exact} (coverage {})",
            served.lower,
            served.upper,
            served.coverage
        );
        if served.degraded {
            degraded_seen += 1;
            assert!(served.coverage < 1.0);
            assert!(served.retries >= 1, "crashed shard must trigger the retry budget");
        } else {
            assert_eq!(served.value.to_bits(), exact.to_bits());
        }
    }
    assert!(degraded_seen > 0, "shard 0 is down; some queries must degrade");
    let report = rt.metrics().report();
    assert!(report.crash_dropped > 0);
    assert!(report.timeouts > 0);
    assert_eq!(report.degraded, degraded_seen);
}

#[test]
fn retries_recover_from_message_drops() {
    let f = fixture();
    let cfg = RuntimeConfig {
        num_shards: 4,
        dispatchers: 2,
        shard_timeout: Duration::from_millis(4),
        max_retries: 4,
        fault: FaultPlan::lossy(99, 0.4, 0.0, 0.1, 0),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let mut complete = 0usize;
    let mut total = 0usize;
    for spec in specs(f, 8, 0.15, 23) {
        let served = rt.query(spec.clone());
        let Some(exact) = sync_value(f, &spec) else {
            continue;
        };
        total += 1;
        assert!(served.lower <= exact + 1e-12 && exact <= served.upper + 1e-12);
        if served.coverage == 1.0 {
            complete += 1;
            assert_eq!(served.value.to_bits(), exact.to_bits());
        }
    }
    // With a 40% drop rate and 4 retries the chance a shard stays silent
    // through all 5 attempts is ~1%, so the vast majority must complete.
    assert!(complete * 10 >= total * 8, "only {complete}/{total} complete under retries");
    let report = rt.metrics().report();
    assert!(report.dropped > 0, "the plan must actually drop messages");
    assert!(report.retries > 0, "drops must trigger retries");
    assert!(report.duplicated > 0, "the plan must duplicate some responses");
}

/// A dispatcher keeps one reply channel for its lifetime, so the answers to
/// a query it gave up on arrive while it collects the next one. Query *k*
/// runs out of budget on a delayed shard; *k+1*, a different plan on the
/// same shard, queues behind the sleeping worker, so — the shard's channel
/// being FIFO — *k*'s late reply and its duplicate reach the dispatcher
/// before *k+1*'s own, while it waits for exactly that shard. Boundary
/// positions start at 0 in every plan, so one leaked response would fill
/// *k+1*'s slots with *k*'s counts.
#[test]
fn late_replies_on_the_shared_channel_never_leak_into_the_next_query() {
    const SHARDS: usize = 3;
    let f = fixture();
    // One spec per resolvable region, neighbours differing in region, time
    // argument and kind.
    let kinds =
        |t0, t1| [QueryKind::Snapshot(t0), QueryKind::Static(t0, t1), QueryKind::Transient(t0, t1)];
    let queries = f.scenario.make_queries(12, 0.15, 1_500.0, 17);
    let cases: Vec<(QuerySpec, f64, [usize; SHARDS])> = (queries.into_iter().enumerate())
        .filter_map(|(i, (region, t0, t1))| {
            let spec = QuerySpec::new(region, kinds(t0, t1)[i % 3], Approximation::Lower);
            // Boundary edges per owning shard (the modulo map: no rebalancing).
            let mut owned = [0; SHARDS];
            sync_boundary(f, &spec)?.iter().for_each(|be| owned[be.edge % SHARDS] += 1);
            let exact = sync_value(f, &spec)?;
            Some((spec, exact, owned))
        })
        .collect();
    assert!(cases.len() >= 4, "only {} resolvable regions", cases.len());
    let sound = |a: &ServedAnswer, exact: f64| {
        assert!(a.lower <= exact + 1e-12 && exact <= a.upper + 1e-12, "unsound: {a:?} vs {exact}");
        assert_eq!(a.retries, 0);
    };

    for seed in [11, 23, 37] {
        // Every response duplicated; three requests in ten held up for 1–2 ms
        // per boundary edge in them.
        let fault = FaultPlan::lossy(seed, 0.0, 0.3, 1.0, 2);
        let delay_ms = |query_id: u64, node: usize| {
            fault.decide(MessageCtx { query_id, node, attempt: 0 }).delay_ms
        };
        let rt = runtime(
            f,
            RuntimeConfig {
                num_shards: SHARDS,
                dispatchers: 1,
                shard_timeout: Duration::from_secs(20),
                max_retries: 0,
                fault: fault.clone(),
                ..RuntimeConfig::default()
            },
        );
        // The runtime numbers queries from 0 in submission order, and a fault
        // decision is a pure function of (query id, shard, attempt): the test
        // reads ahead which pairs of consecutive ids make the scenario.
        let (mut id, mut leaks_invited) = (0u64, 0);
        while id < 200 {
            let (k, k_exact, k_owned) = &cases[id as usize % cases.len()];
            let (next, next_exact, next_owned) = &cases[(id as usize + 1) % cases.len()];
            // A shard that sleeps ≥ 8 ms on k — well past k's budget — and
            // that k+1 needs too, while nothing holds k+1 itself up.
            let slow = (0..SHARDS)
                .find(|&s| delay_ms(id, s) > 0 && k_owned[s] >= 8 && next_owned[s] > 0)
                .filter(|_| (0..SHARDS).all(|s| delay_ms(id + 1, s) == 0));
            let a = rt.query(k.clone().with_budget(Duration::from_millis(3)));
            assert_eq!(a.query_id, id);
            sound(&a, *k_exact);
            id += 1;
            // (A dispatcher kept off the CPU past the shard's sleep finds the
            // late reply waiting and takes it: then nothing timed out.)
            if slow.is_none() || a.coverage == 1.0 {
                continue;
            }
            let b = rt.query(next.clone());
            assert_eq!(b.query_id, id);
            sound(&b, *next_exact);
            assert_eq!(b.coverage, 1.0, "query {id} after a timed-out one");
            assert_eq!(b.value.to_bits(), next_exact.to_bits(), "query {id} took a stale reply");
            assert_eq!(b.lower.to_bits(), b.upper.to_bits());
            id += 1;
            leaks_invited += 1;
        }
        assert!(leaks_invited >= 5, "seed {seed}: the scenario arose only {leaks_invited} times");
        let report = rt.metrics().report();
        assert!(report.delayed > 0 && report.duplicated > 0 && report.timeouts > 0);
        assert_eq!(report.retries, 0);
        rt.shutdown();
    }
}

#[test]
fn poisoned_payloads_surface_as_failed_responses() {
    // poison_p = 1.0: every shard computation panics on a corrupted edge id.
    // Regression: before the panic guard, the first poisoned request killed
    // the worker thread, every later query to that shard hung out its full
    // timeout, and nothing was ever reported. Now each panic comes back as a
    // failed response: queries finish fast (no timeout waits), degraded,
    // with sound worst-case bounds, and the workers survive to serve the
    // whole batch.
    let f = fixture();
    let cfg = RuntimeConfig {
        num_shards: 3,
        dispatchers: 2,
        shard_timeout: Duration::from_secs(2),
        max_retries: 1,
        fault: FaultPlan::none().with_poison(1.0),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let start = std::time::Instant::now();
    let mut served_any = 0;
    for spec in specs(f, 6, 0.15, 19) {
        let served = rt.query(spec.clone());
        let Some(exact) = sync_value(f, &spec) else {
            assert!(served.miss);
            continue;
        };
        served_any += 1;
        assert!(served.degraded, "all payloads poisoned: nothing can be exact");
        assert_eq!(served.coverage, 0.0);
        assert!(
            served.lower <= exact + 1e-12 && exact <= served.upper + 1e-12,
            "bounds [{}, {}] must bracket sync value {exact}",
            served.lower,
            served.upper
        );
    }
    assert!(served_any > 0);
    // The early-abort on all-shards-panicked must beat even one 2 s timeout
    // window; without it this loop would take minutes.
    assert!(start.elapsed() < Duration::from_secs(2), "panics must not wait out timeouts");
    let report = rt.metrics().report();
    assert!(report.shard_panics > 0, "the guard must have caught panics");
    assert_eq!(report.shard_served, 0);
}

#[test]
fn quarantined_edges_are_refused_and_widen_bounds() {
    // Quarantine every monitored edge: each shard still holds the forms but
    // must refuse them, so every covered query degrades to its worst-case
    // interval — which still brackets the synchronous fold over the store.
    let f = fixture();
    let quarantined: Vec<usize> =
        (0..f.scenario.sensing.num_edges()).filter(|&e| f.sampled.monitored()[e]).collect();
    let rt = Runtime::with_quarantine(
        f.scenario.sensing.clone(),
        f.sampled.clone(),
        store(f),
        RuntimeConfig { num_shards: 3, dispatchers: 2, ..RuntimeConfig::default() },
        &quarantined,
    );
    let mut refused_total = 0usize;
    for spec in specs(f, 6, 0.15, 37) {
        let served = rt.query(spec.clone());
        let Some(exact) = sync_value(f, &spec) else {
            assert!(served.miss);
            continue;
        };
        refused_total += served.quarantined;
        if served.quarantined > 0 {
            assert!(served.degraded);
            assert!(served.coverage < 1.0);
            assert!(
                served.lower <= exact + 1e-12 && exact <= served.upper + 1e-12,
                "bounds [{}, {}] must bracket sync value {exact}",
                served.lower,
                served.upper
            );
        }
    }
    assert!(refused_total > 0, "some boundary edges must have been refused");
    let report = rt.metrics().report();
    assert_eq!(report.quarantine_refusals, refused_total as u64);
    assert_eq!(report.shard_panics, 0);
}

#[test]
fn trace_ring_records_recent_queries() {
    let f = fixture();
    let rt = runtime(f, RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() });
    let all = specs(f, 4, 0.15, 31);
    let n = all.len();
    for spec in all {
        let _ = rt.query(spec);
    }
    let traces = rt.metrics().recent_traces();
    assert_eq!(traces.len(), n);
    assert!(traces.iter().all(|t| t.latency.as_micros() > 0 || t.miss || t.coverage == 1.0));
}

#[test]
fn degraded_mode_escalation_upgrades_quarantined_answers() {
    // Quarantine every 7th monitored edge and turn the degraded-mode
    // answerer on: quarantine-degraded answers must escalate past the
    // worst-case-totals bracket, report which strategy certified them, and
    // stay sound against the oracle (the certified paths only read healthy
    // logs, which are clean here).
    let f = fixture();
    let quarantined = every_seventh_monitored(f);
    let rt = Runtime::with_quarantine(
        f.scenario.sensing.clone(),
        f.sampled.clone(),
        store(f),
        RuntimeConfig { num_shards: 3, dispatchers: 2, degraded: true, ..RuntimeConfig::default() },
        &quarantined,
    );
    let all = specs(f, 8, 0.15, 43);
    let mut upgraded = 0u64;
    for spec in &all {
        let served = rt.query(spec.clone());
        if served.miss {
            continue;
        }
        assert!((0.0..=1.0).contains(&served.confidence));
        if served.strategy != DegradedStrategy::None {
            upgraded += 1;
            assert!(served.degraded, "a degraded strategy implies a degraded answer");
            let inside = |j: usize| spec.region.contains(j);
            let truth = match spec.kind {
                QueryKind::Snapshot(t) => {
                    f.scenario.tracked.oracle.snapshot_count(&inside, t) as f64
                }
                QueryKind::Transient(a, b) => {
                    f.scenario.tracked.oracle.transient_count(&inside, a, b) as f64
                }
                QueryKind::Static(a, b) => {
                    f.scenario.tracked.oracle.static_interval_count(&inside, a, b) as f64
                }
            };
            assert!(
                served.lower <= truth + 1e-9 && truth <= served.upper + 1e-9,
                "{:?} [{}]: oracle {truth} outside [{}, {}]",
                spec.kind,
                served.strategy.label(),
                served.lower,
                served.upper
            );
            assert!(
                served.value >= served.lower - 1e-9 && served.value <= served.upper + 1e-9,
                "point value must sit inside the certified bracket"
            );
        }
    }
    assert!(upgraded > 0, "some quarantine-degraded answer must have escalated");
    let r = rt.metrics().report();
    assert_eq!(r.quarantined_edges, quarantined.len() as u64);
    assert_eq!(
        r.degraded_detour, upgraded,
        "per-strategy counters must add up to the upgraded answers"
    );
    assert!(rt.metrics().recent_traces().iter().any(|t| t.strategy != DegradedStrategy::None));
    rt.shutdown();
}

/// Every 7th monitored edge: the start-up quarantine of the degraded-mode
/// tests.
fn every_seventh_monitored(f: &Fixture) -> Vec<usize> {
    (0..f.scenario.sensing.num_edges()).filter(|&e| f.sampled.monitored()[e]).step_by(7).collect()
}

/// What the bit-for-bit comparisons compare: the answer and its strategy.
fn ladder_bits(
    value: f64,
    lower: f64,
    upper: f64,
    strategy: DegradedStrategy,
) -> ([u64; 3], DegradedStrategy) {
    ([value, lower, upper].map(f64::to_bits), strategy)
}

#[test]
fn degraded_ladder_after_ingest_matches_the_synchronous_answerer() {
    // The ladder reads the shards' live counts at each query's instants, so
    // it keeps escalating after ingest, and what it certifies is exactly
    // what `DegradedAnswerer::answer` certifies over a store that recorded
    // the same events — inside the start-up history (there also exactly what
    // it certified before the stream) and after the stream.
    let f = fixture();
    let quarantined = every_seventh_monitored(f);
    let rt = Runtime::with_quarantine(
        f.scenario.sensing.clone(),
        f.sampled.clone(),
        store(f),
        RuntimeConfig {
            num_shards: 3,
            // A consult that times out stands down; the comparison below
            // needs every one answered.
            shard_timeout: Duration::from_secs(5),
            degraded: true,
            ..RuntimeConfig::default()
        },
        &quarantined,
    );
    let reference = DegradedAnswerer::new(&f.scenario.sensing, &f.sampled, &quarantined);
    let inside = specs(f, 8, 0.15, 43);
    let before: Vec<ServedAnswer> = inside.iter().map(|spec| rt.query(spec.clone())).collect();

    // In order and after the history, on healthy and quarantined edges alike.
    let ne = f.scenario.sensing.num_edges();
    let events: Vec<Crossing> = (0..4 * ne)
        .map(|i| Crossing { time: 10_000.0 + i as f64 * 0.25, edge: i % ne, forward: i % 3 != 0 })
        .collect();
    let mut live = store(f).clone();
    for c in &events {
        live.record(c.edge, c.forward, c.time);
    }
    for chunk in events.chunks(97) {
        assert_eq!(rt.ingest_batch(chunk).accepted, chunk.len());
    }
    rt.flush_ingest();
    let t_end = 10_000.0 + events.len() as f64 * 0.25;
    let after: Vec<QuerySpec> = inside
        .iter()
        .map(|spec| {
            let kind = match spec.kind {
                QueryKind::Snapshot(_) => QueryKind::Snapshot(t_end),
                QueryKind::Transient(t0, _) => QueryKind::Transient(t0, t_end),
                QueryKind::Static(..) => QueryKind::Static(10_100.0, t_end),
            };
            QuerySpec { kind, ..spec.clone() }
        })
        .collect();

    let mut escalated = [0usize; 2];
    for (i, spec) in inside.iter().chain(&after).enumerate() {
        let served = rt.query(spec.clone());
        let got = ladder_bits(served.value, served.lower, served.upper, served.strategy);
        if let Some(old) = before.get(i).filter(|old| old.strategy != DegradedStrategy::None) {
            let want = ladder_bits(old.value, old.lower, old.upper, old.strategy);
            assert_eq!(got, want, "{:?}: the ladder certified differently after ingest", spec.kind);
        }
        if served.strategy == DegradedStrategy::None {
            continue;
        }
        escalated[usize::from(i >= inside.len())] += 1;
        let (sensing, region) = (&f.scenario.sensing, &spec.region);
        let a = reference.answer(sensing, &live, region, spec.kind);
        let want = ladder_bits(a.value, a.bracket.lower, a.bracket.upper, a.strategy);
        assert_eq!(got, want, "{:?}: the runtime's ladder and the reference differ", spec.kind);
    }
    let escalated_before = before.iter().filter(|a| a.strategy != DegradedStrategy::None).count();
    eprintln!("escalated of {}: {escalated:?} (before the stream {escalated_before})", after.len());
    assert_eq!(escalated[0], escalated_before, "inside the history the same answers escalate");
    assert!(escalated[1] > 0, "some query past the stream must escalate: {escalated:?}");
    rt.shutdown();
}
