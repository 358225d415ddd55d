//! Integration tests of the overload-control subsystem: cost-based
//! admission, deadline propagation, brownout precision shedding, and
//! per-shard circuit breakers. Every degraded answer is checked against the
//! synchronous oracle — shedding trades precision, never soundness.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_forms::FormStore;
use stq_runtime::{
    BreakerConfig, BrownoutConfig, CrashWindow, FaultPlan, OverloadConfig, QuerySpec, Runtime,
    RuntimeConfig,
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

fn sync_value(f: &Fixture, spec: &QuerySpec) -> Option<f64> {
    let covered = f.sampled.resolve(spec.region.junctions(), spec.approx);
    if covered.is_empty() {
        return None;
    }
    let (boundary, _) = f.scenario.sensing.boundary_walk(&covered, Some(f.sampled.monitored()));
    Some(evaluate(store(f), &boundary, spec.kind))
}

fn boundary_len(f: &Fixture, spec: &QuerySpec) -> usize {
    let covered = f.sampled.resolve(spec.region.junctions(), Approximation::Lower);
    if covered.is_empty() {
        return 0;
    }
    f.scenario.sensing.boundary_walk(&covered, Some(f.sampled.monitored())).0.len()
}

/// A covered query with a non-trivial boundary (≥ `min_boundary` edges), so
/// strided shedding and fan-out are actually exercised.
fn covered_spec(f: &Fixture, min_boundary: usize, seed: u64) -> QuerySpec {
    f.scenario
        .make_queries(24, 0.2, 1_500.0, seed)
        .into_iter()
        .map(|(region, t0, t1)| {
            QuerySpec::new(region, QueryKind::Transient(t0, t1), Approximation::Lower)
        })
        .find(|s| sync_value(f, s).is_some() && boundary_len(f, s) >= min_boundary)
        .expect("the scenario must yield a covered region with a real boundary")
}

fn assert_sound(f: &Fixture, spec: &QuerySpec, lower: f64, upper: f64, what: &str) {
    let exact = sync_value(f, spec).expect("covered spec");
    assert!(
        lower <= exact + 1e-12 && exact <= upper + 1e-12,
        "{what}: bounds [{lower}, {upper}] must bracket sync value {exact}"
    );
}

/// Overload config with only the admission gate active (brownout and
/// breakers parked far out of reach).
fn gate_only(max_inflight_cost: f64) -> OverloadConfig {
    OverloadConfig {
        max_inflight_cost,
        default_deadline: None,
        brownout: BrownoutConfig {
            queue_high: usize::MAX,
            queue_low: 0,
            p95_high_us: u64::MAX,
            p95_low_us: 0,
            dwell: u32::MAX,
            window: 8,
        },
        breaker: BreakerConfig { failure_threshold: 0, ..BreakerConfig::default() },
    }
}

/// A runtime whose single shard sleeps ~1 ms per boundary edge on every
/// request: queries take tens of milliseconds, so a short submission burst
/// reliably fills a capacity-1 queue.
fn slow_runtime(f: &Fixture, queue_capacity: usize) -> Runtime {
    runtime(f, slow_cfg(queue_capacity))
}

fn slow_cfg(queue_capacity: usize) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: 1,
        dispatchers: 1,
        queue_capacity,
        shard_timeout: Duration::from_secs(5),
        max_retries: 0,
        fault: FaultPlan::lossy(5, 0.0, 1.0, 0.0, 1),
        overload: Some(gate_only(f64::INFINITY)),
        ..RuntimeConfig::default()
    }
}

#[test]
fn zero_capacity_gate_rejects_try_submit_but_not_submit() {
    let f = fixture();
    let rt = runtime(
        f,
        RuntimeConfig { num_shards: 2, overload: Some(gate_only(0.0)), ..RuntimeConfig::default() },
    );
    let spec = covered_spec(f, 1, 61);

    // Every try_submit bounces off the zero-capacity gate before any work.
    for _ in 0..3 {
        let rej = rt.try_submit(spec.clone()).err().expect("gate must reject");
        assert!(rej.retry_after >= Duration::from_millis(2), "floor on the backoff hint");
        assert!(rej.retry_after <= Duration::from_millis(250), "cap on the backoff hint");
    }
    // The blocking path does not consult the gate: classic behavior intact.
    let served = rt.query(spec.clone());
    assert!(!served.miss && !served.expired);
    assert_eq!(served.coverage, 1.0);
    assert_eq!(
        served.value.to_bits(),
        sync_value(f, &spec).unwrap().to_bits(),
        "blocking submit still serves exactly under a closed gate"
    );

    let report = rt.metrics().report();
    assert_eq!(report.admission_rejected, 3);
    assert_eq!(report.queries, 1, "rejected queries never reach a dispatcher");
    assert_eq!(report.shard_requests, served.shards as u64);
}

#[test]
fn full_queue_rejects_try_submit_while_submit_blocks() {
    let f = fixture();
    let rt = slow_runtime(f, 1);
    let spec = covered_spec(f, 8, 61);
    let exact = sync_value(f, &spec).unwrap();

    // Burst faster than the slowed shard can drain: 1 executing + 1 queued,
    // the rest must come back Rejected with a backoff hint.
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..12 {
        match rt.try_submit(spec.clone()) {
            Ok(pending) => accepted.push(pending),
            Err(rej) => {
                rejected += 1;
                assert!(rej.retry_after >= Duration::from_millis(2));
            }
        }
    }
    assert!(!accepted.is_empty(), "the first submission must be admitted");
    assert!(rejected > 0, "a capacity-1 queue must reject most of a 12-burst");

    // Everything admitted completes exactly; nothing is lost or widened.
    for pending in accepted {
        let served = pending.wait();
        assert!(!served.expired && !served.degraded);
        assert_eq!(served.value.to_bits(), exact.to_bits());
    }
    // The classic blocking submit waits out the same full queue instead.
    let served = rt.query(spec.clone());
    assert_eq!(served.value.to_bits(), exact.to_bits());

    let report = rt.metrics().report();
    assert_eq!(report.admission_rejected, rejected as u64);
    assert_eq!(report.deadline_expired, 0);
    rt.shutdown();
}

#[test]
fn full_queue_hint_saturates_on_a_timeout_or_retry_count_too_large_to_multiply() {
    let f = fixture();
    let spec = covered_spec(f, 8, 61);
    // `shard_timeout × (max_retries + 1)`: the product overflows for the
    // first, the sum for the second.
    for (shard_timeout, max_retries) in [(Duration::MAX, 1), (Duration::from_secs(5), u32::MAX)] {
        for overload in [Some(gate_only(f64::INFINITY)), None] {
            // With overload control the hint is its p95 window, and the
            // schedule is not even computed.
            let controlled = overload.is_some();
            let cfg = RuntimeConfig { shard_timeout, max_retries, overload, ..slow_cfg(1) };
            let rt = runtime(f, cfg);
            let burst: Vec<_> = (0..12).map(|_| rt.try_submit(spec.clone())).collect();
            let hints: Vec<Duration> =
                burst.iter().filter_map(|r| r.as_ref().err()).map(|rej| rej.retry_after).collect();
            assert!(!hints.is_empty(), "a capacity-1 queue must reject most of a 12-burst");
            for hint in hints {
                if controlled {
                    assert!(hint <= Duration::from_millis(250), "{hint:?}");
                } else {
                    assert!(hint >= shard_timeout, "{hint:?} for {shard_timeout:?}");
                }
            }
            for pending in burst.into_iter().flatten() {
                assert!(!pending.wait().expired);
            }
            rt.shutdown();
        }
    }
}

#[test]
fn blocking_submit_expires_on_a_full_queue_when_given_a_budget() {
    let f = fixture();
    let rt = slow_runtime(f, 1);
    let spec = covered_spec(f, 8, 61);

    // Saturate: one query executing (~10+ ms), one parked in the queue.
    let busy: Vec<_> = (0..2).map(|_| rt.submit(spec.clone())).collect();
    // A budgeted submit cannot take a queue slot in time: it must come back
    // expired — with a sound worst-case bracket — instead of blocking.
    let start = Instant::now();
    let served = rt.query(spec.clone().with_budget(Duration::from_millis(3)));
    assert!(served.expired, "the deadline must fire before a slot frees up");
    assert_eq!(served.shards, 0, "an expired query must not fan out");
    assert!(served.degraded);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "an expired submit must not wait out the queue"
    );
    assert_sound(f, &spec, served.lower, served.upper, "expired-on-queue answer");

    for pending in busy {
        assert!(!pending.wait().expired, "unbudgeted queries are untouched");
    }
    assert!(rt.metrics().report().deadline_expired >= 1);
    rt.shutdown();
}

#[test]
fn expired_deadline_job_never_reaches_a_shard() {
    let f = fixture();
    // Overload control off entirely: deadlines are honored independently.
    let rt = runtime(f, RuntimeConfig { num_shards: 3, ..RuntimeConfig::default() });
    let spec = covered_spec(f, 1, 61);

    let served = rt.query(spec.clone().with_budget(Duration::ZERO));
    assert!(served.expired);
    assert!(served.degraded);
    assert_eq!(served.shards, 0);
    assert_eq!(served.coverage, 0.0);
    assert_sound(f, &spec, served.lower, served.upper, "expired-at-submit answer");

    let report = rt.metrics().report();
    assert_eq!(report.shard_requests, 0, "no shard may ever see the expired job");
    assert_eq!(report.deadline_expired, 1);
    assert_eq!(report.queries, 1, "expired answers still count and trace");
    let traces = rt.metrics().recent_traces();
    assert!(traces.iter().any(|t| t.expired));
    rt.shutdown();
}

#[test]
fn expired_answers_are_counted_in_the_plan_metrics() {
    // Every answer plans through the engine — expired ones included — so
    // the runtime's plan counters must move in step with the engine's own.
    // No subscriptions here: they plan through the engine without a query.
    let f = fixture();
    let rt = runtime(f, RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() });
    let (before, engine_before) = (rt.metrics().report(), rt.engine_stats());
    let mut expired = 0u64;
    for round in 0..3 {
        for seed in [61, 62, 63] {
            let spec = covered_spec(f, 1, seed);
            // Alternate served and already-expired submissions of the same
            // regions, so both paths see plan-cache misses and hits.
            if (round + seed) % 2 == 0 {
                assert!(!rt.query(spec).expired);
            } else {
                assert!(rt.query(spec.with_budget(Duration::ZERO)).expired);
                expired += 1;
            }
        }
    }
    let (after, engine_after) = (rt.metrics().report(), rt.engine_stats());
    assert_eq!(after.deadline_expired - before.deadline_expired, expired);
    assert!(expired >= 4 && after.queries - before.queries == 9);
    assert_eq!(
        (after.plan_cache_hits + after.plan_cache_misses)
            - (before.plan_cache_hits + before.plan_cache_misses),
        (engine_after.hits + engine_after.misses) - (engine_before.hits + engine_before.misses),
        "runtime plan counters must not undercount the engine's"
    );
    assert_eq!(after.plan_cache_hits - before.plan_cache_hits, engine_after.hits);
    assert_eq!(after.plan_cache_misses - before.plan_cache_misses, engine_after.misses);
    rt.shutdown();
}

#[test]
fn breaker_trips_skips_probes_and_recovers() {
    let f = fixture();
    // Shard 0 silently swallows its first two deliveries (a crash window the
    // health checks cannot see), then recovers. With a failure threshold of
    // 1 the first timeout trips the breaker.
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 1,
        shard_timeout: Duration::from_millis(5),
        max_retries: 0,
        fault: FaultPlan::none().with_crash(CrashWindow {
            node: 0,
            after_messages: 0,
            lasts_messages: 2,
        }),
        overload: Some(OverloadConfig {
            breaker: BreakerConfig { failure_threshold: 1, open_for: Duration::from_millis(40) },
            ..gate_only(f64::INFINITY)
        }),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let spec = covered_spec(f, 8, 61);
    let exact = sync_value(f, &spec).unwrap();

    // 1. First query times out on shard 0 → breaker trips open.
    let first = rt.query(spec.clone());
    assert!(first.degraded, "the crashed shard's edges must degrade");
    assert_sound(f, &spec, first.lower, first.upper, "tripping query");

    // 2. While open (before open_for elapses) shard 0 is skipped outright:
    //    the answer degrades instantly instead of waiting out a timeout.
    let start = Instant::now();
    let skipped = rt.query(spec.clone());
    assert!(skipped.degraded);
    assert!(
        start.elapsed() < Duration::from_millis(5),
        "an open breaker must not wait out the shard timeout"
    );
    assert_sound(f, &spec, skipped.lower, skipped.upper, "breaker-skipped query");

    // 3. After open_for, one probe is let through half-open. The shard is
    //    still inside its crash window (second delivery) → re-opens.
    std::thread::sleep(Duration::from_millis(60));
    let probe_fail = rt.query(spec.clone());
    assert!(probe_fail.degraded);
    assert_sound(f, &spec, probe_fail.lower, probe_fail.upper, "failed probe");

    // 4. Next probe finds the shard recovered → breaker closes, answers are
    //    exact again.
    std::thread::sleep(Duration::from_millis(60));
    let recovered = rt.query(spec.clone());
    assert!(!recovered.degraded, "the closed breaker must serve shard 0 again");
    assert_eq!(recovered.coverage, 1.0);
    assert_eq!(recovered.value.to_bits(), exact.to_bits());

    let report = rt.metrics().report();
    assert!(report.breaker_opened >= 2, "trip + failed-probe re-open");
    assert!(report.breaker_half_open >= 2, "two probes were admitted");
    assert!(report.breaker_closed >= 1, "the successful probe must close");
    assert!(report.breaker_skipped >= 1, "step 2 skipped the open shard");
    rt.shutdown();
}

#[test]
fn brownout_escalates_to_full_shed_with_sound_brackets() {
    let f = fixture();
    // A hair-trigger controller: any observation is hot (p95 ≥ 1 µs), dwell
    // 1, queue watermarks out of the way — each served query escalates one
    // level until the full shed at level 3.
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 1,
        overload: Some(OverloadConfig {
            max_inflight_cost: f64::INFINITY,
            default_deadline: None,
            brownout: BrownoutConfig {
                queue_high: usize::MAX,
                queue_low: 0,
                p95_high_us: 1,
                p95_low_us: 0,
                dwell: 1,
                window: 4,
            },
            breaker: BreakerConfig { failure_threshold: 0, ..BreakerConfig::default() },
        }),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let spec = covered_spec(f, 8, 61);

    let answers: Vec<_> = (0..8).map(|_| rt.query(spec.clone())).collect();
    for (i, served) in answers.iter().enumerate() {
        assert_sound(f, &spec, served.lower, served.upper, &format!("brownout answer {i}"));
        assert!(served.value >= served.lower - 1e-12 && served.value <= served.upper + 1e-12);
        if served.brownout == 0 {
            assert_eq!(served.coverage, 1.0);
        }
    }
    // The ladder was climbed: full precision, strided, and fully shed
    // answers all appear in the sequence.
    assert!(answers.iter().any(|a| a.brownout == 0));
    let strided = answers.iter().find(|a| (1..=2).contains(&a.brownout)).expect("a strided answer");
    assert!(strided.degraded && strided.coverage < 1.0, "a stride skips boundary edges");
    let shed = answers.iter().find(|a| a.brownout == 3).expect("a fully shed answer");
    assert_eq!(shed.shards, 0, "level 3 must not fan out at all");
    assert_eq!(shed.coverage, 0.0);

    let report = rt.metrics().report();
    assert!(report.downgraded >= 1, "strided answers count as downgraded");
    assert!(report.shed >= 1, "level-3 answers count as shed");
    assert!(report.brownout_shifts >= 3, "the controller shifted 0→1→2→3");
    assert!(rt.metrics().recent_traces().iter().any(|t| t.brownout > 0));
    rt.shutdown();
}
