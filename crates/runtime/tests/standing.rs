//! End-to-end standing-query tests of the supervised runtime: a
//! subscription's delta-maintained `[lower, upper]` bracket must stay
//! **bit-identical** to re-executing the same region as a snapshot query
//! through the sharded path — after every ingest batch, across forced
//! re-snapshot epochs, through quarantined boundaries, and across a shard
//! killed and recovered mid-stream.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use stq_core::prelude::*;
use stq_core::tracker::Crossing;
use stq_geom::{Point, Rect};
use stq_runtime::{
    DurabilityConfig, DurabilityFaultPlan, QuerySpec, Runtime, RuntimeConfig, ShardHealth,
    SubscribeError, SubscriptionHandle, UpdateCause,
};

/// Any finite instant past every event the tests ingest: a snapshot there
/// counts net live occupancy, which is exactly what a standing bracket
/// tracks.
const T_LATE: f64 = 1.0e12;

struct Fixture {
    scenario: Scenario,
    sampled: SampledGraph,
}

fn fixture() -> &'static Fixture {
    static FIX: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIX.get_or_init(|| build_fixture(seed_from_env()))
}

fn build_fixture(seed: u64) -> Fixture {
    let scenario = Scenario::build(ScenarioConfig {
        junctions: 140,
        mix: WorkloadMix { random_waypoint: 14, commuter: 8, transit: 4 },
        seed,
        ..Default::default()
    });
    let cands = scenario.sensing.sensor_candidates();
    let ids =
        stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, cands.len() / 4, 5);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled =
        SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
    Fixture { scenario, sampled }
}

fn seed_from_env() -> u64 {
    std::env::var("STQ_STANDING_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(53)
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "stq-rt-standing-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Strictly monotone ingest stream over every sensed edge (standing_props
/// exercises late/rejected events at the registry layer; here the stream is
/// clean so both clean and durable runtimes accept every event).
fn stream(num_edges: usize, n: usize) -> Vec<Crossing> {
    (0..n)
        .map(|i| Crossing {
            time: 10_000.0 + i as f64 * 0.25,
            edge: i % num_edges,
            forward: i % 3 != 0,
        })
        .collect()
}

/// The last `n` crossings of the start-up history undone, newest first: each
/// crossed back the other way, after the history. Objects could make these
/// crossings, and they leave every population where it stood before the `n`
/// — so conservation certificates computed after them are sound, which they
/// need not be after `stream`.
fn undo_stream(f: &Fixture, n: usize) -> Vec<Crossing> {
    let store = &f.scenario.tracked.store;
    let mut history: Vec<(f64, usize, bool)> = (0..store.num_edges())
        .flat_map(|e| [true, false].map(|fwd| (e, fwd)))
        .flat_map(|(e, fwd)| store.form(e).timestamps(fwd).iter().map(move |&t| (t, e, fwd)))
        .collect();
    history.sort_by(|a, b| b.0.total_cmp(&a.0));
    let undo = |(i, &(_, edge, fwd)): (usize, &(f64, usize, bool))| Crossing {
        time: 10_000.0 + i as f64 * 0.25,
        edge,
        forward: !fwd,
    };
    history.iter().take(n).enumerate().map(undo).collect()
}

fn runtime(f: &Fixture, cfg: RuntimeConfig) -> Runtime {
    Runtime::new(f.scenario.sensing.clone(), f.sampled.clone(), &f.scenario.tracked.store, cfg)
}

/// Every `stride`-th monitored edge — the same shape of quarantine list the
/// audit hands `Runtime::with_quarantine`.
fn quarantine_list(f: &Fixture, stride: usize) -> Vec<usize> {
    (0..f.scenario.sensing.num_edges())
        .filter(|&e| f.sampled.monitored()[e])
        .step_by(stride)
        .collect()
}

/// Registers one subscription per region, alternating approximations, and
/// returns the live handles (unresolvable regions are skipped — both paths
/// refuse them identically, which `subscribe_rejects_unresolvable` pins).
fn register(
    rt: &Runtime,
    f: &Fixture,
    n: usize,
    seed: u64,
) -> Vec<(SubscriptionHandle, QuerySpec)> {
    f.scenario
        .make_queries(n, 0.15, 1_500.0, seed)
        .into_iter()
        .enumerate()
        .filter_map(|(i, (region, _, _))| {
            let approx = if i % 2 == 0 { Approximation::Lower } else { Approximation::Upper };
            let spec = QuerySpec::new(region.clone(), QueryKind::Snapshot(T_LATE), approx);
            rt.subscribe(region, approx).ok().map(|h| (h, spec))
        })
        .collect()
}

/// The heart of the suite: the delta-maintained bracket must equal the
/// re-executed snapshot **bitwise** (value, lower, and upper all fold the
/// same integers in the same order, so IEEE equality is exact, not ±ε).
fn assert_matches_reexecution(rt: &Runtime, subs: &[(SubscriptionHandle, QuerySpec)], ctx: &str) {
    for (h, spec) in subs {
        let b = rt.standing_bracket(h.id).expect("subscription is live");
        let served = rt.query(spec.clone());
        assert!(!served.miss, "{ctx}: registered region cannot miss");
        for (name, delta, reexec) in [
            ("value", b.value, served.value),
            ("lower", b.lower, served.lower),
            ("upper", b.upper, served.upper),
        ] {
            assert_eq!(
                delta.to_bits(),
                reexec.to_bits(),
                "{ctx}: {} {name} diverged: delta-maintained {delta} vs re-executed {reexec} \
                 (epoch {}, {} deltas)",
                h.id,
                b.epoch,
                b.deltas
            );
        }
    }
}

/// Clean and quarantined runtimes, checked after every ingest batch and
/// across a forced re-snapshot epoch. `STQ_STANDING_SEED` re-seeds the whole
/// fixture (CI runs 3 seeds).
#[test]
fn standing_equivalence_suite() {
    let f = &build_fixture(seed_from_env());
    for quarantined in [vec![], quarantine_list(f, 5)] {
        let cfg = RuntimeConfig { num_shards: 3, ..RuntimeConfig::default() };
        let rt = Runtime::with_quarantine(
            f.scenario.sensing.clone(),
            f.sampled.clone(),
            &f.scenario.tracked.store,
            cfg,
            &quarantined,
        );
        let ctx = if quarantined.is_empty() { "clean" } else { "quarantined" };
        let subs = register(&rt, f, 6, 29);
        assert!(subs.len() >= 2, "{ctx}: fixture must resolve some regions");
        // Baseline (zero deltas) must already agree with the query path.
        assert_matches_reexecution(&rt, &subs, ctx);

        let events = stream(f.scenario.sensing.num_edges(), 600);
        for (tick, batch) in events.chunks(150).enumerate() {
            for &c in batch {
                rt.ingest(c).expect("ingest");
            }
            rt.flush_ingest();
            assert_matches_reexecution(&rt, &subs, &format!("{ctx} tick {tick}"));
        }
        let stats = rt.subscription_stats();
        assert!(stats.deltas_applied > 0, "{ctx}: the stream must move some brackets");

        // Forced epoch: the re-snapshot recomputes every bracket from the
        // mirror and must land on the same bits the deltas accumulated.
        let before = rt.standing_brackets();
        rt.resnapshot_subscriptions();
        for ((id, old), (id2, new)) in before.iter().zip(rt.standing_brackets()) {
            assert_eq!(*id, id2);
            assert_eq!(old.value.to_bits(), new.value.to_bits(), "{ctx}: {id} resnapshot value");
            assert_eq!(old.lower.to_bits(), new.lower.to_bits(), "{ctx}: {id} resnapshot lower");
            assert_eq!(old.upper.to_bits(), new.upper.to_bits(), "{ctx}: {id} resnapshot upper");
            assert_eq!(new.epoch, old.epoch + 1);
            assert_eq!(new.deltas, 0, "{ctx}: re-snapshot resets the delta count");
        }
        assert_matches_reexecution(&rt, &subs, &format!("{ctx} post-resnapshot"));
        rt.shutdown();
    }
}

/// A shard killed mid-stream (kill -9, torn WAL tail) forces the supervisor
/// through recovery; the health flip must arrive with a new subscription
/// epoch, and the re-snapshotted brackets must still match re-execution.
#[test]
fn recovery_bumps_epoch_and_brackets_stay_identical() {
    let f = fixture();
    let dir = tmpdir("kill");
    let faults = DurabilityFaultPlan::killing(0xfeed_beef, &[(0, 60)]);
    let rt = runtime(
        f,
        RuntimeConfig {
            num_shards: 3,
            durability: Some(DurabilityConfig {
                wal_dir: dir.clone(),
                snapshot_every: 64,
                sync_every: 16,
                faults,
            }),
            ..RuntimeConfig::default()
        },
    );
    let subs = register(&rt, f, 6, 31);
    assert!(subs.len() >= 2);
    let epoch0 = rt.subscription_stats().epoch;

    for &c in &stream(f.scenario.sensing.num_edges(), 500) {
        rt.ingest(c).expect("ingest");
    }
    rt.flush_ingest();

    let report = rt.metrics().report();
    assert!(report.shard_respawns >= 1, "the scheduled kill must fire: {report}");
    assert!(
        rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy),
        "shard re-admitted after recovery"
    );
    let stats = rt.subscription_stats();
    assert!(
        stats.epoch > epoch0,
        "recovery must advance the subscription epoch ({} -> {})",
        epoch0,
        stats.epoch
    );
    assert!(stats.resnapshots >= subs.len() as u64, "every bracket re-snapshots on recovery");
    assert!(report.sub_resnapshots >= subs.len() as u64, "metrics mirror the registry: {report}");
    assert_matches_reexecution(&rt, &subs, "post-recovery");

    // The push channels saw the whole story: a baseline, live deltas, and
    // the recovery re-snapshot.
    let mut causes: Vec<UpdateCause> = Vec::new();
    while let Ok(u) = subs[0].0.updates.try_recv() {
        causes.push(u.cause);
    }
    assert_eq!(causes.first(), Some(&UpdateCause::Registered));
    assert!(causes.contains(&UpdateCause::Resnapshot), "recovery must push re-snapshots");
    rt.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Degraded-mode certification tightens quarantined standing brackets
/// without ever excluding the clean answer, and the delta/re-snapshot
/// lockstep stays bitwise exact with certificates installed.
#[test]
fn certified_intervals_tighten_standing_brackets() {
    let f = fixture();
    let quarantined = quarantine_list(f, 5);
    let cfg = RuntimeConfig {
        num_shards: 3,
        degraded: Some(DegradedPolicy::default()),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::with_quarantine(
        f.scenario.sensing.clone(),
        f.sampled.clone(),
        &f.scenario.tracked.store,
        cfg,
        &quarantined,
    );
    let rt_clean = runtime(f, RuntimeConfig { num_shards: 3, ..RuntimeConfig::default() });
    let subs = register(&rt, f, 6, 29);
    let subs_clean = register(&rt_clean, f, 6, 29);
    assert_eq!(subs.len(), subs_clean.len(), "same regions resolve on both runtimes");
    assert!(subs.len() >= 2);
    let before = rt.standing_brackets();

    let installed = rt.certify_standing_brackets(T_LATE);
    assert!(installed > 0, "the imputer must certify some quarantined edges");

    // Certified brackets never exclude the clean (exact-count) bracket: the
    // certified interval contains each quarantined edge's true flow, which
    // is exactly what the clean runtime folds.
    let contain_clean = || {
        for ((id, new), (hc, _)) in rt.standing_brackets().into_iter().zip(&subs_clean) {
            let clean = rt_clean.standing_bracket(hc.id).expect("clean subscription is live");
            assert!(
                new.lower <= clean.lower && new.upper >= clean.upper,
                "{id}: certified bracket [{}, {}] excludes clean [{}, {}]",
                new.lower,
                new.upper,
                clean.lower,
                clean.upper
            );
        }
    };
    let mut tightened = false;
    for ((_, old), (id, new)) in before.iter().zip(rt.standing_brackets()) {
        // Intersection only tightens…
        assert!(new.lower >= old.lower, "{id}: certification loosened the lower bound");
        assert!(new.upper <= old.upper, "{id}: certification loosened the upper bound");
        tightened |= new.lower > old.lower || new.upper < old.upper;
    }
    assert!(tightened, "certification must strictly tighten at least one bracket");
    contain_clean();

    // With certificates installed, deltas and re-snapshots must still land
    // on identical bits: both certificate endpoints move in lockstep with
    // the worst case under new events.
    for &c in &undo_stream(f, 450) {
        rt.ingest(c).expect("ingest");
        rt_clean.ingest(c).expect("ingest");
    }
    rt.flush_ingest();
    rt_clean.flush_ingest();
    let delta_maintained = rt.standing_brackets();
    rt.resnapshot_subscriptions();
    for ((id, d), (id2, r)) in delta_maintained.iter().zip(rt.standing_brackets()) {
        assert_eq!(*id, id2);
        assert_eq!(d.value.to_bits(), r.value.to_bits(), "{id}: certified lockstep value");
        assert_eq!(d.lower.to_bits(), r.lower.to_bits(), "{id}: certified lockstep lower");
        assert_eq!(d.upper.to_bits(), r.upper.to_bits(), "{id}: certified lockstep upper");
    }

    // The registry's mirror is live, so certifying past the stream installs
    // again, still around the clean brackets.
    assert!(rt.certify_standing_brackets(T_LATE) > 0, "live runtimes certify after ingest");
    contain_clean();
    rt_clean.shutdown();
    rt.shutdown();
}

/// A region the sampled graph cannot cover is refused at registration — the
/// same refusal the query path reports as a miss.
#[test]
fn subscribe_rejects_unresolvable() {
    let f = fixture();
    let rt = runtime(f, RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() });
    let off_map = Rect::from_corners(Point::new(-99.0, -99.0), Point::new(-98.0, -98.0));
    let region = QueryRegion::from_rect(&f.scenario.sensing, off_map);
    assert!(region.is_empty());
    let Err(err) = rt.subscribe(region.clone(), Approximation::Lower) else {
        panic!("empty region must be refused");
    };
    assert!(matches!(err, SubscribeError::Unresolvable));
    let served =
        rt.query(QuerySpec::new(region, QueryKind::Snapshot(T_LATE), Approximation::Lower));
    assert!(served.miss, "the query path refuses the same region");
    assert_eq!(rt.subscription_stats().subscriptions, 0);
    rt.shutdown();
}

/// Unsubscribing stops delta delivery and frees the routes; the gauge and
/// bracket accessors agree.
#[test]
fn unsubscribe_stops_updates() {
    let f = fixture();
    let rt = runtime(f, RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() });
    let subs = register(&rt, f, 4, 17);
    assert!(!subs.is_empty());
    let (h, _) = &subs[0];
    assert!(rt.standing_bracket(h.id).is_some());
    assert!(rt.unsubscribe(h.id));
    assert!(!rt.unsubscribe(h.id), "second unsubscribe is a no-op");
    assert!(rt.standing_bracket(h.id).is_none());
    assert_eq!(rt.subscription_stats().subscriptions, subs.len() - 1);

    // Drain the baseline, then stream: the dead subscription stays silent.
    while h.updates.try_recv().is_ok() {}
    for &c in &stream(f.scenario.sensing.num_edges(), 200) {
        rt.ingest(c).expect("ingest");
    }
    rt.flush_ingest();
    assert!(h.updates.try_recv().is_err(), "no pushes after unsubscribe");
    rt.shutdown();
}
