//! End-to-end standing-query tests of the supervised runtime: a
//! subscription's delta-maintained `[lower, upper]` bracket must stay
//! **bit-identical** to re-executing the same region as a snapshot query
//! through the sharded path — after every ingest batch, across forced
//! re-snapshot epochs, through quarantined boundaries, across a shard
//! killed and recovered mid-stream, and across a shard-map migration, which
//! leaves the brackets, their epoch and the plan cache alone.

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
        let moved = rt.metrics().report().deltas_pushed;
        assert!(moved > 0, "{ctx}: the stream must move some brackets");

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
    let epoch0 = rt.metrics().report().sub_epoch;

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
    assert!(
        report.sub_epoch > epoch0,
        "recovery must advance the subscription epoch ({} -> {})",
        epoch0,
        report.sub_epoch
    );
    assert!(
        report.sub_resnapshots >= subs.len() as u64,
        "every bracket re-snapshots on recovery: {report}"
    );
    assert_eq!(report.subscriptions, subs.len() as u64, "recovery keeps every subscriber");
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

/// Events the migration test streams: four of five on a dozen edges the
/// modulo map gives shard 0, fewer than one rebalance check window (4 096
/// routed events), so the one migration is the test's own `rebalance_now`.
fn hot_stream(num_edges: usize, num_shards: usize, n: usize) -> Vec<Crossing> {
    let hot: Vec<usize> = (0..num_edges).step_by(num_shards).take(12).collect();
    (0..n)
        .map(|i| Crossing {
            time: 10_000.0 + i as f64 * 0.25,
            edge: if i % 5 < 4 { hot[i % hot.len()] } else { i % num_edges },
            forward: i % 3 != 0,
        })
        .collect()
}

/// A migration moves edge forms between shards and nothing else: a standing
/// bracket folds the registry's mirror and a plan is a region resolved on
/// graphs no migration touches, so neither reads which shard holds an edge.
/// The subscription epoch, the re-snapshot counts and the plan cache stay
/// as they were, no update is pushed, and every bracket still equals
/// re-execution, before and after more events.
#[test]
fn a_migration_moves_forms_and_nothing_else() {
    let f = fixture();
    let (ne, ns) = (f.scenario.sensing.num_edges(), 3);
    let rt =
        runtime(f, RuntimeConfig { num_shards: ns, rebalance: true, ..RuntimeConfig::default() });
    let subs = register(&rt, f, 6, 37);
    assert!(subs.len() >= 2);
    // Fold the start-up history into the load window: what the next plan
    // weighs is then mostly the hot stream.
    assert_eq!(rt.rebalance_now(), 0, "the start-up history is balanced");
    let events = hot_stream(ne, ns, 3_000);
    let (first, rest) = events.split_at(2_000);
    for chunk in first.chunks(64) {
        rt.ingest_batch(chunk);
    }
    rt.flush_ingest();
    assert_eq!(rt.map_epoch(), 0, "no check window has passed yet");
    assert_matches_reexecution(&rt, &subs, "before the migration");
    for (h, _) in &subs {
        while h.updates.try_recv().is_ok() {}
    }
    let (report, plans) = (rt.metrics().report(), rt.engine_stats());

    assert!(rt.rebalance_now() > 0, "the hot shard must shed edges: {}", rt.metrics().report());
    assert_eq!(rt.map_epoch(), 1);
    let after = rt.metrics().report();
    assert_eq!(after.sub_epoch, report.sub_epoch, "a migration starts no subscription epoch");
    assert_eq!(after.sub_resnapshots, report.sub_resnapshots);
    assert_eq!(rt.engine_stats(), plans, "a migration leaves the plan cache alone");
    for (h, _) in &subs {
        let causes: Vec<UpdateCause> =
            std::iter::from_fn(|| h.updates.try_recv().ok()).map(|u| u.cause).collect();
        assert!(!causes.contains(&UpdateCause::Resnapshot), "{}: {causes:?}", h.id);
        assert!(causes.is_empty(), "{}: a migration pushes nothing: {causes:?}", h.id);
    }
    assert_matches_reexecution(&rt, &subs, "after the migration");
    assert_eq!(rt.engine_stats().misses, plans.misses, "every re-execution is a cache hit");

    for chunk in rest.chunks(64) {
        rt.ingest_batch(chunk);
    }
    rt.flush_ingest();
    assert_eq!(rt.map_epoch(), 1);
    assert_matches_reexecution(&rt, &subs, "events after the migration");
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
    assert_eq!(rt.metrics().report().subscriptions, 0);
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
    assert_eq!(rt.metrics().report().subscriptions, subs.len() as u64 - 1);

    // Drain the baseline, then stream: the dead subscription stays silent.
    while h.updates.try_recv().is_ok() {}
    for &c in &stream(f.scenario.sensing.num_edges(), 200) {
        rt.ingest(c).expect("ingest");
    }
    rt.flush_ingest();
    assert!(h.updates.try_recv().is_err(), "no pushes after unsubscribe");
    rt.shutdown();
}

/// A subscriber that drops its receiver is removed by the registry at the
/// first push that fails — here, the next ingest on its boundary — and the
/// live-subscription gauge falls with it: no `subscribe` or `unsubscribe`
/// call is needed to refresh it.
#[test]
fn a_dropped_subscriber_leaves_the_gauge() {
    let f = fixture();
    let rt = runtime(f, RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() });
    let mut subs = register(&rt, f, 4, 17);
    let live = subs.len() as u64;
    assert_eq!(rt.metrics().report().subscriptions, live);
    let at = subs.iter().position(|(h, _)| h.boundary_edges > 0).expect("a region with a boundary");
    let (gone, spec) = subs.swap_remove(at);
    let plan = QueryPlan::compile(&f.scenario.sensing, &f.sampled, &spec.region, spec.approx);
    drop(gone.updates);
    let c = Crossing { time: T_LATE, edge: plan.boundary[0].edge, forward: true };
    rt.ingest(c).expect("ingest");
    assert_eq!(rt.standing_bracket(gone.id), None, "the failed push dropped the subscriber");
    assert_eq!(rt.metrics().report().subscriptions, live - 1, "{}", rt.metrics().report());
    rt.shutdown();
}
