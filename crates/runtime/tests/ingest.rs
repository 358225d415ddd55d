//! Ingest-path tests: malformed-event refusal, per-event and batched ingest
//! both landing on a harness oracle's shard states, `flush_ingest` as a true
//! barrier under concurrent writers, and load-aware shard rebalancing
//! (migrations must leave answers, digests, and recovery untouched).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_core::tracker::Crossing;
use stq_durability::state_digest;
use stq_forms::{FormStore, ShardForms};
use stq_runtime::{
    DurabilityConfig, DurabilityFaultPlan, IngestError, QuerySpec, RebalanceConfig, Runtime,
    RuntimeConfig, ShardHealth,
};

struct Fixture {
    scenario: Scenario,
    sampled: SampledGraph,
}

fn fixture() -> &'static Fixture {
    static FIX: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let scenario = Scenario::build(ScenarioConfig {
            junctions: 140,
            mix: WorkloadMix { random_waypoint: 14, commuter: 8, transit: 4 },
            seed: 47,
            ..Default::default()
        });
        let cands = scenario.sensing.sensor_candidates();
        let ids = stq_sampling::sample(
            stq_sampling::SamplingMethod::QuadTree,
            &cands,
            cands.len() / 4,
            5,
        );
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let sampled =
            SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
        Fixture { scenario, sampled }
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "stq-rt-ing-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn runtime(f: &Fixture, cfg: RuntimeConfig) -> Runtime {
    Runtime::new(f.scenario.sensing.clone(), f.sampled.clone(), &f.scenario.tracked.store, cfg)
}

/// A deterministic ingest stream far past everything pre-recorded.
fn stream(num_edges: usize, n: usize) -> Vec<Crossing> {
    (0..n)
        .map(|i| Crossing {
            time: 10_000.0 + i as f64 * 0.25,
            edge: i % num_edges,
            forward: i % 3 != 0,
        })
        .collect()
}

/// A hotspot-skewed stream: ~80% of events land on `hot` edges that all
/// start on the same shard (`e % ns == 0`), the rest spread modulo-evenly.
fn skewed_stream(num_edges: usize, ns: usize, hot_edges: usize, n: usize) -> Vec<Crossing> {
    let hot: Vec<usize> = (0..num_edges).step_by(ns).take(hot_edges).collect();
    assert_eq!(hot.len(), hot_edges, "fixture must have enough edges");
    (0..n)
        .map(|i| Crossing {
            time: 10_000.0 + i as f64 * 0.25,
            edge: if i % 5 < 4 { hot[i % hot.len()] } else { i % num_edges },
            forward: i % 3 != 0,
        })
        .collect()
}

fn specs(f: &Fixture, n: usize, seed: u64) -> Vec<QuerySpec> {
    f.scenario
        .make_queries(n, 0.15, 1_500.0, seed)
        .into_iter()
        .flat_map(|(region, t0, t1)| {
            [
                QueryKind::Snapshot(10_500.0),
                QueryKind::Transient(t0, 11_000.0),
                QueryKind::Static(t1, 10_800.0),
            ]
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

/// The synchronous oracle over an explicitly maintained store.
fn sync_value(f: &Fixture, oracle: &FormStore, spec: &QuerySpec) -> Option<f64> {
    let plan = QueryPlan::compile(&f.scenario.sensing, &f.sampled, &spec.region, spec.approx);
    (!plan.miss).then(|| evaluate(oracle, &plan.boundary, spec.kind))
}

#[test]
fn malformed_events_are_refused_and_counted() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let rt = runtime(f, RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() });

    assert_eq!(
        rt.ingest(Crossing { time: 10_000.0, edge: ne + 7, forward: true }),
        Err(IngestError::UnknownEdge { edge: ne + 7, num_edges: ne })
    );
    assert_eq!(
        rt.ingest(Crossing { time: f64::NAN, edge: 0, forward: true }),
        Err(IngestError::NonFiniteTime { edge: 0 })
    );
    assert_eq!(
        rt.ingest(Crossing { time: f64::INFINITY, edge: 1, forward: false }),
        Err(IngestError::NonFiniteTime { edge: 1 })
    );

    // A batch with malformed members skips (and counts) them while the
    // valid rest is applied normally.
    let batch = vec![
        Crossing { time: 10_001.0, edge: 0, forward: true },
        Crossing { time: f64::NAN, edge: 1, forward: true },
        Crossing { time: 10_002.0, edge: 2, forward: false },
        Crossing { time: 10_003.0, edge: ne, forward: true },
    ];
    let report = rt.ingest_batch(&batch);
    assert_eq!((report.accepted, report.rejected), (2, 2));
    let applied = rt.flush_ingest();
    assert_eq!(applied.iter().sum::<u64>(), 2, "only the valid events reach the shards");

    let m = rt.metrics().report();
    assert_eq!(m.ingest_rejected, 5, "every refusal must be counted: {m}");
    assert_eq!(m.ingested, 2);
    assert_eq!(m.ingest_batches, 1);
    rt.shutdown();
}

/// Runs the same stream through one `ingest` call per event and through
/// `ingest_batch` with the given chunk sizes. Both runs' shard digests must
/// equal a harness-owned oracle's — every event recorded into a `FormStore`,
/// cut per shard — and their standing brackets and full-coverage answers
/// must match bit for bit.
fn assert_batch_matches_sequential(
    quarantined: &[usize],
    durable: bool,
    chunks: &[usize],
    n_events: usize,
) {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, n_events);
    let ns = 3;
    let mut oracle = f.scenario.tracked.store.clone();
    for c in &events {
        oracle.record(c.edge, c.forward, c.time);
    }
    // Rebalancing is off, so edge `e` stays on shard `e % ns`.
    let cut = |shard| ShardForms::cut_from(&oracle, |e| e % ns == shard);
    let want_digests: Vec<u64> = (0..ns).map(|shard| state_digest(&cut(shard))).collect();
    let mk = |dir: Option<&std::path::Path>| {
        let cfg = RuntimeConfig {
            num_shards: ns,
            durability: dir.map(|d| DurabilityConfig {
                wal_dir: d.to_path_buf(),
                snapshot_every: 64,
                sync_every: 16,
                faults: DurabilityFaultPlan::none(),
            }),
            ..RuntimeConfig::default()
        };
        Runtime::with_quarantine(
            f.scenario.sensing.clone(),
            f.sampled.clone(),
            &f.scenario.tracked.store,
            cfg,
            quarantined,
        )
    };

    let dir_seq = durable.then(|| tmpdir("seq"));
    let rt_seq = mk(dir_seq.as_deref());
    let sub_seq = rt_seq.subscribe(specs(f, 1, 9).remove(0).region, Approximation::Lower).ok();
    for &c in &events {
        rt_seq.ingest(c).expect("ingest");
    }
    rt_seq.flush_ingest();
    let want_brackets = rt_seq.standing_brackets();

    let dir_bat = durable.then(|| tmpdir("bat"));
    let rt_bat = mk(dir_bat.as_deref());
    let sub_bat = rt_bat.subscribe(specs(f, 1, 9).remove(0).region, Approximation::Lower).ok();
    assert_eq!(sub_seq.is_some(), sub_bat.is_some());
    let mut off = 0usize;
    let mut i = 0usize;
    let mut lanes = 0usize;
    while off < events.len() {
        let k = chunks[i % chunks.len()].max(1).min(events.len() - off);
        let report = rt_bat.ingest_batch(&events[off..off + k]);
        assert_eq!((report.accepted, report.rejected), (k, 0));
        lanes += report.lanes;
        off += k;
        i += 1;
    }
    rt_bat.flush_ingest();

    if durable {
        // Every event reaches the WAL, as one frame per lane: a lane of one
        // per `ingest` call, one per shard an `ingest_batch` call reached.
        for (rt, frames) in [(&rt_seq, n_events), (&rt_bat, lanes)] {
            let m = rt.metrics().report();
            assert_eq!(m.wal_appends, n_events as u64, "every event must reach the WAL: {m}");
            assert_eq!(m.wal_group_commits, frames as u64, "one frame per lane: {m}");
        }
    }
    assert_eq!(rt_seq.shard_digests(), want_digests, "per-event ingest must match the oracle");
    assert_eq!(rt_bat.shard_digests(), want_digests, "batch ingest must match the oracle");
    let got_brackets = rt_bat.standing_brackets();
    assert_eq!(want_brackets.len(), got_brackets.len());
    for ((_, a), (_, b)) in want_brackets.iter().zip(&got_brackets) {
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "standing values must match");
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
    }
    for spec in specs(f, 4, 23) {
        let a = rt_seq.query(spec.clone());
        let b = rt_bat.query(spec);
        assert_eq!(a.miss, b.miss);
        if a.coverage == 1.0 && b.coverage == 1.0 {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "answers must match bit for bit");
        }
    }
    rt_seq.shutdown();
    rt_bat.shutdown();
    if let Some(d) = dir_seq {
        std::fs::remove_dir_all(d).ok();
    }
    if let Some(d) = dir_bat {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn batch_ingest_matches_sequential_on_clean_graph() {
    assert_batch_matches_sequential(&[], false, &[64, 1, 7, 128], 600);
}

#[test]
fn batch_ingest_matches_sequential_with_quarantine_and_durability() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let quarantined: Vec<usize> = (0..ne).step_by(17).take(8).collect();
    assert_batch_matches_sequential(&quarantined, true, &[33, 90, 5], 500);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential pin: `ingest_batch` over arbitrary chunkings is
    /// indistinguishable from N sequential `ingest` calls.
    #[test]
    fn arbitrary_chunkings_are_bit_identical(
        chunks in proptest::collection::vec(1usize..96, 1..6),
        n_events in 120usize..400,
        quarantine in proptest::prelude::any::<bool>(),
    ) {
        let quarantined: Vec<usize> = if quarantine { vec![3, 20, 57] } else { Vec::new() };
        assert_batch_matches_sequential(&quarantined, false, &chunks, n_events);
    }
}

#[test]
fn flush_is_a_true_barrier_under_concurrent_ingest() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let ns = 4;
    let rt = Arc::new(runtime(f, RuntimeConfig { num_shards: ns, ..RuntimeConfig::default() }));
    let writers = 4;
    let per_phase = 400usize;
    // Two phases per writer with a barrier between them: when the main
    // thread passes the barrier, every phase-1 event has fully dispatched,
    // so the flush that follows must observe at least all of them — while
    // phase 2 keeps ingesting concurrently with the flush itself.
    let barrier = Arc::new(Barrier::new(writers + 1));
    let mut handles = Vec::new();
    for w in 0..writers {
        let rt = Arc::clone(&rt);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mk = |i: usize| Crossing {
                // Per-writer disjoint edges keep per-edge times monotone
                // regardless of thread interleaving.
                time: 10_000.0 + i as f64 * 0.25,
                edge: (w + writers * (i % (ne / writers - 1))) % ne,
                forward: i % 3 != 0,
            };
            let phase1: Vec<Crossing> = (0..per_phase).map(mk).collect();
            for chunk in phase1.chunks(37) {
                let report = rt.ingest_batch(chunk);
                assert_eq!(report.rejected, 0);
            }
            barrier.wait();
            for i in 0..per_phase {
                rt.ingest(mk(per_phase + i)).expect("ingest");
            }
        }));
    }
    barrier.wait();
    let applied = rt.flush_ingest();
    let at_barrier: u64 = applied.iter().sum();
    assert!(
        at_barrier >= (writers * per_phase) as u64,
        "flush returned {at_barrier}, but {} events were ingested before it was called",
        writers * per_phase
    );
    for h in handles {
        h.join().unwrap();
    }
    let total = (writers * per_phase * 2) as u64;
    let applied = rt.flush_ingest();
    assert_eq!(applied.iter().sum::<u64>(), total, "final flush must cover every event");
    assert_eq!(rt.metrics().report().ingested, total);
    Arc::try_unwrap(rt).ok().expect("all clones joined").shutdown();
}

fn rebalance_cfg() -> RebalanceConfig {
    RebalanceConfig { check_every: 512, max_moves: 4, decay: 0.5, min_imbalance: 1.1 }
}

#[test]
fn loadaware_map_migrates_and_answers_match_modulo() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let ns = 3;
    let events = skewed_stream(ne, ns, 12, 4_000);

    let rt_mod = runtime(f, RuntimeConfig { num_shards: ns, ..RuntimeConfig::default() });
    let rt_bal = runtime(
        f,
        RuntimeConfig {
            num_shards: ns,
            rebalance: Some(rebalance_cfg()),
            ..RuntimeConfig::default()
        },
    );
    for chunk in events.chunks(64) {
        rt_mod.ingest_batch(chunk);
        rt_bal.ingest_batch(chunk);
    }
    rt_mod.flush_ingest();
    rt_bal.flush_ingest();

    assert!(rt_bal.map_epoch() > 0, "the skewed stream must trigger at least one migration");
    assert_eq!(rt_mod.map_epoch(), 0, "the modulo map never migrates");
    let m = rt_bal.metrics().report();
    assert!(m.rebalances >= 1 && m.edges_migrated >= 1, "{m}");
    assert_eq!(m.map_epoch, rt_bal.map_epoch());
    assert!(
        rt_bal.shard_health().iter().all(|h| *h == ShardHealth::Healthy),
        "migration must hand shards back healthy"
    );

    // The imbalance witness: the load-aware run's routed imbalance is at
    // most half the static modulo assignment's (counts, so deterministic).
    let imbalance = |loads: &[u64]| {
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        max / mean - 1.0
    };
    let im_mod = imbalance(&rt_mod.shard_loads());
    let im_bal = imbalance(&rt_bal.shard_loads());
    assert!(
        im_bal <= 0.5 * im_mod,
        "load-aware imbalance {im_bal:.3} must be at most half of modulo {im_mod:.3}"
    );

    // Routing is invisible to answers: both serve the same values.
    let mut exact_seen = 0usize;
    for spec in specs(f, 5, 31) {
        let a = rt_mod.query(spec.clone());
        let b = rt_bal.query(spec);
        assert_eq!(a.miss, b.miss);
        if a.coverage == 1.0 && b.coverage == 1.0 {
            exact_seen += 1;
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "migrated shards must serve bit-identical answers"
            );
        }
    }
    assert!(exact_seen > 0, "healthy runs must serve full-coverage answers");
    rt_mod.shutdown();
    rt_bal.shutdown();
}

#[test]
fn migration_then_crash_then_recover_keeps_digests() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let ns = 3;
    let events = skewed_stream(ne, ns, 12, 4_000);
    let chunks: Vec<&[Crossing]> = events.chunks(64).collect();

    // Reference: same config and stream, no kill. Migrations are
    // deterministic (event-count triggers), so per-shard digests compare.
    let dir_ref = tmpdir("mig-ref");
    let mk = |dir: &std::path::Path, faults: DurabilityFaultPlan| {
        runtime(
            f,
            RuntimeConfig {
                num_shards: ns,
                rebalance: Some(rebalance_cfg()),
                durability: Some(DurabilityConfig {
                    wal_dir: dir.to_path_buf(),
                    snapshot_every: 256,
                    sync_every: 16,
                    faults,
                }),
                ..RuntimeConfig::default()
            },
        )
    };
    let rt_ref = mk(&dir_ref, DurabilityFaultPlan::none());
    for chunk in &chunks {
        rt_ref.ingest_batch(chunk);
        rt_ref.flush_ingest();
    }
    let want = rt_ref.shard_digests();
    assert!(rt_ref.map_epoch() > 0, "the reference run must migrate");
    rt_ref.shutdown();
    std::fs::remove_dir_all(&dir_ref).ok();

    // The oracle and query set every killed run is bracketed against.
    let mut oracle = f.scenario.tracked.store.clone();
    for c in &events {
        oracle.record(c.edge, c.forward, c.time);
    }
    let queries = specs(f, 5, 31);

    // Killed runs: shard 0 (the initial hotspot) dies mid-stream, after the
    // first migration has already moved edges away from it, and shard 1
    // dies at its 500th append — its modulo share of the stream is under
    // 300 events, so that kill only fires on a shard the migrations moved
    // hot edges *onto*. The flush after every batch keeps recovery strictly
    // ordered before the next ingest, so the migration schedule stays
    // identical to the reference. Each seed re-keys the torn-tail draws of
    // both kills.
    for seed in [11u64, 23, 37] {
        eprintln!("fault seed {seed}");
        let dir = tmpdir("mig-kill");
        let rt = mk(&dir, DurabilityFaultPlan::killing(0xbeef_cafe ^ seed, &[(0, 900), (1, 500)]));
        for chunk in &chunks {
            rt.ingest_batch(chunk);
            rt.flush_ingest();
        }
        assert_eq!(rt.shard_digests(), want, "digests must survive migration + crash + recovery");
        let m = rt.metrics().report();
        assert!(m.rebalances >= 1, "migration must have happened: {m}");
        assert!(m.shard_respawns >= 2, "both kills must have fired: {m}");
        assert!(
            rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy),
            "all shards re-admitted"
        );
        // Migration and recovery are invisible to soundness.
        let mut exact_seen = 0usize;
        for spec in &queries {
            let served = rt.query(spec.clone());
            let Some(exact) = sync_value(f, &oracle, spec) else {
                assert!(served.miss);
                continue;
            };
            assert!(
                !served.miss && served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9,
                "post-recovery bounds [{}, {}] must bracket oracle {exact}",
                served.lower,
                served.upper
            );
            exact_seen += usize::from(served.coverage == 1.0);
        }
        assert!(exact_seen > 0, "recovered shards must serve full-coverage answers");
        rt.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
