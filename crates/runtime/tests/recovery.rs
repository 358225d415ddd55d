//! Crash-recovery tests of the supervised runtime: a shard worker killed
//! mid-ingest (kill -9 semantics, torn WAL tail included) must come back
//! with **byte-identical** tracking-form state, queries against a
//! recovering shard must keep returning sound brackets, a worker whose
//! requests panic must be answered around (sound widened brackets, no
//! respawn) and serve exactly once the fault ends, and a shard whose history
//! is lost (unreadable snapshot, mid-log gap) must come back refusing every
//! edge it owns instead of serving a truncated history.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_core::tracker::Crossing;
use stq_forms::{BoundaryEdge, FormStore};
use stq_runtime::{
    CrashWindow, DurabilityConfig, DurabilityFaultPlan, FaultPlan, QuerySpec, Runtime,
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
            seed: 53,
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
        "stq-rt-rec-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic ingest stream: event `i` crosses edge `i % num_edges` at
/// a time far past everything the scenario pre-recorded, so the oracle
/// store can absorb it with plain `record` (strictly monotone everywhere).
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

fn durable_cfg(
    dir: &std::path::Path,
    snapshot_every: u64,
    faults: DurabilityFaultPlan,
) -> Option<DurabilityConfig> {
    Some(DurabilityConfig { wal_dir: dir.to_path_buf(), snapshot_every, sync_every: 16, faults })
}

/// Torn-tail fault seeds: each re-keys how many unsynced WAL bytes survive
/// a kill, so the cut lands on different suffixes (mid-record included).
const FAULT_SEEDS: [u64; 3] = [11, 23, 37];

/// Snapshot cadences that put several, one and zero rollovers per shard
/// inside the killed streams below (200–300 events per shard): recovery
/// from a fresh snapshot plus a short WAL, from one old snapshot plus a
/// long WAL, and from the WAL alone.
const SNAPSHOT_CADENCES: [u64; 3] = [64, 192, 1024];

/// Every (cadence, seed) cell, each named on stderr as it starts so a
/// failing assertion says which cell it belongs to.
fn fault_cells() -> impl Iterator<Item = (u64, u64)> {
    SNAPSHOT_CADENCES
        .into_iter()
        .flat_map(|every| FAULT_SEEDS.into_iter().map(move |seed| (every, seed)))
        .inspect(|(every, seed)| eprintln!("snapshot_every {every}, fault seed {seed}"))
}

fn specs(f: &Fixture, n: usize, seed: u64) -> Vec<QuerySpec> {
    f.scenario
        .make_queries(n, 0.15, 1_500.0, seed)
        .into_iter()
        .flat_map(|(region, t0, t1)| {
            // Also query *inside* the ingested era so the new events matter.
            [
                QueryKind::Snapshot(t0),
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

/// The boundary chain the serving graph resolves `spec` to (`None`: a miss).
fn boundary(f: &Fixture, spec: &QuerySpec) -> Option<Vec<BoundaryEdge>> {
    let covered = f.sampled.resolve(spec.region.junctions(), spec.approx);
    if covered.is_empty() {
        return None;
    }
    Some(f.scenario.sensing.boundary_walk(&covered, Some(f.sampled.monitored())).0)
}

/// The synchronous oracle over an explicitly maintained store.
fn sync_value(f: &Fixture, oracle: &FormStore, spec: &QuerySpec) -> Option<f64> {
    boundary(f, spec).map(|chain| evaluate(oracle, &chain, spec.kind))
}

#[test]
fn kill_mid_ingest_recovers_byte_identical_state() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 900);
    let ns = 3;

    // Reference run: same stream, no faults, no durability — its final
    // shard digests are the uninterrupted truth.
    let rt_ref = runtime(f, RuntimeConfig { num_shards: ns, ..RuntimeConfig::default() });
    for &c in &events {
        rt_ref.ingest(c).expect("ingest");
    }
    rt_ref.flush_ingest();
    let want = rt_ref.shard_digests();
    rt_ref.shutdown();

    for (snapshot_every, seed) in fault_cells() {
        killed_run_matches(f, &events, ns, &want, snapshot_every, seed);
    }
}

fn killed_run_matches(
    f: &Fixture,
    events: &[Crossing],
    ns: usize,
    want: &[u64],
    snapshot_every: u64,
    seed: u64,
) {
    // Killed run: durability on, two scheduled kill -9s on shard 0 — one
    // mid-batch, one after a flush barrier so it provably fires live.
    let dir = tmpdir("kill");
    let faults = DurabilityFaultPlan::killing(0xfeed_beef ^ seed, &[(0, 50), (0, 220)]);
    let rt = runtime(
        f,
        RuntimeConfig {
            num_shards: ns,
            durability: durable_cfg(&dir, snapshot_every, faults),
            ..RuntimeConfig::default()
        },
    );
    let (first, rest) = events.split_at(events.len() / 2);
    for &c in first {
        rt.ingest(c).expect("ingest");
    }
    // Barrier: the respawned worker answers the flush, so this both proves
    // the first kill was survived and lines the lanes up for the second.
    let applied = rt.flush_ingest();
    assert_eq!(applied.iter().sum::<u64>(), first.len() as u64);
    for &c in rest {
        rt.ingest(c).expect("ingest");
    }
    rt.flush_ingest();

    assert_eq!(rt.shard_digests(), want, "recovered state must be byte-identical");
    assert!(
        rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy),
        "all shards re-admitted after recovery"
    );
    let report = rt.metrics().report();
    assert!(report.shard_respawns >= 2, "both scheduled kills must fire: {report}");
    assert!(report.wal_replayed + report.redo_replayed > 0, "recovery must replay something");
    // Live ingests plus redo replays cover the stream (they overlap on the
    // events the dead worker applied past the durable floor) and dedup
    // keeps live ingests from exceeding it.
    assert!(report.ingested <= events.len() as u64);
    assert!(report.ingested + report.redo_replayed >= events.len() as u64);
    // A shard sees a third of the stream: snapshots roll exactly when the
    // cadence fits inside that.
    assert_eq!(
        report.snapshots_taken > 0,
        snapshot_every <= (events.len() / ns) as u64,
        "snapshot rollovers: {report}"
    );
    rt.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_inside_a_batched_lane_redoes_only_what_is_past_the_floor() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 600);
    let ns = 2;
    let rt_ref = runtime(f, RuntimeConfig { num_shards: ns, ..RuntimeConfig::default() });
    for batch in events.chunks(200) {
        rt_ref.ingest_batch(batch);
    }
    rt_ref.flush_ingest();
    let want = rt_ref.shard_digests();
    rt_ref.shutdown();

    // Shard 0's lanes of the first two batches: sequences `1..=n1`, then
    // `n1 + 1..=n1 + n2`. It dies 55 events into the second. A lane with a
    // kill in it is appended record by record and synced every 16th, so the
    // disk ends somewhere in `n1 + 48..=n1 + 55` (the seed decides how much
    // of the unsynced tail survives): inside the one lane the redo buffer
    // holds, which is replayed from there and not from its first event.
    let lane_len = |batch: &[Crossing]| batch.iter().filter(|c| c.edge % ns == 0).count() as u64;
    let (n1, n2) = (lane_len(&events[..200]), lane_len(&events[200..400]));
    assert!(n2 > 55);
    for seed in FAULT_SEEDS {
        let dir = tmpdir("lane");
        let faults = DurabilityFaultPlan::killing(0xfeed_beef ^ seed, &[(0, n1 + 55)]);
        let rt = runtime(
            f,
            RuntimeConfig {
                num_shards: ns,
                durability: durable_cfg(&dir, 1024, faults),
                ..RuntimeConfig::default()
            },
        );
        let send = |batch: &[Crossing]| {
            assert_eq!(rt.ingest_batch(batch).lanes, ns);
            // Synced, so the next lane is the only one retained; and the
            // flush after the kill waits the recovery out.
            rt.flush_ingest();
        };
        events[..400].chunks(200).for_each(send);
        let before = rt.metrics().report();
        send(&events[400..]);
        assert_eq!(rt.shard_digests(), want, "seed {seed}: recovered state must be byte-identical");
        let report = rt.metrics().report();
        // What the workers logged themselves (the redo's appends are the
        // supervisor's): frames for shard 0's first lane and shard 1's two,
        // 55 single records of the lane with the kill in it. The respawned
        // worker resumes at the lane head, so all of its next lane is past
        // its `last_seq` and goes down as the one frame it is.
        assert_eq!((before.wal_appends, before.wal_group_commits), (400 - n2 + 55, 3), "{before}");
        assert_eq!(report.wal_appends - before.wal_appends, 200, "{report}");
        assert_eq!(report.wal_group_commits - before.wal_group_commits, ns as u64, "{report}");
        assert_eq!(report.shard_respawns, 1, "{report}");
        // No snapshot rolled over, so what the WAL replayed is the floor.
        let floor = report.wal_replayed;
        assert!((n1 + 48..=n1 + 55).contains(&floor), "seed {seed}: floor {floor}, n1 {n1}");
        assert_eq!(report.redo_replayed, n1 + n2 - floor, "seed {seed}: redo starts past {floor}");
        // The dead worker applied 55 of the lane's events; the redo, not a
        // live apply, supplied the rest.
        assert_eq!(report.ingested, events.len() as u64 - (n2 - 55), "{report}");
        rt.shutdown();
        // Disk prefix, redo tail and the new incarnation's frame are one
        // contiguous log.
        let log = stq_durability::replay_wal(&dir.join("shard-0").join("wal.log"), 0).unwrap();
        assert!(!log.torn && !log.seq_break, "seed {seed}");
        let on_shard_0 = events.iter().filter(|c| c.edge % ns == 0).copied();
        assert!(log.events.iter().copied().eq((1..).zip(on_shard_0)), "seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn clean_restart_from_disk_matches_memory() {
    // No faults at all: durable state written by one runtime equals the
    // in-memory truth record for record (covers WAL + snapshot + replay on
    // the happy path, through the public API).
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 300);
    let dir = tmpdir("clean");
    let rt = runtime(
        f,
        RuntimeConfig {
            num_shards: 2,
            durability: durable_cfg(&dir, 64, DurabilityFaultPlan::none()),
            ..RuntimeConfig::default()
        },
    );
    for &c in &events {
        rt.ingest(c).expect("ingest");
    }
    rt.flush_ingest();
    let want = rt.shard_digests();
    rt.shutdown();

    for (shard, &live) in want.iter().enumerate() {
        let rec = stq_durability::recover_shard(&dir, shard, 64, 16).unwrap();
        assert_eq!(rec.digest(), live, "disk state must equal the live shard digest");
        assert!(!rec.report.torn_tail && !rec.report.seq_break);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn post_recovery_answers_bracket_the_oracle() {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 600);

    let mut oracle = f.scenario.tracked.store.clone();
    for c in &events {
        oracle.record(c.edge, c.forward, c.time);
    }

    for (snapshot_every, seed) in fault_cells() {
        killed_run_brackets(f, &events, &oracle, snapshot_every, seed);
    }
}

fn killed_run_brackets(
    f: &Fixture,
    events: &[Crossing],
    oracle: &FormStore,
    snapshot_every: u64,
    seed: u64,
) {
    let dir = tmpdir("bracket");
    let faults = DurabilityFaultPlan::killing(0x0dd_cafe ^ seed, &[(0, 40), (1, 70)]);
    let rt = runtime(
        f,
        RuntimeConfig {
            num_shards: 3,
            durability: durable_cfg(&dir, snapshot_every, faults),
            ..RuntimeConfig::default()
        },
    );
    for &c in events {
        rt.ingest(c).expect("ingest");
    }
    rt.flush_ingest();

    let mut exact_seen = 0usize;
    for spec in specs(f, 6, 71) {
        let served = rt.query(spec.clone());
        let Some(exact) = sync_value(f, oracle, &spec) else {
            assert!(served.miss);
            continue;
        };
        assert!(
            served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9,
            "post-recovery bounds [{}, {}] must bracket oracle {exact} (coverage {})",
            served.lower,
            served.upper,
            served.coverage
        );
        if served.coverage == 1.0 {
            exact_seen += 1;
            assert_eq!(
                served.value.to_bits(),
                exact.to_bits(),
                "full coverage after recovery must be bit-identical to the oracle"
            );
        }
    }
    assert!(exact_seen > 0, "healthy recovered shards must serve exact answers");
    assert!(rt.metrics().report().shard_respawns >= 1);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard-0 worker dies at sequence `kill_at` of a two-shard durable run
/// whose disk `damage` ruins first (called with the WAL root once the first
/// `before_damage` events are flushed), so recovery finds its history lost.
/// Whatever the cause, the outcome is one: every edge the map routes to
/// shard 0 is flagged in the one quarantine column, so the shard refuses all
/// of them and both folds — the aggregator's and the standing bracket's —
/// widen by the same edges.
fn lost_history_run(tag: &str, kill_at: u64, before_damage: usize, damage: fn(&std::path::Path)) {
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 4 * ne);
    let t_end = 10_000.0 + events.len() as f64;
    let mut oracle = f.scenario.tracked.store.clone();
    for c in &events {
        oracle.record(c.edge, c.forward, c.time);
    }
    // Never rebalanced, so the map is still the modulo assignment.
    let owned_by_zero = (0..ne).filter(|e| e % 2 == 0).count() as u64;

    for seed in FAULT_SEEDS {
        eprintln!("{tag}: fault seed {seed}");
        let dir = tmpdir(tag);
        let faults = DurabilityFaultPlan::killing(0xdead_d15c ^ seed, &[(0, kill_at)]);
        let rt = runtime(
            f,
            RuntimeConfig {
                num_shards: 2,
                durability: durable_cfg(&dir, 1024, faults),
                ..RuntimeConfig::default()
            },
        );
        // Registered before the kill: the recovery epoch must re-snapshot
        // these onto the same refusals the shard then serves by.
        let standing: Vec<_> = f
            .scenario
            .make_queries(6, 0.15, 1_500.0, seed)
            .into_iter()
            .filter_map(|(region, _, _)| {
                let spec = QuerySpec::new(
                    region.clone(),
                    QueryKind::Snapshot(t_end),
                    Approximation::Lower,
                );
                rt.subscribe(region, Approximation::Lower).ok().map(|h| (h, spec))
            })
            .collect();
        assert!(!standing.is_empty(), "fixture must resolve some standing regions");

        let (first, rest) = events.split_at(before_damage);
        for &c in first {
            rt.ingest(c).expect("ingest");
        }
        rt.flush_ingest();
        damage(&dir);
        for &c in rest {
            rt.ingest(c).expect("ingest");
        }
        rt.flush_ingest();

        let mut refused_seen = 0usize;
        for spec in specs(f, 20, seed) {
            let served = rt.query(spec.clone());
            let Some(chain) = boundary(f, &spec) else {
                assert!(served.miss);
                continue;
            };
            let exact = evaluate(&oracle, &chain, spec.kind);
            assert!(
                served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9,
                "lost-history bounds [{}, {}] must bracket oracle {exact} (coverage {})",
                served.lower,
                served.upper,
                served.coverage
            );
            if chain.iter().any(|be| be.edge % 2 == 0) {
                refused_seen += 1;
                assert!(
                    served.degraded && served.coverage < 1.0,
                    "an answer touching the lost shard cannot claim full coverage"
                );
            }
        }
        assert!(refused_seen > 0, "some query must touch shard 0");
        for (h, spec) in &standing {
            let b = rt.standing_bracket(h.id).expect("subscription is live");
            let served = rt.query(spec.clone());
            assert_eq!(
                [b.value.to_bits(), b.lower.to_bits(), b.upper.to_bits()],
                [served.value.to_bits(), served.lower.to_bits(), served.upper.to_bits()],
                "standing [{}, {}] vs re-executed [{}, {}]: both folds read one column",
                b.lower,
                b.upper,
                served.lower,
                served.upper
            );
        }

        let report = rt.metrics().report();
        assert!(report.shard_respawns >= 1, "the scheduled kill must fire: {report}");
        assert!(report.lost_events > 0, "the lost history must be accounted: {report}");
        assert_eq!(report.quarantined_edges, owned_by_zero, "the gauge follows the column");
        assert!(report.quarantine_refusals > 0);
        assert!(rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy));
        rt.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Flips every bit of the byte at `offset`, in place (the owning worker may
/// hold the file open for appending; its length must not change).
fn flip_byte(path: &std::path::Path, offset: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
    let mut byte = [0u8];
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.read_exact(&mut byte).unwrap();
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.write_all(&[!byte[0]]).unwrap();
    file.sync_all().unwrap();
}

#[test]
fn unreadable_snapshot_quarantines_the_whole_shard() {
    // The base snapshot is damaged right after startup, so `recover_shard`
    // returns `InvalidData`: the disk gives nothing.
    lost_history_run("unreadable", 20, 0, |dir| {
        let snapshot = dir.join("shard-0").join("snapshot.bin");
        flip_byte(&snapshot, std::fs::metadata(&snapshot).unwrap().len() / 2);
    });
}

#[test]
fn degraded_ladder_stands_down_on_edges_a_lost_history_quarantined() {
    // Degraded mode over a start-up quarantine of shard 1's edges, and then
    // shard 0 loses its history as in `unreadable_snapshot_…`. Its edges are
    // flagged, so no `Counts` reply carries them — the respawned worker's
    // forms would hold only what arrived since — and a ladder that reads one
    // stands down: every answer, certified or not, brackets the oracle.
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 4 * ne);
    let mut oracle = f.scenario.tracked.store.clone();
    for c in &events {
        oracle.record(c.edge, c.forward, c.time);
    }
    // Odd edges are shard 1's under the modulo map, which is never rebalanced.
    let quarantined: Vec<usize> =
        (0..ne).filter(|&e| e % 2 == 1 && f.sampled.monitored()[e]).step_by(4).collect();
    for seed in FAULT_SEEDS {
        eprintln!("fault seed {seed}");
        let dir = tmpdir("ladder");
        let faults = DurabilityFaultPlan::killing(0xdead_d15c ^ seed, &[(0, 20)]);
        let rt = Runtime::with_quarantine(
            f.scenario.sensing.clone(),
            f.sampled.clone(),
            &f.scenario.tracked.store,
            RuntimeConfig {
                num_shards: 2,
                durability: durable_cfg(&dir, 1024, faults),
                degraded: Some(DegradedPolicy::default()),
                ..RuntimeConfig::default()
            },
            &quarantined,
        );
        let snapshot = dir.join("shard-0").join("snapshot.bin");
        flip_byte(&snapshot, std::fs::metadata(&snapshot).unwrap().len() / 2);
        for &c in &events {
            rt.ingest(c).expect("ingest");
        }
        rt.flush_ingest();
        assert!(rt.metrics().report().lost_events > 0, "shard 0's history must be lost");

        let mut certified = 0usize;
        for spec in specs(f, 20, seed) {
            let served = rt.query(spec.clone());
            certified += usize::from(served.strategy != DegradedStrategy::None);
            let Some(chain) = boundary(f, &spec) else { continue };
            let exact = evaluate(&oracle, &chain, spec.kind);
            assert!(
                served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9,
                "{:?} [{}]: [{}, {}] must bracket oracle {exact}",
                spec.kind,
                served.strategy.label(),
                served.lower,
                served.upper
            );
        }
        eprintln!("{certified} answers certified by the ladder");
        rt.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mid_log_gap_quarantines_the_whole_shard() {
    // 80 events put 40 synced records in shard 0's WAL and trim its redo
    // buffer to that durable floor; damaging record 3's payload then makes
    // replay stop at record 2, far short of where the buffer resumes.
    lost_history_run("gap", 60, 80, |dir| {
        let record = stq_durability::wal::RECORD_LEN;
        flip_byte(&dir.join("shard-0").join("wal.log"), 2 * record + 8 + 10);
    });
}

#[test]
fn a_poison_window_is_answered_around_then_served_exactly() {
    // Shard 0's sensor firmware panics on its first 6 queries (a persistent
    // fault window, not per-message bad luck). Each panicked request is
    // answered as such and widens the bracket by shard 0's edges; the
    // worker keeps serving on its own thread, so the window burns down and
    // serving then returns to exact without a respawn.
    let f = fixture();
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 1,
        shard_timeout: Duration::from_millis(50),
        max_retries: 1,
        fault: FaultPlan::none().with_poison_window(CrashWindow {
            node: 0,
            after_messages: 0,
            lasts_messages: 6,
        }),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let oracle = &f.scenario.tracked.store;

    let all: Vec<QuerySpec> =
        specs(f, 8, 91).into_iter().filter(|s| sync_value(f, oracle, s).is_some()).collect();
    assert!(all.len() >= 10, "need enough covered queries to outlast the fault window");
    let mut healed = false;
    for spec in &all {
        let served = rt.query(spec.clone());
        let exact = sync_value(f, oracle, spec).unwrap();
        assert!(
            served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9,
            "every answer while shard 0 panics must stay sound"
        );
        if served.coverage == 1.0 {
            assert_eq!(served.value.to_bits(), exact.to_bits());
            healed = true;
        }
    }
    assert!(healed, "the fault window must end and exact serving resume");
    let served = rt.query(all[0].clone());
    assert_eq!(served.coverage, 1.0, "the shard must serve again");

    let report = rt.metrics().report();
    assert!(report.shard_panics >= 1, "the poison window must fire: {report}");
    assert_eq!(report.shard_respawns, 0, "a panicking shard is answered, not respawned");
    assert_eq!(report.plan_invalidations, 0, "panics must not drop cached plans");
    assert!(rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy));
    rt.shutdown();
}

#[test]
fn a_shard_panicking_between_ingests_keeps_its_state() {
    // The fault window of `a_poison_window_is_answered_around_then_served_exactly`,
    // but on a shard that is ingesting: shard 0 panics on queries queued
    // between lanes, with more of the stream still to come. A panic costs
    // the query its exactness and the shard nothing: its state is the
    // unfaulted run's, with or without a disk, and nothing is rebuilt.
    let f = fixture();
    let ne = f.scenario.sensing.num_edges();
    let events = stream(ne, 900);
    let ns = 2;

    let rt_ref = runtime(f, RuntimeConfig { num_shards: ns, ..RuntimeConfig::default() });
    rt_ref.ingest_batch(&events);
    rt_ref.flush_ingest();
    let want = rt_ref.shard_digests();
    rt_ref.shutdown();

    let all: Vec<QuerySpec> = specs(f, 8, 91)
        .into_iter()
        .filter(|s| sync_value(f, &f.scenario.tracked.store, s).is_some())
        .collect();
    for durable in [false, true] {
        eprintln!("durability {durable}");
        let dir = tmpdir("panic");
        let none = DurabilityFaultPlan::none();
        let rt = runtime(
            f,
            RuntimeConfig {
                num_shards: ns,
                dispatchers: 1,
                shard_timeout: Duration::from_millis(50),
                max_retries: 1,
                fault: FaultPlan::none().with_poison_window(CrashWindow {
                    node: 0,
                    after_messages: 0,
                    lasts_messages: 6,
                }),
                durability: if durable { durable_cfg(&dir, 192, none) } else { None },
                ..RuntimeConfig::default()
            },
        );
        // The oracle advances with the stream: a query sent after an ingest
        // call returned queues behind those events on every shard it asks.
        let mut oracle = f.scenario.tracked.store.clone();
        let mut asked = all.iter().cycle();
        let (first, rest) = events.split_at(500);
        for chunk in std::iter::once(first).chain(rest.chunks(50)) {
            assert_eq!(rt.ingest_batch(chunk).accepted, chunk.len());
            for c in chunk {
                oracle.record(c.edge, c.forward, c.time);
            }
            for spec in asked.by_ref().take(2) {
                let served = rt.query(spec.clone());
                let exact = sync_value(f, &oracle, spec).unwrap();
                assert!(
                    served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9,
                    "[{}, {}] must bracket {exact} while shard 0 panics",
                    served.lower,
                    served.upper
                );
            }
        }
        assert_eq!(rt.flush_ingest().iter().sum::<u64>(), events.len() as u64);
        assert_eq!(rt.shard_digests(), want, "a panicking shard's state must be byte-identical");
        for spec in &all {
            let served = rt.query(spec.clone());
            assert_eq!(served.coverage, 1.0, "the fault window is over: every shard serves");
            assert_eq!(served.value.to_bits(), sync_value(f, &oracle, spec).unwrap().to_bits());
        }

        let report = rt.metrics().report();
        assert!(report.shard_panics >= 1, "the poison window must fire: {report}");
        assert_eq!(report.shard_respawns, 0, "a panicking shard is answered, not respawned");
        assert_eq!(
            (report.redo_replayed, report.wal_replayed),
            (0, 0),
            "a panic rebuilds nothing: {report}"
        );
        assert!(rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy));
        rt.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn queries_during_recovery_stay_sound_and_fast() {
    // Every request to every shard panics (poison probability 1). Queries
    // issued throughout must neither hang nor return unsound values: a
    // panicked reply ends its shard's wait at once, and its edges degrade
    // to their worst-case interval.
    let f = fixture();
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 2,
        shard_timeout: Duration::from_secs(2),
        max_retries: 1,
        fault: FaultPlan::none().with_poison(1.0),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let oracle = &f.scenario.tracked.store;
    let start = std::time::Instant::now();
    let mut covered = 0usize;
    for spec in specs(f, 5, 103) {
        let served = rt.query(spec.clone());
        let Some(exact) = sync_value(f, oracle, &spec) else {
            continue;
        };
        covered += 1;
        assert!(served.degraded, "poisoned shards cannot produce exact answers");
        assert!(served.lower <= exact + 1e-9 && exact <= served.upper + 1e-9);
    }
    assert!(covered > 0);
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "a panicked reply must end the wait instead of a serial timeout"
    );
    rt.shutdown();
}

/// This process's mapped address space in KiB (`VmSize`).
#[cfg(target_os = "linux")]
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmSize:")).expect("VmSize line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn respawns_do_not_pile_up_thread_stacks() {
    // A durable shard killed a thousand times, once inside every lane of
    // three events. An exited thread keeps its stack (2 MiB) mapped until
    // somebody joins it, so the supervisor has to join each incarnation it
    // replaces instead of collecting handles until shutdown.
    const KILLS: u64 = 1_000;
    let f = fixture();
    let events = stream(f.scenario.sensing.num_edges(), 3 * KILLS as usize);
    let dir = tmpdir("stacks");
    let kills: Vec<(usize, u64)> = (1..=KILLS).map(|k| (0, 3 * k - 1)).collect();
    let faults = DurabilityFaultPlan::killing(0x57ac_c0de, &kills);
    let cfg = RuntimeConfig {
        num_shards: 1,
        durability: durable_cfg(&dir, 64, faults),
        ..RuntimeConfig::default()
    };
    let rt = runtime(f, cfg);
    let before = vm_size_kib();
    for lane in events.chunks(3) {
        assert_eq!(rt.ingest_batch(lane).accepted, lane.len());
        rt.flush_ingest();
    }
    let grown = vm_size_kib().saturating_sub(before);
    let respawns = rt.metrics().report().shard_respawns;
    assert!(respawns >= KILLS, "only {respawns} respawns");
    assert!(grown < 1024 * respawns, "{grown} KiB more mapped after {respawns} respawns");
    eprintln!("{grown} KiB more mapped after {respawns} respawns");
    assert_eq!(rt.flush_ingest(), [events.len() as u64]);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
