//! Write-path sweep of the sharded runtime: columnar batched ingest and
//! load-aware shard rebalancing. Three parts:
//!
//! (a) hotspot skew — the same 1M-object / 10M-crossing stream (80% of the
//! traffic on 64 hot edges that all start on shard 0) routed by the static
//! modulo assignment vs the rebalancing `ShardMap`; reports events/sec and the
//! per-shard load imbalance (`max/mean − 1`), asserting the load-aware map
//! lands at most half the modulo imbalance;
//!
//! (b) batch-size scaling — durable ingest at batch sizes 1/64/256/1024,
//! showing the group-commit effect (one WAL frame + one sync per batch);
//!
//! (c) migration-then-crash-then-recover — durable load-aware ingest with
//! scheduled mid-stream kill -9s after migrations have moved edges, digest-
//! compared against an unkilled run of the same configuration, with every
//! post-recovery answer bracket-checked against a synchronous oracle. Both
//! the digest-mismatch and soundness counters must be zero.
//!
//! Emits `results/BENCH_ingest.json` plus a human-readable table.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin ingest_sweep [-- --quick] [--seed N]
//! ```
//!
//! `--seed` re-keys the kill draws, so a CI matrix over seeds exercises
//! different crash cuts against the same assertions.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use stq_bench::SEEDS;
use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_core::tracker::Crossing;
use stq_forms::FormStore;
use stq_runtime::{
    DurabilityConfig, DurabilityFaultPlan, QuerySpec, RebalanceConfig, Runtime, RuntimeConfig,
    ServedAnswer,
};

const NUM_SHARDS: usize = 4;
const HOT_EDGES: usize = 64;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stq-ingest-sweep-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create bench wal dir");
    d
}

/// The hotspot-skewed object population: event `i` belongs to object
/// `i % objects`; 80% of the objects are commuters pinned to one of
/// [`HOT_EDGES`] hot edges that all start on shard 0 under the modulo
/// assignment (`edge % NUM_SHARDS == 0`), the rest wander the whole graph.
/// Pure function of `i`, so identical streams can be regenerated chunk by
/// chunk without materializing 10M crossings.
struct Skew {
    num_edges: usize,
    objects: usize,
    hot: Vec<usize>,
}

impl Skew {
    fn new(num_edges: usize, objects: usize) -> Self {
        let hot: Vec<usize> = (0..num_edges).step_by(NUM_SHARDS).take(HOT_EDGES).collect();
        assert_eq!(hot.len(), HOT_EDGES, "graph too small for the hotspot population");
        Skew { num_edges, objects, hot }
    }

    fn event(&self, i: usize) -> Crossing {
        let o = i % self.objects;
        let edge = if o % 5 != 0 {
            self.hot[o % HOT_EDGES]
        } else {
            (o.wrapping_mul(7919) + (i / self.objects).wrapping_mul(31)) % self.num_edges
        };
        Crossing { time: 10_000.0 + i as f64 * 1e-3, edge, forward: i % 3 != 0 }
    }
}

/// `max / mean − 1` over the per-shard routed-event counts.
fn imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean > 0.0 {
        max / mean - 1.0
    } else {
        0.0
    }
}

struct IngestOutcome {
    elapsed: f64,
    loads: Vec<u64>,
    map_epoch: u64,
    rebalances: u64,
    edges_migrated: u64,
    wal_appends: u64,
    wal_group_commits: u64,
}

/// Streams `n` skewed events through one runtime in `batch`-sized
/// `ingest_batch` calls (`batch == 1` uses the per-event path), flushes,
/// and reports throughput plus routing/durability accounting.
fn ingest_once(
    s: &Scenario,
    g: &SampledGraph,
    skew: &Skew,
    n: usize,
    batch: usize,
    cfg: RuntimeConfig,
) -> IngestOutcome {
    let rt = Runtime::new(s.sensing.clone(), g.clone(), &s.tracked.store, cfg);
    let mut buf = Vec::with_capacity(batch);
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < n {
        if batch == 1 {
            rt.ingest(skew.event(i)).expect("ingest");
            i += 1;
            continue;
        }
        buf.clear();
        let k = batch.min(n - i);
        buf.extend((i..i + k).map(|j| skew.event(j)));
        let report = rt.ingest_batch(&buf);
        assert_eq!(report.rejected, 0, "the synthetic stream is well-formed");
        i += k;
    }
    rt.flush_ingest();
    let elapsed = t0.elapsed().as_secs_f64();
    let loads = rt.shard_loads();
    let report = rt.metrics().report();
    let out = IngestOutcome {
        elapsed,
        loads,
        map_epoch: report.map_epoch,
        rebalances: report.rebalances,
        edges_migrated: report.edges_migrated,
        wal_appends: report.wal_appends,
        wal_group_commits: report.wal_group_commits,
    };
    rt.shutdown();
    out
}

/// Queries exercising both the pre-recorded era and the ingested one.
fn specs(s: &Scenario, n: usize, seed: u64) -> Vec<QuerySpec> {
    s.make_queries(n, 0.15, 1_500.0, seed)
        .into_iter()
        .flat_map(|(region, t0, t1)| {
            [
                QueryKind::Snapshot(t0),
                QueryKind::Snapshot(10_050.0),
                QueryKind::Transient(t0, 10_100.0),
                QueryKind::Static(t1, 10_080.0),
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

fn sync_value(s: &Scenario, g: &SampledGraph, oracle: &FormStore, spec: &QuerySpec) -> Option<f64> {
    let plan = QueryPlan::compile(&s.sensing, g, &spec.region, spec.approx);
    if plan.miss {
        return None;
    }
    Some(evaluate(oracle, &plan.boundary, spec.kind))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let argv: Vec<String> = std::env::args().collect();
    let chaos_seed: u64 = argv
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| argv.get(i + 1))
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(SEEDS[0]);
    let (junctions, sim_objects, objects, skew_events, scale_events, crash_events, query_regions) =
        if quick {
            (150, 45, 50_000, 600_000, 120_000, 40_000, 6)
        } else {
            (400, 150, 1_000_000, 10_000_000, 1_000_000, 200_000, 12)
        };

    let scenario = Scenario::build(ScenarioConfig {
        junctions,
        mix: WorkloadMix {
            random_waypoint: sim_objects / 3,
            commuter: sim_objects / 3,
            transit: sim_objects - 2 * (sim_objects / 3),
        },
        seed: SEEDS[0],
        ..Default::default()
    });
    let cands = scenario.sensing.sensor_candidates();
    let ids = stq_sampling::sample(
        stq_sampling::SamplingMethod::QuadTree,
        &cands,
        cands.len() / 4,
        SEEDS[0] ^ 0x51,
    );
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled =
        SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
    let ne = scenario.sensing.num_edges();
    let skew = Skew::new(ne, objects);
    println!(
        "# ingest_sweep — {junctions} junctions, {ne} edges, {NUM_SHARDS} shards, \
         {objects} objects, {HOT_EDGES} hot edges"
    );

    // ---- Part A: hotspot skew, modulo vs load-aware ---------------------
    let base = RuntimeConfig { num_shards: NUM_SHARDS, ..RuntimeConfig::default() };
    let balanced = RuntimeConfig {
        num_shards: NUM_SHARDS,
        rebalance: Some(RebalanceConfig::default()),
        ..RuntimeConfig::default()
    };
    let om = ingest_once(&scenario, &sampled, &skew, skew_events, 1024, base.clone());
    let la = ingest_once(&scenario, &sampled, &skew, skew_events, 1024, balanced.clone());
    let (im_mod, im_la) = (imbalance(&om.loads), imbalance(&la.loads));
    println!(
        "\nhotspot skew ({skew_events} events, batch 1024):\n\
         {:>10} | {:>10} | {:>10} | {:>6} | {:>10} | {:>6} | shard loads\n\
         {:>10} | {:>10.0} | {:>10.3} | {:>6} | {:>10} | {:>6} | {:?}\n\
         {:>10} | {:>10.0} | {:>10.3} | {:>6} | {:>10} | {:>6} | {:?}",
        "map",
        "events/s",
        "imbalance",
        "epoch",
        "rebalances",
        "moved",
        "modulo",
        skew_events as f64 / om.elapsed,
        im_mod,
        om.map_epoch,
        om.rebalances,
        om.edges_migrated,
        om.loads,
        "loadaware",
        skew_events as f64 / la.elapsed,
        im_la,
        la.map_epoch,
        la.rebalances,
        la.edges_migrated,
        la.loads,
    );
    assert!(la.map_epoch >= 1 && la.rebalances >= 1, "the skew must trigger migrations");
    assert_eq!(om.map_epoch, 0, "the modulo map never migrates");
    assert!(
        im_la <= 0.5 * im_mod,
        "load-aware imbalance {im_la:.3} must be at most half of modulo {im_mod:.3}"
    );

    // ---- Part B: batch-size scaling under durability --------------------
    println!(
        "\ndurable batch scaling ({scale_events} events):\n{:>6} | {:>10} | {:>11} | {:>13}",
        "batch", "events/s", "wal appends", "group commits"
    );
    let mut scale_rows = String::new();
    for &batch in &[1usize, 64, 256, 1024] {
        let dir = tmpdir(&format!("scale-{batch}"));
        let cfg = RuntimeConfig {
            num_shards: NUM_SHARDS,
            durability: Some(DurabilityConfig::new(dir.clone())),
            ..RuntimeConfig::default()
        };
        let o = ingest_once(&scenario, &sampled, &skew, scale_events, batch, cfg);
        let _ = std::fs::remove_dir_all(&dir);
        let evps = scale_events as f64 / o.elapsed;
        println!("{batch:>6} | {evps:>10.0} | {:>11} | {:>13}", o.wal_appends, o.wal_group_commits);
        assert_eq!(o.wal_appends, scale_events as u64, "every event must reach the WAL");
        if batch > 1 {
            assert!(o.wal_group_commits > 0, "batched ingest must group-commit");
        }
        let _ = write!(
            scale_rows,
            "{}    {{\"batch\": {batch}, \"events\": {scale_events}, \"events_per_sec\": {evps:.0}, \
             \"wal_appends\": {}, \"wal_group_commits\": {}}}",
            if scale_rows.is_empty() { "" } else { ",\n" },
            o.wal_appends,
            o.wal_group_commits
        );
    }

    // ---- Part C: migration, then crash, then recovery -------------------
    // Reference and killed runs share the stream, the batch chunking, and
    // the rebalance configuration, so their migration schedules coincide
    // (planning is keyed on routed-event counts, not wall clock); the flush
    // after every batch serializes recovery before the next migration
    // window. The killed run must reproduce the reference digests exactly.
    let batch = 256usize;
    let run_crash = |kills: &[(usize, u64)], tag: &str| -> (Vec<u64>, u64, u64, u64) {
        let dir = tmpdir(tag);
        let cfg = RuntimeConfig {
            num_shards: NUM_SHARDS,
            rebalance: Some(RebalanceConfig::default()),
            durability: Some(DurabilityConfig {
                wal_dir: dir.clone(),
                snapshot_every: 1024,
                sync_every: 32,
                faults: if kills.is_empty() {
                    DurabilityFaultPlan::none()
                } else {
                    DurabilityFaultPlan::killing(chaos_seed ^ 0xd00d, kills)
                },
            }),
            ..RuntimeConfig::default()
        };
        let rt =
            Runtime::new(scenario.sensing.clone(), sampled.clone(), &scenario.tracked.store, cfg);
        let mut buf = Vec::with_capacity(batch);
        let mut i = 0usize;
        while i < crash_events {
            buf.clear();
            let k = batch.min(crash_events - i);
            buf.extend((i..i + k).map(|j| skew.event(j)));
            rt.ingest_batch(&buf);
            rt.flush_ingest();
            i += k;
        }
        let digests = rt.shard_digests();
        let report = rt.metrics().report();
        let out = (digests, report.rebalances, report.shard_respawns, report.map_epoch);

        if !kills.is_empty() {
            // Bracket-check every served answer against the synchronous
            // oracle: recovery must stay invisible to soundness.
            let mut oracle = scenario.tracked.store.clone();
            for j in 0..crash_events {
                let c = skew.event(j);
                oracle.record(c.edge, c.forward, c.time);
            }
            let mut unsound = 0usize;
            let queries = specs(&scenario, query_regions, SEEDS[0] ^ 0x71);
            for spec in &queries {
                let served: ServedAnswer = rt.query(spec.clone());
                match sync_value(&scenario, &sampled, &oracle, spec) {
                    None => unsound += usize::from(!served.miss),
                    Some(exact) => {
                        let ok = !served.miss
                            && served.lower <= exact + 1e-9
                            && exact <= served.upper + 1e-9;
                        unsound += usize::from(!ok);
                    }
                }
            }
            assert_eq!(unsound, 0, "every post-recovery answer must bracket the oracle");
        }
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        out
    };

    let (want, ref_rebalances, _, _) = run_crash(&[], "crash-ref");
    assert!(ref_rebalances >= 1, "the crash cell's stream must trigger migrations");
    // Kill the initial hotspot shard shortly after the first migration
    // window, and later a shard the migrations moved hot edges *onto*
    // (post-migration each shard sees roughly a quarter of the stream, so
    // an eighth of the total is safely inside its per-shard sequence).
    let kills = [(0usize, 3_000u64), (1usize, (crash_events as u64) / 8)];
    let (got, rebalances, respawns, map_epoch) = run_crash(&kills, "crash-kill");
    let digest_mismatches = want.iter().zip(&got).filter(|(a, b)| a != b).count();
    println!(
        "\nmigration+crash+recovery ({crash_events} events, kills {kills:?}): \
         rebalances {rebalances}, respawns {respawns}, epoch {map_epoch}, \
         digest mismatches {digest_mismatches}, soundness violations 0"
    );
    assert!(rebalances >= 1, "migrations must have happened before and after the kills");
    assert!(respawns >= kills.len() as u64, "every scheduled kill must trigger a respawn");
    assert_eq!(digest_mismatches, 0, "recovered shards must match the unkilled reference");

    let json = format!(
        "{{\n  \"bench\": \"ingest_sweep\",\n  \"quick\": {quick},\n  \"chaos_seed\": {chaos_seed},\n  \
         \"objects\": {objects},\n  \"events\": {skew_events},\n  \"scenario\": \
         {{\"junctions\": {junctions}, \"edges\": {ne}, \"shards\": {NUM_SHARDS}, \
         \"hot_edges\": {HOT_EDGES}, \"seed\": {}}},\n  \
         \"skew\": {{\"events\": {skew_events}, \"batch\": 1024, \
         \"modulo_events_per_sec\": {:.0}, \"loadaware_events_per_sec\": {:.0}, \
         \"modulo_imbalance\": {im_mod:.4}, \"loadaware_imbalance\": {im_la:.4}, \
         \"modulo_loads\": {:?}, \"loadaware_loads\": {:?}, \
         \"map_epoch\": {}, \"rebalances\": {}, \"edges_migrated\": {}}},\n  \
         \"batch_scaling\": [\n{scale_rows}\n  ],\n  \
         \"crash\": {{\"events\": {crash_events}, \"batch\": {batch}, \"kills\": {}, \
         \"rebalances\": {rebalances}, \"respawns\": {respawns}, \"map_epoch\": {map_epoch}, \
         \"digest_mismatches\": {digest_mismatches}, \"soundness_violations\": 0, \
         \"queries\": {}}}\n}}\n",
        SEEDS[0],
        skew_events as f64 / om.elapsed,
        skew_events as f64 / la.elapsed,
        om.loads,
        la.loads,
        la.map_epoch,
        la.rebalances,
        la.edges_migrated,
        kills.len(),
        query_regions * 4,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    println!("\nall gates passed; wrote results/BENCH_ingest.json");
}
