//! Plan/execute split benchmark for the `QueryEngine`: batched execution
//! against cold vs warm plan caches, compared with the scalar
//! recompile-every-query `answer` path, plus a plan-cache hit-rate sweep
//! and the 8-shard runtime serving the same repeated-region workload with
//! the cache on and off. Emits `results/BENCH_engine.json`.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin engine_sweep [-- --quick]
//! ```
//!
//! The interesting regime is repeated regions: dashboards and monitors ask
//! the same handful of rectangles over and over with moving time windows.
//! Compiling a plan (region resolution + boundary walk) costs far more
//! than executing it (a `partition_point` fold over the perimeter), so a
//! warm cache turns every query into just the fold — that is where the
//! batched/warm speedup over the scalar path comes from, independent of
//! core count.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use stq_bench::SEEDS;
use stq_core::prelude::*;
use stq_forms::CountSource;
use stq_runtime::{QuerySpec, Runtime, RuntimeConfig, ServedAnswer};

/// A repeated-region workload: `distinct` resolvable regions, each asked
/// `reps` times with all three query kinds.
struct Workload {
    regions: Vec<(QueryRegion, f64, f64)>,
    /// Flattened (region index, kind) request stream.
    requests: Vec<(usize, QueryKind)>,
}

fn build_workload(s: &Scenario, g: &SampledGraph, distinct: usize, reps: usize) -> Workload {
    let mut regions = Vec::new();
    let mut salt = 0u64;
    while regions.len() < distinct && salt < 64 {
        salt += 1;
        for (region, t0, t1) in s.make_queries(distinct, 0.02, 2_000.0, SEEDS[0] ^ (0xe0 + salt)) {
            let plan = QueryPlan::compile(&s.sensing, g, &region, Approximation::Lower);
            if plan.miss || plan.boundary.is_empty() {
                continue;
            }
            regions.push((region, t0, t1));
            if regions.len() >= distinct {
                break;
            }
        }
    }
    assert!(!regions.is_empty(), "no resolvable regions found");
    let mut requests = Vec::new();
    for _ in 0..reps {
        for (i, (_, t0, t1)) in regions.iter().enumerate() {
            for kind in [
                QueryKind::Snapshot(*t0),
                QueryKind::Transient(*t0, *t1),
                QueryKind::Static(*t0, *t1),
            ] {
                requests.push((i, kind));
            }
        }
    }
    Workload { regions, requests }
}

/// Scalar baseline: recompile + fold per request, exactly what callers did
/// before the engine existed.
fn time_scalar(s: &Scenario, g: &SampledGraph, w: &Workload) -> (f64, f64) {
    let start = Instant::now();
    let mut sum = 0.0;
    for &(i, kind) in &w.requests {
        let o =
            answer(&s.sensing, g, &s.tracked.store, &w.regions[i].0, kind, Approximation::Lower);
        sum += o.value;
    }
    let elapsed = start.elapsed().as_secs_f64();
    (w.requests.len() as f64 / elapsed, std::hint::black_box(sum))
}

/// Engine path: obtain a plan per request (cache hit or compile, depending
/// on `capacity` and warm-up), then execute the whole batch.
fn time_engine<S: CountSource + Sync + ?Sized>(
    s: &Scenario,
    g: &SampledGraph,
    w: &Workload,
    store: &S,
    capacity: usize,
    warm: bool,
) -> (f64, f64, EngineStats) {
    let engine = QueryEngine::new(capacity);
    if warm {
        for (q, _, _) in &w.regions {
            engine.plan(&s.sensing, g, q, Approximation::Lower);
        }
    }
    let start = Instant::now();
    let mut batch = Vec::with_capacity(w.requests.len());
    for &(i, kind) in &w.requests {
        let (plan, _) = engine.plan(&s.sensing, g, &w.regions[i].0, Approximation::Lower);
        batch.push((plan, kind));
    }
    let outcomes = engine.execute_batch(store, &batch);
    let elapsed = start.elapsed().as_secs_f64();
    let sum: f64 = outcomes.iter().map(|o| o.value).sum();
    (w.requests.len() as f64 / elapsed, std::hint::black_box(sum), engine.stats())
}

/// Plan-cache hit rate under a skewed access pattern (80% of lookups hit
/// the hottest 20% of regions) for a sweep of cache capacities.
fn hit_rate_sweep(
    s: &Scenario,
    g: &SampledGraph,
    w: &Workload,
    capacities: &[usize],
    lookups: usize,
) -> Vec<(usize, f64)> {
    let hot = (w.regions.len() / 5).max(1);
    let mut rng = StdRng::seed_from_u64(SEEDS[0] ^ 0x77);
    let seq: Vec<usize> = (0..lookups)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..w.regions.len())
            }
        })
        .collect();
    capacities
        .iter()
        .map(|&cap| {
            let engine = QueryEngine::new(cap);
            for &i in &seq {
                engine.plan(&s.sensing, g, &w.regions[i].0, Approximation::Lower);
            }
            let st = engine.stats();
            (cap, st.hits as f64 / (st.hits + st.misses).max(1) as f64)
        })
        .collect()
}

/// One runtime cell: the 8-shard config serving the repeated-region
/// workload with a given plan-cache capacity.
struct RuntimeOutcome {
    throughput: f64,
    plan_hits: u64,
    plan_misses: u64,
    plan_p95_us: u64,
    execute_p95_us: u64,
    cached_plans: usize,
}

fn run_runtime(s: &Scenario, g: &SampledGraph, w: &Workload, plan_cache: usize) -> RuntimeOutcome {
    let cfg = RuntimeConfig {
        num_shards: 8,
        dispatchers: 8,
        queue_capacity: 64,
        shard_timeout: Duration::from_millis(1_000),
        max_retries: 1,
        plan_cache,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(s.sensing.clone(), g.clone(), &s.tracked.store, cfg);
    let specs: Vec<QuerySpec> = w
        .requests
        .iter()
        .map(|&(i, kind)| QuerySpec {
            region: w.regions[i].0.clone(),
            kind,
            approx: Approximation::Lower,
            deadline: None,
        })
        .collect();
    let start = Instant::now();
    let pending: Vec<_> = specs.into_iter().map(|spec| rt.submit(spec)).collect();
    let answers: Vec<ServedAnswer> = pending.into_iter().map(|p| p.wait()).collect();
    let elapsed = start.elapsed().as_secs_f64();
    let report = rt.metrics().report();
    let stats = rt.engine_stats();
    rt.shutdown();
    RuntimeOutcome {
        throughput: answers.len() as f64 / elapsed,
        plan_hits: report.plan_cache_hits,
        plan_misses: report.plan_cache_misses,
        plan_p95_us: report.plan_p95_us,
        execute_p95_us: report.execute_p95_us,
        cached_plans: stats.cached,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (junctions, objects, distinct, reps) =
        if quick { (150, 45, 12, 8) } else { (400, 150, 32, 12) };

    let s = Scenario::build(ScenarioConfig {
        junctions,
        mix: WorkloadMix {
            random_waypoint: objects / 3,
            commuter: objects / 3,
            transit: objects - 2 * (objects / 3),
        },
        seed: SEEDS[0],
        ..Default::default()
    });
    let cands = s.sensing.sensor_candidates();
    let ids = stq_sampling::sample(
        stq_sampling::SamplingMethod::QuadTree,
        &cands,
        cands.len() / 4,
        SEEDS[0] ^ 0x51,
    );
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);

    let w = build_workload(&s, &g, distinct, reps);
    println!(
        "# engine_sweep — {} junctions, {} distinct regions x {} reps x 3 kinds = {} requests",
        junctions,
        w.regions.len(),
        reps,
        w.requests.len()
    );

    // ------------------------------------------------------------------
    // 1. Batched engine vs scalar path on the repeated-region stream.
    let (scalar_qps, scalar_sum) = time_scalar(&s, &g, &w);
    let (cold_qps, cold_sum, _) = time_engine(&s, &g, &w, &s.tracked.store, 0, false);
    let (warm_qps, warm_sum, warm_stats) = time_engine(&s, &g, &w, &s.tracked.store, 256, true);
    assert_eq!(scalar_sum.to_bits(), cold_sum.to_bits(), "cold batch must match scalar");
    assert_eq!(scalar_sum.to_bits(), warm_sum.to_bits(), "warm batch must match scalar");
    let speedup_warm = warm_qps / scalar_qps.max(1e-9);
    println!("\n## batched vs scalar (same answers, bit-identical)");
    println!("{:<26} | {:>12} | {:>8}", "path", "tput q/s", "speedup");
    for (label, qps) in [
        ("scalar answer()", scalar_qps),
        ("engine, cold cache", cold_qps),
        ("engine, warm cache", warm_qps),
    ] {
        println!("{label:<26} | {:>12.0} | {:>7.2}x", qps, qps / scalar_qps.max(1e-9));
    }
    println!(
        "warm cache: {} hits / {} misses ({} plans resident)",
        warm_stats.hits, warm_stats.misses, warm_stats.cached
    );

    // ------------------------------------------------------------------
    // 2. Hit-rate sweep over cache capacities (80/20 skewed lookups).
    let caps = [0usize, 2, 4, 8, 16, 32, 64];
    let lookups = if quick { 400 } else { 2_000 };
    let sweep = hit_rate_sweep(&s, &g, &w, &caps, lookups);
    println!("\n## plan-cache hit rate, 80/20 skewed access over {} regions", w.regions.len());
    println!("{:<10} | {:>8}", "capacity", "hit rate");
    for &(cap, rate) in &sweep {
        println!("{cap:<10} | {:>7.1}%", 100.0 * rate);
    }

    // ------------------------------------------------------------------
    // 3. The 8-shard runtime with the plan cache off vs on.
    println!("\n## 8-shard runtime, plan cache off vs on");
    let rt_off = run_runtime(&s, &g, &w, 0);
    let rt_on = run_runtime(&s, &g, &w, 256);
    println!(
        "{:<18} | {:>10} | {:>10} | {:>10} | {:>12} | {:>14}",
        "plan cache", "tput q/s", "plan hits", "misses", "plan p95 µs", "execute p95 µs"
    );
    for (label, o) in [("off (0)", &rt_off), ("on (256)", &rt_on)] {
        println!(
            "{label:<18} | {:>10.0} | {:>10} | {:>10} | {:>12} | {:>14}",
            o.throughput, o.plan_hits, o.plan_misses, o.plan_p95_us, o.execute_p95_us
        );
    }

    println!(
        "\nrepeated-region warm-batch speedup over the scalar path: {:.2}x \
         (plan reuse; compile = resolve + boundary walk, execute = perimeter fold)",
        speedup_warm
    );

    // ------------------------------------------------------------------
    // JSON artifact.
    let mut sweep_rows = String::new();
    for &(cap, rate) in &sweep {
        let _ = write!(
            sweep_rows,
            "{}    {{\"capacity\": {cap}, \"hit_rate\": {rate:.4}}}",
            if sweep_rows.is_empty() { "" } else { ",\n" }
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_sweep\",\n  \"quick\": {quick},\n  \"scenario\": \
         {{\"junctions\": {junctions}, \"objects\": {objects}, \"seed\": {}}},\n  \"workload\": \
         {{\"distinct_regions\": {}, \"reps\": {reps}, \"requests\": {}}},\n  \"throughput_qps\": \
         {{\"scalar\": {scalar_qps:.1}, \"engine_cold\": {cold_qps:.1}, \"engine_warm\": \
         {warm_qps:.1}}},\n  \
         \"speedup_warm_batched_vs_scalar\": {speedup_warm:.3},\n  \"hit_rate_sweep\": [\n{}\n  ],\n  \
         \"runtime_8_shard\": [\n    {{\"plan_cache\": 0, \"throughput_qps\": {:.1}, \
         \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \"plan_p95_us\": {}, \
         \"execute_p95_us\": {}, \"cached_plans\": {}}},\n    {{\"plan_cache\": 256, \
         \"throughput_qps\": {:.1}, \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \
         \"plan_p95_us\": {}, \"execute_p95_us\": {}, \"cached_plans\": {}}}\n  ]\n}}\n",
        SEEDS[0],
        w.regions.len(),
        w.requests.len(),
        sweep_rows,
        rt_off.throughput,
        rt_off.plan_hits,
        rt_off.plan_misses,
        rt_off.plan_p95_us,
        rt_off.execute_p95_us,
        rt_off.cached_plans,
        rt_on.throughput,
        rt_on.plan_hits,
        rt_on.plan_misses,
        rt_on.plan_p95_us,
        rt_on.execute_p95_us,
        rt_on.cached_plans,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("wrote results/BENCH_engine.json");
}
