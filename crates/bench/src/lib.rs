//! # stq-bench
//!
//! The experiment harness reproducing every figure of the paper's §5.
//!
//! Each `fig*` binary regenerates one figure's series as plain-text tables:
//! medians with P25–P75 bands over several seeds, exactly the statistic the
//! paper plots (§5.1.1). The binaries share this library: one "paper-scale"
//! scenario, one selector-method enumeration, and one parallel runner.
//!
//! Absolute numbers differ from the paper (synthetic city and fleet instead
//! of Beijing + T-Drive/Geolife; a laptop instead of a 48-core Xeon); the
//! *shapes* — orderings, crossovers, plateaus — are the reproduction target.

use std::collections::HashSet;

use stq_baseline::BaselineIndex;
use stq_core::prelude::*;
use stq_core::query::QueryRegion;
use stq_sampling::SamplingMethod;

/// One robust summary of repeated measurements (paper §5.1.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// The 50th percentile.
    pub median: f64,
    /// The 25th percentile.
    pub p25: f64,
    /// The 75th percentile.
    pub p75: f64,
    /// Number of finite samples summarized.
    pub n: usize,
}

/// Computes median and quartiles; returns default for empty input.
pub fn stats(values: &[f64]) -> Stats {
    if values.is_empty() {
        return Stats::default();
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return Stats::default();
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
        }
    };
    Stats { median: q(0.5), p25: q(0.25), p75: q(0.75), n: v.len() }
}

/// Prints one experiment table: rows = x-axis values, columns = series.
pub fn print_table(title: &str, xlabel: &str, xs: &[f64], series: &[(String, Vec<Stats>)]) {
    println!("\n## {title}");
    print!("{xlabel:>12}");
    for (label, _) in series {
        print!(" | {label:>24}");
    }
    println!();
    print!("{:->12}", "");
    for _ in series {
        print!("-+-{:->24}", "");
    }
    println!();
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>12.4}");
        for (_, col) in series {
            let s = col.get(i).copied().unwrap_or_default();
            if s.n == 0 {
                print!(" | {:>24}", "(no data)");
            } else {
                print!(" | {:>8.4} [{:>6.4},{:>6.4}]", s.median, s.p25, s.p75);
            }
        }
        println!();
    }
}

/// The method axis of the figures: the five oblivious sampling strategies,
/// the query-adaptive submodular method, and the Euler-histogram baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// A query-oblivious sampling strategy (§4.3).
    Sampling(SamplingMethod),
    /// Query-adaptive submodular maximization (§4.4).
    Submodular,
    /// The Euler-histogram + face-sampling baseline (§5.1.2).
    Baseline,
}

impl Method {
    /// All methods, in the order the paper's legends list them.
    pub fn all() -> Vec<Method> {
        let mut v: Vec<Method> = SamplingMethod::ALL.iter().map(|&m| Method::Sampling(m)).collect();
        v.push(Method::Submodular);
        v.push(Method::Baseline);
        v
    }

    /// Human-readable legend label.
    pub fn label(&self) -> String {
        match self {
            Method::Sampling(m) => m.label().to_string(),
            Method::Submodular => "submodular".into(),
            Method::Baseline => "baseline".into(),
        }
    }
}

/// The graph-size axis of the paper's figures: fractions of the sensing
/// graph's sensors (§5.2 sweeps 0.4%–51.2% in doublings).
pub const GRAPH_SIZES: [f64; 8] = [0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512];

/// The query-area axis (fraction of the total sensing area); the paper fixes
/// 1.08% for size sweeps and varies area elsewhere.
pub const QUERY_AREAS: [f64; 6] = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16];

/// Default fixed query area for graph-size sweeps (≈ the paper's 1.08%).
pub const FIXED_QUERY_AREA: f64 = 0.0108;

/// Default fixed graph size for query-area sweeps (the paper's 6%).
pub const FIXED_GRAPH_SIZE: f64 = 0.06;

/// Temporal window for *static* interval queries. The paper's 7-day windows
/// on multi-year taxi data keep many objects inside for the whole interval;
/// our synthetic objects wander continuously, so a window of this length
/// (relative to a 10 000 s horizon) plays the same role — long enough to be
/// a real interval, short enough that regions retain occupants throughout.
pub const STATIC_WINDOW: f64 = 150.0;

/// Paper-scale scenario used by every figure binary.
pub fn paper_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig {
        junctions: 900,
        drop: 0.18,
        ramps: 12,
        mix: WorkloadMix { random_waypoint: 140, commuter: 140, transit: 60 },
        // Slow vehicles with long dwell times: a trip takes ~1 min and the
        // object then parks for ~4 min, so static-interval queries (objects
        // present for a whole window) have non-trivial answers, like the
        // parked-taxi regimes of T-Drive.
        trajectory: TrajectoryConfig {
            speed: 5.0,
            pause: 240.0,
            duration: 10_000.0,
            exit_probability: 0.05,
        },
        seed,
    })
}

/// The serving-runtime scenario of the two robustness sweeps: a city of
/// `junctions` with `objects` split in thirds over the three mobility
/// models, and a quarter of its sensor candidates deployed by QuadTree
/// sampling, triangulated.
pub fn runtime_scenario(seed: u64, junctions: usize, objects: usize) -> (Scenario, SampledGraph) {
    let scenario = Scenario::build(ScenarioConfig {
        junctions,
        mix: WorkloadMix {
            random_waypoint: objects / 3,
            commuter: objects / 3,
            transit: objects - 2 * (objects / 3),
        },
        seed,
        ..Default::default()
    });
    let cands = scenario.sensing.sensor_candidates();
    let ids = stq_sampling::sample(SamplingMethod::QuadTree, &cands, cands.len() / 4, seed ^ 0x51);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled =
        SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
    (scenario, sampled)
}

/// The two sweeps' command line: `--quick` selects the fast profile and
/// `--seed N` pins the run to one seed (the CI matrix runs three).
pub fn sweep_args() -> (bool, Option<u64>) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--seed takes an integer"));
    (quick, seed)
}

/// Writes a sweep's JSON: a full run to the tracked `results/{name}`, a
/// `--quick` run to the untracked `target/quick/{name}`, so a smoke run
/// never overwrites the committed full-profile figures.
pub fn write_sweep_json(quick: bool, name: &str, json: &str) {
    let dir = if quick { "target/quick" } else { "results" };
    std::fs::create_dir_all(dir).expect("create sweep output dir");
    let path = format!("{dir}/{name}");
    std::fs::write(&path, json).expect("write sweep JSON");
    println!("wrote {path}");
}

/// A per-method evaluator: either a sampled graph or the baseline index.
pub enum Evaluator {
    /// A sampled sensing graph queried through the framework.
    Graph(SampledGraph),
    /// The baseline index queried through its own estimators.
    Baseline(BaselineIndex),
}

/// Builds the evaluator for `method` at sensor fraction `size` (seeded).
///
/// `historical` feeds the submodular method: the paper's premise for
/// query-adaptive selection is that "the expected query regions are known a
/// priori" (§4.4) — the evaluation workload's regions (or regions from the
/// same distribution) *are* that prior, exactly like §5.1.5's "100 query
/// regions chosen uniformly as the historical data". Other methods ignore it.
pub fn build_evaluator(
    s: &Scenario,
    method: Method,
    size: f64,
    seed: u64,
    historical: &[Vec<usize>],
) -> Evaluator {
    match method {
        Method::Sampling(sm) => {
            let cands = s.sensing.sensor_candidates();
            let m = ((cands.len() as f64 * size).round() as usize).clamp(3, cands.len());
            let ids = stq_sampling::sample(sm, &cands, m, seed);
            let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
            Evaluator::Graph(SampledGraph::from_sensors(
                &s.sensing,
                &faces,
                Connectivity::Triangulation,
            ))
        }
        Method::Submodular => {
            let own: Vec<Vec<usize>>;
            let hist = if historical.is_empty() {
                own = s.historical_regions(100, FIXED_QUERY_AREA, seed ^ 0xabc);
                &own
            } else {
                historical
            };
            let budget = (s.sensing.num_edges() as f64 * size).max(4.0);
            Evaluator::Graph(SampledGraph::from_submodular(&s.sensing, hist, budget))
        }
        Method::Baseline => {
            let cells: Vec<usize> = s.sensing.road().junctions().collect();
            let bucket = s.config.trajectory.duration / 4096.0;
            Evaluator::Baseline(BaselineIndex::build(&cells, &s.trajectories, size, bucket, seed))
        }
    }
}

/// Extracts historical junction sets from a query workload (for the
/// submodular prior).
pub fn regions_of(queries: &[(QueryRegion, f64, f64)]) -> Vec<Vec<usize>> {
    queries.iter().map(|(q, _, _)| q.junctions().to_vec()).collect()
}

/// One query's evaluation through an [`Evaluator`].
pub struct EvalResult {
    /// The estimated count.
    pub value: f64,
    /// Whether the evaluator could not cover the region at all.
    pub miss: bool,
    /// Sensors contacted to answer.
    pub nodes_accessed: usize,
    /// Monitored links integrated over (0 for the baseline).
    pub edges_accessed: usize,
}

/// Evaluates one query (lower-bound approximation).
pub fn evaluate(s: &Scenario, ev: &Evaluator, q: &QueryRegion, kind: QueryKind) -> EvalResult {
    match ev {
        Evaluator::Graph(g) => {
            let out = answer(&s.sensing, g, &s.tracked.store, q, kind, Approximation::Lower);
            EvalResult {
                value: out.value,
                miss: out.miss,
                nodes_accessed: out.nodes_accessed,
                edges_accessed: out.edges_accessed,
            }
        }
        Evaluator::Baseline(b) => {
            let region: HashSet<usize> = q.junctions().iter().copied().collect();
            let value = match kind {
                QueryKind::Snapshot(t) => b.snapshot(&region, t),
                QueryKind::Static(t0, t1) => b.static_interval(&region, t0, t1),
                QueryKind::Transient(t0, t1) => b.transient(&region, t0, t1),
            };
            let nodes = b.nodes_accessed(&region);
            EvalResult { value, miss: nodes == 0, nodes_accessed: nodes, edges_accessed: 0 }
        }
    }
}

/// Relative errors of a method over a query set (misses count as error 1.0,
/// the natural penalty for "answered 0 of a non-zero truth"; zero-truth
/// queries are skipped, §5.1.4).
pub fn relative_errors(
    s: &Scenario,
    ev: &Evaluator,
    queries: &[(QueryRegion, f64, f64)],
    kind_of: impl Fn(f64, f64) -> QueryKind,
) -> Vec<f64> {
    let mut errs = Vec::new();
    for (q, t0, t1) in queries {
        let kind = kind_of(*t0, *t1);
        let truth = ground_truth(&s.sensing, &s.tracked.store, q, kind);
        if truth.abs() < 1e-12 {
            continue;
        }
        let r = evaluate(s, ev, q, kind);
        errs.push((truth - r.value).abs() / truth.abs());
    }
    errs
}

/// Runs `jobs` closures on worker threads (scoped), preserving output order.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n.max(1));
    let results: Vec<parking_lot::Mutex<Option<T>>> =
        (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *results[i].lock() = Some(f(i));
            });
        }
    })
    .expect("worker panicked");
    results.into_iter().map(|m| m.into_inner().expect("job completed")).collect()
}

/// Seeds used for repetition (the paper repeats 50×; we trade repetitions
/// for runtime and report the band).
pub const SEEDS: [u64; 5] = [11, 23, 37, 51, 77];

/// Error sweep over graph sizes at a fixed query workload: one column of
/// stats per method. `queries(s, si)` supplies the per-scenario workload;
/// the submodular method receives those regions as its a-priori knowledge.
pub fn sweep_graph_sizes(
    scenarios: &[Scenario],
    methods: &[Method],
    sizes: &[f64],
    queries: impl Fn(&Scenario, usize) -> Vec<(QueryRegion, f64, f64)> + Sync,
    kind_of: impl Fn(f64, f64) -> QueryKind + Sync + Copy,
) -> Vec<(String, Vec<Stats>)> {
    parallel_map(methods.len(), |mi| {
        let method = methods[mi];
        let col: Vec<Stats> = sizes
            .iter()
            .map(|&size| {
                let mut errs = Vec::new();
                for (si, s) in scenarios.iter().enumerate() {
                    let qs = queries(s, si);
                    let hist = regions_of(&qs);
                    let ev = build_evaluator(s, method, size, SEEDS[si] ^ 0x51, &hist);
                    errs.extend(relative_errors(s, &ev, &qs, kind_of));
                }
                stats(&errs)
            })
            .collect();
        (method.label(), col)
    })
}

/// Error sweep over query areas at a fixed graph size.
pub fn sweep_query_areas(
    scenarios: &[Scenario],
    methods: &[Method],
    areas: &[f64],
    graph_size: f64,
    queries: impl Fn(&Scenario, usize, f64) -> Vec<(QueryRegion, f64, f64)> + Sync,
    kind_of: impl Fn(f64, f64) -> QueryKind + Sync + Copy,
) -> Vec<(String, Vec<Stats>)> {
    parallel_map(methods.len(), |mi| {
        let method = methods[mi];
        // One evaluator per scenario for the oblivious methods (they cannot
        // adapt to the workload anyway). The query-adaptive submodular
        // method instead rebuilds per area: its premise is knowing the
        // expected query regions, which differ per sweep point.
        let shared_evs: Vec<Evaluator> = scenarios
            .iter()
            .enumerate()
            .map(|(si, s)| build_evaluator(s, method, graph_size, SEEDS[si] ^ 0x51, &[]))
            .collect();
        let col: Vec<Stats> = areas
            .iter()
            .map(|&area| {
                let mut errs = Vec::new();
                for (si, s) in scenarios.iter().enumerate() {
                    let qs = queries(s, si, area);
                    if method == Method::Submodular {
                        let hist = regions_of(&qs);
                        let ev = build_evaluator(s, method, graph_size, SEEDS[si] ^ 0x51, &hist);
                        errs.extend(relative_errors(s, &ev, &qs, kind_of));
                    } else {
                        errs.extend(relative_errors(s, &shared_evs[si], &qs, kind_of));
                    }
                }
                stats(&errs)
            })
            .collect();
        (method.label(), col)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_quartiles() {
        let s = stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        assert_eq!(s.n, 5);
        assert_eq!(stats(&[]).n, 0);
        // NaNs are dropped.
        let s2 = stats(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s2.n, 2);
    }

    #[test]
    fn parallel_map_order_preserved() {
        let out = parallel_map(37, |i| i * i);
        assert_eq!(out.len(), 37);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn evaluator_builds_for_every_method() {
        let s = Scenario::build(ScenarioConfig {
            junctions: 120,
            mix: WorkloadMix { random_waypoint: 10, commuter: 5, transit: 5 },
            ..Default::default()
        });
        let queries = s.make_queries(5, 0.1, 1_000.0, 3);
        for method in Method::all() {
            let ev = build_evaluator(&s, method, 0.2, 7, &[]);
            for (q, t0, _) in &queries {
                let r = evaluate(&s, &ev, q, QueryKind::Snapshot(*t0));
                assert!(r.value.is_finite(), "{method:?}");
            }
            let errs = relative_errors(&s, &ev, &queries, |t0, _| QueryKind::Snapshot(t0));
            for e in errs {
                assert!(e >= 0.0);
            }
        }
    }
}
