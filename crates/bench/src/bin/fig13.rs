//! Figure 13 — query misses and upper-bound error:
//! (a) missed-query fraction vs graph size,
//! (b) missed-query fraction vs query area,
//! (c) upper-bound relative count (η̂/η ≥ 1) vs graph size,
//! (d) upper-bound relative count vs query area.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin fig13
//! ```

use stq_bench::*;
use stq_core::prelude::*;

fn miss_rate(s: &Scenario, ev: &Evaluator, queries: &[(stq_core::QueryRegion, f64, f64)]) -> f64 {
    let misses = queries
        .iter()
        .filter(|(q, t0, _)| evaluate(s, ev, q, QueryKind::Snapshot(*t0)).miss)
        .count();
    misses as f64 / queries.len().max(1) as f64
}

/// Upper-bound ratio η̂/η (≥ 1 when answered); misses are skipped.
fn upper_ratios(
    s: &Scenario,
    ev: &Evaluator,
    queries: &[(stq_core::QueryRegion, f64, f64)],
) -> Vec<f64> {
    let Evaluator::Graph(g) = ev else { return Vec::new() };
    let mut out = Vec::new();
    for (q, t0, _) in queries {
        let kind = QueryKind::Snapshot(*t0);
        let truth = ground_truth(&s.sensing, &s.tracked.store, q, kind);
        if truth.abs() < 1e-12 {
            continue;
        }
        let up = answer(&s.sensing, g, &s.tracked.store, q, kind, Approximation::Upper);
        if !up.miss {
            out.push(up.value / truth);
        }
    }
    out
}

fn main() {
    println!("# Figure 13 — query misses and upper-bound approximation");
    println!("(median [P25,P75] over {} seeds)", SEEDS.len());

    let scenarios: Vec<Scenario> = parallel_map(SEEDS.len(), |i| paper_scenario(SEEDS[i]));
    let series = Series::of(&Method::all());
    // Upper-bound panels use the sampled-graph methods only (the baseline
    // has no upper-bound semantics).
    let graph_series: Vec<Series> =
        series.iter().copied().filter(|sr| sr.method != Method::Baseline).collect();

    // ------------------------------------------------------------ (a) & (c)
    let queries_a =
        |s: &Scenario, si: usize| s.make_queries(30, FIXED_QUERY_AREA, 2_000.0, SEEDS[si] ^ 0x5);

    let series_a: Vec<(String, Vec<Stats>)> = parallel_map(series.len(), |i| {
        let sr = series[i];
        let col: Vec<Stats> = GRAPH_SIZES
            .iter()
            .map(|&size| {
                let rates: Vec<f64> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(si, s)| {
                        let qs = queries_a(s, si);
                        let ev = sr.evaluator(s, size, SEEDS[si], &[FIXED_QUERY_AREA], &qs);
                        miss_rate(s, &ev, &qs)
                    })
                    .collect();
                stats(&rates)
            })
            .collect();
        (sr.label(), col)
    });
    print_table(
        "Fig 13a: missed queries (fraction) vs graph size (query area 1.08%)",
        "graph size",
        &GRAPH_SIZES,
        &series_a,
    );

    let series_c: Vec<(String, Vec<Stats>)> = parallel_map(graph_series.len(), |i| {
        let sr = graph_series[i];
        let col: Vec<Stats> = GRAPH_SIZES
            .iter()
            .map(|&size| {
                let mut ratios = Vec::new();
                for (si, s) in scenarios.iter().enumerate() {
                    let qs = queries_a(s, si);
                    let ev = sr.evaluator(s, size, SEEDS[si], &[FIXED_QUERY_AREA], &qs);
                    ratios.extend(upper_ratios(s, &ev, &qs));
                }
                stats(&ratios)
            })
            .collect();
        (sr.label(), col)
    });
    print_table(
        "Fig 13c: upper-bound ratio η̂/η vs graph size (query area 1.08%)",
        "graph size",
        &GRAPH_SIZES,
        &series_c,
    );

    // ------------------------------------------------------------ (b) & (d)
    let queries_b =
        |s: &Scenario, si: usize, area: f64| s.make_queries(30, area, 2_000.0, SEEDS[si] ^ 0x25);
    // One evaluator per (series, scenario) at the fixed 6% size, for the
    // whole multi-area workload.
    let build_evs = |sr: Series| -> Vec<Evaluator> {
        scenarios
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let qs: Vec<_> = QUERY_AREAS.iter().flat_map(|&a| queries_b(s, si, a)).collect();
                sr.evaluator(s, FIXED_GRAPH_SIZE, SEEDS[si], &QUERY_AREAS, &qs)
            })
            .collect()
    };

    let series_b: Vec<(String, Vec<Stats>)> = parallel_map(series.len(), |i| {
        let sr = series[i];
        let evs = build_evs(sr);
        let col: Vec<Stats> = QUERY_AREAS
            .iter()
            .map(|&area| {
                let rates: Vec<f64> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(si, s)| miss_rate(s, &evs[si], &queries_b(s, si, area)))
                    .collect();
                stats(&rates)
            })
            .collect();
        (sr.label(), col)
    });
    print_table(
        "Fig 13b: missed queries (fraction) vs query area (graph size 6%)",
        "query area",
        &QUERY_AREAS,
        &series_b,
    );

    let series_d: Vec<(String, Vec<Stats>)> = parallel_map(graph_series.len(), |i| {
        let sr = graph_series[i];
        let evs = build_evs(sr);
        let col: Vec<Stats> = QUERY_AREAS
            .iter()
            .map(|&area| {
                let mut ratios = Vec::new();
                for (si, s) in scenarios.iter().enumerate() {
                    ratios.extend(upper_ratios(s, &evs[si], &queries_b(s, si, area)));
                }
                stats(&ratios)
            })
            .collect();
        (sr.label(), col)
    });
    print_table(
        "Fig 13d: upper-bound ratio η̂/η vs query area (graph size 6%)",
        "query area",
        &QUERY_AREAS,
        &series_d,
    );
}
