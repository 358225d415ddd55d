//! Figure 11 — transient queries and system costs:
//! (a) lower-bound transient error vs graph size,
//! (b) transient error vs query area,
//! (c) nodes accessed vs query area (sampled 6% & 51.2%, unsampled, baseline),
//! (d) query execution time vs query area (sampled vs unsampled),
//! (e) per-edge storage CDF: explicit timestamps vs regression models.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin fig11
//! ```

use std::time::Instant;

use stq_bench::*;
use stq_core::prelude::*;
use stq_forms::CountSource;
use stq_learned::RegressorKind;

fn main() {
    println!("# Figure 11 — transient count error, communication, time, storage");
    println!("(median [P25,P75] over {} seeds)", SEEDS.len());

    let scenarios: Vec<Scenario> = parallel_map(SEEDS.len(), |i| paper_scenario(SEEDS[i]));
    let methods = Method::all();

    // (a) transient error vs graph size.
    let series_a = sweep_graph_sizes(
        &scenarios,
        &methods,
        &GRAPH_SIZES,
        FIXED_QUERY_AREA,
        |s, si| s.make_queries(30, FIXED_QUERY_AREA, 2_000.0, SEEDS[si] ^ 0x3),
        QueryKind::Transient,
    );
    print_table(
        "Fig 11a: transient error vs sampled graph size (query area 1.08%)",
        "graph size",
        &GRAPH_SIZES,
        &series_a,
    );

    // (b) transient error vs query area.
    let series_b = sweep_query_areas(
        &scenarios,
        &methods,
        &QUERY_AREAS,
        FIXED_GRAPH_SIZE,
        |s, si, area| s.make_queries(30, area, 2_000.0, SEEDS[si] ^ 0x13),
        QueryKind::Transient,
    );
    print_table(
        "Fig 11b: transient error vs query area (graph size 6%)",
        "query area",
        &QUERY_AREAS,
        &series_b,
    );

    // (c) nodes accessed vs query area.
    let configs: Vec<(String, Option<f64>)> = vec![
        ("sampled 6% (quadtree)".into(), Some(0.06)),
        ("sampled 51.2% (quadtree)".into(), Some(0.512)),
        ("unsampled G (flood)".into(), None),
        ("baseline 6% (flood)".into(), Some(-0.06)), // negative marks baseline
    ];
    let series_c: Vec<(String, Vec<Stats>)> = parallel_map(configs.len(), |ci| {
        let (label, cfg) = &configs[ci];
        let col: Vec<Stats> = QUERY_AREAS
            .iter()
            .map(|&area| {
                let mut nodes = Vec::new();
                for (si, s) in scenarios.iter().enumerate() {
                    let queries = s.make_queries(20, area, 2_000.0, SEEDS[si] ^ 0x21);
                    match cfg {
                        Some(f) if *f > 0.0 => {
                            let ev = build_evaluator(
                                s,
                                Method::Sampling(stq_sampling::SamplingMethod::QuadTree),
                                *f,
                                SEEDS[si] ^ 0x51,
                                &[],
                            );
                            for (q, t0, _) in &queries {
                                let r = evaluate(s, &ev, q, QueryKind::Snapshot(*t0));
                                nodes.push(r.nodes_accessed as f64);
                            }
                        }
                        Some(f) => {
                            let ev =
                                build_evaluator(s, Method::Baseline, -f, SEEDS[si] ^ 0x51, &[]);
                            for (q, t0, _) in &queries {
                                let r = evaluate(s, &ev, q, QueryKind::Snapshot(*t0));
                                nodes.push(r.nodes_accessed as f64);
                            }
                        }
                        None => {
                            // Unsampled in-network flooding: every sensor in
                            // the query rectangle participates (§2.3).
                            for (q, _, _) in &queries {
                                nodes.push(s.sensing.sensors_in_rect(&q.rect).len() as f64);
                            }
                        }
                    }
                }
                stats(&nodes)
            })
            .collect();
        (label.clone(), col)
    });
    print_table("Fig 11c: nodes accessed vs query area", "query area", &QUERY_AREAS, &series_c);

    // (d) execution time vs query area (µs per query, measured).
    let s0 = &scenarios[0];
    let sampled6 = build_evaluator(
        s0,
        Method::Sampling(stq_sampling::SamplingMethod::QuadTree),
        0.06,
        SEEDS[0] ^ 0x51,
        &[],
    );
    let unsampled = Evaluator::Graph(SampledGraph::unsampled(&s0.sensing));
    let mut series_d: Vec<(String, Vec<Stats>)> = Vec::new();
    for (label, ev) in [("sampled 6%", &sampled6), ("unsampled G", &unsampled)] {
        let col: Vec<Stats> = QUERY_AREAS
            .iter()
            .map(|&area| {
                let queries = s0.make_queries(25, area, 2_000.0, 0x99);
                let mut times = Vec::new();
                for (q, t0, t1) in &queries {
                    let start = Instant::now();
                    let r = evaluate(s0, ev, q, QueryKind::Transient(*t0, *t1));
                    let dt = start.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(r.value);
                    times.push(dt);
                }
                stats(&times)
            })
            .collect();
        series_d.push((label.to_string(), col));
    }
    print_table(
        "Fig 11d: query execution time (µs) vs query area",
        "query area",
        &QUERY_AREAS,
        &series_d,
    );

    // (e) storage CDF: bytes per monitored edge, explicit vs linear model.
    println!("\n## Fig 11e: per-edge storage CDF (bytes, 6% quadtree sampled graph)");
    let Evaluator::Graph(g6) = &sampled6 else { unreachable!() };
    let exact_sizes: Vec<f64> = g6
        .monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(e, _)| s0.tracked.store.form(e).storage_bytes() as f64)
        .collect();
    let learned =
        stq_core::LearnedStore::fit(&s0.tracked.store, Some(g6.monitored()), RegressorKind::Linear);
    let model_per_edge = learned.storage_bytes() as f64 / learned.num_modelled() as f64;
    let mut sorted = exact_sizes.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("{:>8} | {:>16} | {:>16}", "CDF", "exact bytes", "model bytes");
    for pct in [10, 25, 50, 75, 90, 95, 99, 100] {
        let idx = ((pct as f64 / 100.0) * (sorted.len() - 1) as f64) as usize;
        println!("{:>7}% | {:>16.0} | {:>16.0}", pct, sorted[idx], model_per_edge);
    }
    let total_exact: f64 = exact_sizes.iter().sum();
    println!(
        "\ntotal: exact {:.1} KiB vs models {:.1} KiB  ({:.2}% of exact) over {} edges",
        total_exact / 1024.0,
        learned.storage_bytes() as f64 / 1024.0,
        100.0 * learned.storage_bytes() as f64 / total_exact,
        learned.num_modelled(),
    );
}
