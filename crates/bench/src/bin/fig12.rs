//! Figure 12 — lower-bound relative error of **static** object-count
//! queries: (a) vs sampled-graph size at fixed query area ≈1.08%,
//! (b) vs query area at fixed graph size 6%.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin fig12
//! ```

use stq_bench::*;
use stq_core::prelude::*;

fn main() {
    println!("# Figure 12 — static object count, lower-bound relative error");
    println!("(median [P25,P75] over {} seeds; misses count as error 1.0)", SEEDS.len());

    let scenarios: Vec<Scenario> = parallel_map(SEEDS.len(), |i| paper_scenario(SEEDS[i]));
    let methods = Method::all();

    // (a) vs graph size.
    let series = sweep_graph_sizes(
        &scenarios,
        &methods,
        &GRAPH_SIZES,
        FIXED_QUERY_AREA,
        |s, si| s.make_queries(30, FIXED_QUERY_AREA, STATIC_WINDOW, SEEDS[si] ^ 0x9),
        QueryKind::Static,
    );
    print_table(
        "Fig 12a: static error vs sampled graph size (query area 1.08%)",
        "graph size",
        &GRAPH_SIZES,
        &series,
    );

    // (b) vs query area.
    let series_b = sweep_query_areas(
        &scenarios,
        &methods,
        &QUERY_AREAS,
        FIXED_GRAPH_SIZE,
        |s, si, area| s.make_queries(30, area, STATIC_WINDOW, SEEDS[si] ^ 0x77),
        QueryKind::Static,
    );
    print_table(
        "Fig 12b: static error vs query area (graph size 6%)",
        "query area",
        &QUERY_AREAS,
        &series_b,
    );
}
