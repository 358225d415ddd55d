//! Ablations of the design choices DESIGN.md calls out:
//! 1. triangulation vs k-NN face granularity (the §4.5 trade-off),
//! 2. lazy (CELF) vs naive greedy submodular maximization (§4.4),
//! 3. weighted (query-adaptive) vs plain uniform sampling (§4.3's
//!    "number of times each node appeared in previous queries" weighting),
//! 4. dispatch strategies: server aggregation vs perimeter traversal (§4.6),
//! 5. Euler-histogram temporal bucket width (baseline resolution).
//!
//! ```sh
//! cargo run --release -p stq-bench --bin ablation
//! ```

use std::time::Instant;

use stq_bench::*;
use stq_core::prelude::*;
use stq_submod::{greedy, lazy_greedy, partition_atoms, total_gain, AtomObjective, Objective};

fn main() {
    println!("# Ablations");
    let s = paper_scenario(SEEDS[0]);

    // ------------------------------------------------------------------
    // 1. Connectivity granularity.
    println!("\n## 1. sampled-graph face granularity (quadtree 6%)");
    let cands = s.sensing.sensor_candidates();
    let m = (cands.len() as f64 * FIXED_GRAPH_SIZE) as usize;
    let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 7);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    println!(
        "{:>16} | {:>10} | {:>14} | {:>18}",
        "connectivity", "faces", "mon. edges", "median face cells"
    );
    for (label, conn) in [
        ("triangulation", Connectivity::Triangulation),
        ("knn k=3", Connectivity::Knn(3)),
        ("knn k=5", Connectivity::Knn(5)),
        ("knn k=8", Connectivity::Knn(8)),
    ] {
        let g = SampledGraph::from_sensors(&s.sensing, &faces, conn);
        let mut sizes: Vec<f64> = g.components().iter().map(|c| c.len() as f64).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "{label:>16} | {:>10} | {:>14} | {:>18.1}",
            g.components().len(),
            g.num_monitored_edges(),
            sizes[sizes.len() / 2]
        );
    }

    // ------------------------------------------------------------------
    // 2. Lazy vs naive greedy.
    println!("\n## 2. submodular maximization: naive vs lazy (CELF) greedy");
    let historical = s.historical_regions(100, FIXED_QUERY_AREA * 4.0, 0xabc);
    let emb = s.sensing.road().embedding();
    let atoms = partition_atoms(&historical, emb.edges(), emb.num_vertices());
    let sizes: Vec<usize> = historical.iter().map(|q| q.len()).collect();
    let obj = AtomObjective::new(atoms, sizes);
    let budget = s.sensing.num_edges() as f64 * 0.06;
    println!("ground set: {} atoms, budget {budget:.0} edges", obj.len());

    let start = Instant::now();
    let naive = greedy(&obj, budget);
    let t_naive = start.elapsed();
    let start = Instant::now();
    let (lazy, evals) = lazy_greedy(&obj, budget, false);
    let t_lazy = start.elapsed();
    println!(
        "naive : {:>4} atoms, utility {:>8.3}, {:>8.1?} ({} evals)",
        naive.len(),
        total_gain(&obj, &naive),
        t_naive,
        obj.len() * naive.len().max(1),
    );
    println!(
        "lazy  : {:>4} atoms, utility {:>8.3}, {:>8.1?} ({} evals)",
        lazy.len(),
        total_gain(&obj, &lazy),
        t_lazy,
        evals
    );

    // ------------------------------------------------------------------
    // 3. Query-adaptive weighting of uniform sampling.
    println!("\n## 3. uniform vs historically-weighted sampling (6% sensors)");
    // Weight sensors by how often their faces border historical queries.
    let mut weight = vec![0.0f64; s.sensing.num_faces()];
    for h in &historical {
        let (b, _) = s.sensing.boundary_walk(h, None);
        for f in s.sensing.boundary_sensors(&b) {
            weight[f] += 1.0;
        }
    }
    let weights: Vec<f64> = cands.iter().map(|&(_, id)| weight[id as usize] + 0.01).collect();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let weighted_ids = stq_sampling::weighted(&cands, &weights, m, &mut rng);
    let plain_ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, m, 5);

    let queries = s.make_queries(40, FIXED_QUERY_AREA * 4.0, 2_000.0, 0xabc); // in-distribution
    for (label, idset) in [("uniform", &plain_ids), ("weighted", &weighted_ids)] {
        let f: Vec<usize> = idset.iter().map(|&x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &f, Connectivity::Triangulation);
        let ev = Evaluator::Graph(g);
        let errs = relative_errors(&s, &ev, &queries, |t0, _| QueryKind::Snapshot(t0));
        let st = stats(&errs);
        println!("{label:>10}: median rel. error {:.3} [{:.3},{:.3}]", st.median, st.p25, st.p75);
    }

    // ------------------------------------------------------------------
    // 4. Dispatch strategies on the communication topology.
    println!("\n## 4. query dispatch: server aggregation vs perimeter traversal (§4.6)");
    let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
    let links: Vec<(usize, usize)> = g
        .monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &mn)| mn)
        .map(|(e, _)| s.sensing.dual().edge_faces[e])
        .filter(|&(a, b)| a != b)
        .collect();
    let net = stq_net::Network::new(s.sensing.num_faces(), &links);
    let mut hops_server = Vec::new();
    let mut hops_walk = Vec::new();
    for (q, _, _) in s.make_queries(25, 0.04, 2_000.0, 0x171) {
        let plan = QueryPlan::compile(&s.sensing, &g, &q, Approximation::Lower);
        if plan.miss {
            continue;
        }
        let perimeter = s.sensing.boundary_sensors(&plan.boundary);
        if perimeter.is_empty() {
            continue;
        }
        hops_server.push(net.server_aggregation(perimeter[0], &perimeter).hops as f64);
        hops_walk.push(net.perimeter_traversal(perimeter[0], &perimeter).hops as f64);
    }
    println!(
        "server aggregation: median {:.0} hops | perimeter traversal: median {:.0} hops",
        stats(&hops_server).median,
        stats(&hops_walk).median
    );

    // ------------------------------------------------------------------
    // 5. Baseline bucket width.
    println!("\n## 5. Euler-histogram bucket width vs error (baseline, 25.6% faces)");
    let cells: Vec<usize> = s.sensing.road().junctions().collect();
    let queries = s.make_queries(40, 0.04, 2_000.0, 0x191);
    for div in [64.0, 512.0, 4096.0] {
        let bucket = s.config.trajectory.duration / div;
        let idx = stq_baseline::BaselineIndex::build(&cells, &s.trajectories, 0.256, bucket, 9);
        let ev = Evaluator::Baseline(idx);
        let errs = relative_errors(&s, &ev, &queries, |t0, _| QueryKind::Snapshot(t0));
        let st = stats(&errs);
        println!(
            "bucket {:>8.1}s: median rel. error {:.3} [{:.3},{:.3}]",
            bucket, st.median, st.p25, st.p75
        );
    }
}
