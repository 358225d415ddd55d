//! Headline table — the abstract's claims, measured on this reproduction:
//!
//! > "a relative error of at most 13.8% with 25.6% of sensors while
//! >  achieving a speedup of 3.5×, 69.81% reduction in sensors accessed,
//! >  and a storage reduction of 99.96% compared to finding the exact count."
//!
//! ```sh
//! cargo run --release -p stq-bench --bin headline
//! ```
//!
//! The submodular row is scored held out: the method is selected from
//! [`PRIOR_REGIONS`] regions drawn apart from the ones it is scored on.
//! Selected from the scored regions themselves it reads an upper bound,
//! printed on the row below it. A second table scores it held out against
//! the size of its prior ([`PRIOR_SIZES`] regions at the same 1.08 % area),
//! with quadtree sampling beside it.

use std::time::Instant;

use stq_bench::*;
use stq_core::prelude::*;
use stq_forms::CountSource;
use stq_learned::RegressorKind;

/// The held-out prior sizes of the second table: §5.1.5's 100, fewer, and
/// more.
const PRIOR_SIZES: [usize; 4] = [40, 100, 400, 1_600];

/// Relative errors (queries with a nonzero truth) and misses (all queries)
/// of one deployment over the error workload.
#[derive(Default)]
struct Scored {
    errors: Vec<f64>,
    misses: usize,
    queries: usize,
}

impl Scored {
    fn add(&mut self, truth: f64, out: &QueryOutcome) {
        self.queries += 1;
        self.misses += usize::from(out.miss);
        if truth > 0.0 {
            self.errors.push((truth - out.value).abs() / truth);
        }
    }

    /// `P75 | median [P25, P75] | miss rate`, in percent.
    fn row(&self) -> String {
        let e = stats(&self.errors);
        let miss = 100.0 * self.misses as f64 / self.queries.max(1) as f64;
        format!(
            "{:>6.1}% | {:>5.1} [{:>5.1}, {:>5.1}]% | {:>5.1}%",
            100.0 * e.p75,
            100.0 * e.median,
            100.0 * e.p25,
            100.0 * e.p75,
            miss
        )
    }
}

fn main() {
    println!("# Headline numbers (paper abstract) — measured on this reproduction");
    let scenarios: Vec<Scenario> = parallel_map(SEEDS.len(), |i| paper_scenario(SEEDS[i]));
    let size = 0.256; // the paper's 25.6% of sensors
    let areas = [0.04, 0.08, 0.16];

    let mut err_submod = Vec::new();
    let mut err_in_sample = Vec::new();
    let mut err_quadtree = Vec::new();
    let mut node_reduction = Vec::new();
    let mut comm_speedups = Vec::new();
    let mut cpu_speedups = Vec::new();
    let mut storage_reduction = Vec::new();
    let mut by_prior: Vec<Scored> = PRIOR_SIZES.iter().map(|_| Scored::default()).collect();
    let mut quadtree_scored = Scored::default();

    for (si, s) in scenarios.iter().enumerate() {
        // Error metrics use the paper's fixed ~1.08% query regions; the
        // communication metrics use the mixed larger areas below (tiny
        // regions mostly miss, making reduction ratios degenerate).
        let err_queries = s.make_queries(40, FIXED_QUERY_AREA, 2_000.0, SEEDS[si] ^ 0x90);
        let mut queries = Vec::new();
        for (ai, &area) in areas.iter().enumerate() {
            queries.extend(s.make_queries(15, area, 2_000.0, SEEDS[si] ^ (0x91 + ai as u64)));
        }
        let quadtree = build_evaluator(
            s,
            Method::Sampling(stq_sampling::SamplingMethod::QuadTree),
            size,
            SEEDS[si] ^ 0x51,
            &[],
        );
        let submodular = |in_sample| {
            let sr = Series { method: Method::Submodular, in_sample };
            match sr.evaluator(s, size, SEEDS[si], &[FIXED_QUERY_AREA], &err_queries) {
                Evaluator::Graph(g) => g,
                Evaluator::Baseline(_) => unreachable!("the submodular method samples a graph"),
            }
        };
        let (gs, gi) = (submodular(false), submodular(true));
        let Evaluator::Graph(gq) = &quadtree else { unreachable!() };
        let sized: Vec<SampledGraph> = PRIOR_SIZES
            .iter()
            .map(|&regions| {
                let prior = Prior::held_out_of(s, &[FIXED_QUERY_AREA], SEEDS[si], regions);
                let built =
                    build_evaluator(s, Method::Submodular, size, SEEDS[si] ^ 0x51, prior.regions());
                let Evaluator::Graph(g) = built else { unreachable!("a sampled graph") };
                g
            })
            .collect();
        let unsampled = SampledGraph::unsampled(&s.sensing);

        // Communication topology of the quadtree deployment.
        let links: Vec<(usize, usize)> = gq
            .monitored()
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(e, _)| s.sensing.dual().edge_faces[e])
            .filter(|&(a, b)| a != b)
            .collect();
        let net = stq_net::Network::new(s.sensing.num_faces(), &links);
        let full_links: Vec<(usize, usize)> = (0..s.sensing.num_edges())
            .map(|e| s.sensing.dual().edge_faces[e])
            .filter(|&(a, b)| a != b)
            .collect();
        let full_net = stq_net::Network::new(s.sensing.num_faces(), &full_links);

        for (q, t0, _) in &err_queries {
            let kind = QueryKind::Snapshot(*t0);
            let truth = ground_truth(&s.sensing, &s.tracked.store, q, kind);
            let oq = answer(&s.sensing, gq, &s.tracked.store, q, kind, Approximation::Lower);
            let os = answer(&s.sensing, &gs, &s.tracked.store, q, kind, Approximation::Lower);
            let oi = answer(&s.sensing, &gi, &s.tracked.store, q, kind, Approximation::Lower);
            if truth > 0.0 {
                err_quadtree.push((truth - oq.value).abs() / truth);
                err_submod.push((truth - os.value).abs() / truth);
                err_in_sample.push((truth - oi.value).abs() / truth);
            }
            quadtree_scored.add(truth, &oq);
            for (g, scored) in sized.iter().zip(&mut by_prior) {
                scored.add(
                    truth,
                    &answer(&s.sensing, g, &s.tracked.store, q, kind, Approximation::Lower),
                );
            }
        }
        for (q, t0, _) in &queries {
            let kind = QueryKind::Snapshot(*t0);
            let oq = answer(&s.sensing, gq, &s.tracked.store, q, kind, Approximation::Lower);
            // Sensors accessed: perimeter of the sampled region vs flooding
            // every sensor inside the query rectangle (§2.3, Fig. 11c).
            let flooded = s.sensing.sensors_in_rect(&q.rect);
            if !flooded.is_empty() && !oq.miss {
                node_reduction.push(1.0 - oq.nodes_accessed as f64 / flooded.len() as f64);
                // Simulated in-network cost: walking the sampled perimeter
                // vs flooding the whole region on the full sensing network.
                let plan = QueryPlan::compile(&s.sensing, gq, q, Approximation::Lower);
                let perimeter = s.sensing.boundary_sensors(&plan.boundary);
                if !perimeter.is_empty() {
                    let walk = net.perimeter_traversal(perimeter[0], &perimeter);
                    let flood = full_net.flood(flooded[0], &flooded);
                    if walk.hops > 0 {
                        comm_speedups.push(flood.messages as f64 / walk.messages.max(1) as f64);
                    }
                }
            }
        }

        // CPU time: sampled vs exact evaluation, same queries.
        for (q, t0, t1) in queries.iter().take(20) {
            let kind = QueryKind::Transient(*t0, *t1);
            let time_of = |g: &SampledGraph| {
                let start = Instant::now();
                for _ in 0..8 {
                    std::hint::black_box(answer(
                        &s.sensing,
                        g,
                        &s.tracked.store,
                        q,
                        kind,
                        Approximation::Lower,
                    ));
                }
                start.elapsed().as_secs_f64()
            };
            let t_sampled = time_of(gq);
            let t_exact = time_of(&unsampled);
            if t_sampled > 0.0 {
                cpu_speedups.push(t_exact / t_sampled);
            }
        }

        // Storage: regression models vs explicit timestamp logs.
        let exact_bytes: usize = gq
            .monitored()
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(e, _)| s.tracked.store.form(e).storage_bytes())
            .sum();
        let learned =
            LearnedStore::fit(&s.tracked.store, Some(gq.monitored()), RegressorKind::Linear);
        if exact_bytes > 0 {
            storage_reduction.push(1.0 - learned.storage_bytes() as f64 / exact_bytes as f64);
        }
    }

    let eq = stats(&err_quadtree);
    let es = stats(&err_submod);
    let ei = stats(&err_in_sample);
    let n = stats(&node_reduction);
    let cs = stats(&comm_speedups);
    let cpu = stats(&cpu_speedups);
    let st = stats(&storage_reduction);
    println!("\n{:<42} | {:>10} | {:>18}", "metric @ 25.6% sensors", "paper", "this reproduction");
    println!("{:-<42}-+-{:->10}-+-{:->18}", "", "", "");
    println!(
        "{:<42} | {:>10} | {:>15.1}%  ",
        "rel. error, submodular, held out (P75)",
        "<= 13.8%",
        100.0 * es.p75
    );
    println!(
        "{:<42} | {:>10} | {:>15.1}%  ",
        "  in-sample, an upper bound (P75)",
        "-",
        100.0 * ei.p75
    );
    println!(
        "{:<42} | {:>10} | {:>15.1}%  ",
        "rel. error, quadtree sampling (P75)",
        "-",
        100.0 * eq.p75
    );
    println!(
        "{:<42} | {:>10} | {:>15.1}%  ",
        "sensors-accessed reduction (median)",
        "69.81%",
        100.0 * n.median
    );
    println!(
        "{:<42} | {:>10} | {:>15.1}x  ",
        "in-network message speedup (median)", "3.5x", cs.median
    );
    println!("{:<42} | {:>10} | {:>15.1}x  ", "query CPU speedup (median)", "-", cpu.median);
    println!(
        "{:<42} | {:>10} | {:>15.2}%  ",
        "storage reduction, linear models (median)",
        "99.96%",
        100.0 * st.median
    );
    println!(
        "\nnotes: submodular error median {:.1}% [{:.1}%, {:.1}%] over {} evaluations, selected \
         from {PRIOR_REGIONS} held-out regions; selected from the evaluated regions themselves \
         (an upper bound) {:.1}% [{:.1}%, {:.1}%] over the same {};",
        100.0 * es.median,
        100.0 * es.p25,
        100.0 * es.p75,
        es.n,
        100.0 * ei.median,
        100.0 * ei.p25,
        100.0 * ei.p75,
        ei.n
    );
    println!(
        "\n## Held out, against the prior's size (1.08% regions, 25.6% sensors)\n\n\
         {:>13} | {:>40} | {:>40}\n\
         {:>13} | {:>7} | {:>21} | {:>6} | {:>7} | {:>21} | {:>6}\n{:-<13}-+-{:-<40}-+-{:-<40}",
        "",
        "submodular, held out",
        "quadtree sampling",
        "prior regions",
        "P75",
        "median [P25, P75]",
        "miss",
        "P75",
        "median [P25, P75]",
        "miss",
        "",
        "",
        ""
    );
    for (regions, scored) in PRIOR_SIZES.iter().zip(&by_prior) {
        println!("{regions:>13} | {} | {}", scored.row(), quadtree_scored.row());
    }
    println!(
        "\nerrors over the {} evaluations with a nonzero truth, misses over all {} queries.",
        by_prior[0].errors.len(),
        by_prior[0].queries
    );
    println!(
        "storage reduction is scale-dependent — the paper's multi-year fleet stores ~10⁴ \
         timestamps per edge where this synthetic workload stores ~25, so the constant-size \
         models save {:.1}% here and asymptotically approach the paper's 99.96% as the event \
         count grows.",
        100.0 * st.median
    );
}
