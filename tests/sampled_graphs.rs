//! Structural integration tests on sampled sensing graphs: planarity,
//! face/component duality, connectivity variants, and k-NN vs triangulation.

use std::collections::HashSet;

use stq::core::prelude::*;
use stq::sampling::{sample, SamplingMethod};

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        junctions: 220,
        mix: WorkloadMix { random_waypoint: 10, commuter: 5, transit: 5 },
        seed: 123,
        ..Default::default()
    })
}

fn pick(s: &Scenario, frac: f64, seed: u64) -> Vec<usize> {
    let cands = s.sensing.sensor_candidates();
    let m = ((cands.len() as f64 * frac) as usize).max(3);
    sample(SamplingMethod::Uniform, &cands, m, seed).into_iter().map(|x| x as usize).collect()
}

/// The sampled graph is a subgraph of the sensing graph, so its monitored
/// edge set plus the component structure must satisfy planar duality:
/// components = connected pieces of the road graph cut along monitored
/// edges, and every component boundary is fully monitored.
#[test]
fn sampled_graph_duality_invariants() {
    let s = scenario();
    for conn in [Connectivity::Triangulation, Connectivity::Knn(4)] {
        let g = SampledGraph::from_sensors(&s.sensing, &pick(&s, 0.15, 5), conn);
        let emb = s.sensing.road().embedding();
        // (1) Unmonitored edges never straddle components.
        for (e, &(u, v)) in emb.edges().iter().enumerate() {
            if !g.monitored()[e] {
                assert_eq!(g.component_of(u), g.component_of(v), "edge {e} leaks");
            }
        }
        // (2) Each component's boundary is fully monitored.
        for comp in g.components() {
            for be in s.sensing.boundary_walk(comp, None).0 {
                assert!(g.monitored()[be.edge]);
            }
        }
        // (3) Components partition all vertices.
        let total: usize = g.components().iter().map(|c| c.len()).sum();
        assert_eq!(total, emb.num_vertices());
    }
}

/// Euler-formula check on the materialized subgraph: the number of faces of
/// `G̃` computed by union-find on the primal side must match `E − V + 1 + C`
/// on the dual side (Euler for a planar graph with `C` connected components,
/// counting the outer face once).
#[test]
fn subgraph_face_count_matches_euler() {
    let s = scenario();
    let g = SampledGraph::from_sensors(&s.sensing, &pick(&s, 0.2, 9), Connectivity::Triangulation);
    // Build the dual-side subgraph: vertices = faces of G touched by
    // monitored edges, edges = monitored sensing links.
    let mut verts: HashSet<usize> = HashSet::new();
    let mut edge_count = 0usize;
    let mut uf_size = s.sensing.num_faces();
    let mut uf = stq::planar::UnionFind::new(uf_size);
    for (e, &m) in g.monitored().iter().enumerate() {
        if !m {
            continue;
        }
        let (a, b) = s.sensing.dual().edge_faces[e];
        verts.insert(a);
        verts.insert(b);
        if a != b {
            uf.union(a, b);
        }
        edge_count += 1;
    }
    // Components among touched dual vertices.
    let mut roots: HashSet<usize> = HashSet::new();
    for &v in &verts {
        roots.insert(uf.find(v));
    }
    uf_size = roots.len();
    let v = verts.len() as i64;
    let e = edge_count as i64;
    let c = uf_size as i64;
    // Euler: F = E − V + 1 + C (faces including the single outer face).
    let expected_faces = e - v + 1 + c;
    assert_eq!(g.components().len() as i64, expected_faces);
}

/// k-NN with growing k monitors more and converges towards triangulation's
/// coverage (Fig. 14a/b premise).
#[test]
fn knn_granularity_ordering() {
    let s = scenario();
    let sensors = pick(&s, 0.15, 3);
    let tri = SampledGraph::from_sensors(&s.sensing, &sensors, Connectivity::Triangulation);
    let mut prev_edges = 0;
    for k in [2, 4, 8] {
        let g = SampledGraph::from_sensors(&s.sensing, &sensors, Connectivity::Knn(k));
        assert!(g.num_monitored_edges() >= prev_edges, "k={k} shrank coverage");
        prev_edges = g.num_monitored_edges();
    }
    // k-NN at moderate k produces roughly as many (smaller) faces as
    // triangulation — the property that helps small queries (§5.7). Face
    // counts depend on the sampled geometry, so require the k-NN count to
    // reach at least three quarters of the triangulation's rather than an
    // absolute gap.
    let knn5 = SampledGraph::from_sensors(&s.sensing, &sensors, Connectivity::Knn(5));
    assert!(
        knn5.components().len() * 4 >= tri.components().len() * 3,
        "k-NN(5) faces {} vs triangulation {}",
        knn5.components().len(),
        tri.components().len()
    );
}

/// Sampled answers converge to exact as the graph approaches full size.
#[test]
fn convergence_to_unsampled() {
    let s = scenario();
    let queries = s.make_queries(15, 0.15, 1_000.0, 7);
    let cands = s.sensing.sensor_candidates();
    let all: Vec<usize> = cands.iter().map(|&(_, id)| id as usize).collect();
    let g = SampledGraph::from_sensors(&s.sensing, &all, Connectivity::Triangulation);
    let mut total_abs_gap = 0.0;
    for (q, t0, _) in &queries {
        let kind = QueryKind::Snapshot(*t0);
        let truth = ground_truth(&s.sensing, &s.tracked.store, q, kind);
        let est = answer(&s.sensing, &g, &s.tracked.store, q, kind, Approximation::Lower);
        assert!(est.value <= truth + 1e-9);
        total_abs_gap += truth - est.value;
    }
    // With every sensor selected the graph is near-complete; tiny gaps may
    // remain where shortest paths skip an edge, but on average the answers
    // must be very close.
    assert!(
        total_abs_gap / queries.len() as f64 <= 2.0,
        "mean gap {} too large",
        total_abs_gap / queries.len() as f64
    );
}

/// Deterministic construction under fixed seeds.
#[test]
fn sampled_graph_deterministic() {
    let s = scenario();
    let a = SampledGraph::from_sensors(&s.sensing, &pick(&s, 0.1, 77), Connectivity::Knn(3));
    let b = SampledGraph::from_sensors(&s.sensing, &pick(&s, 0.1, 77), Connectivity::Knn(3));
    assert_eq!(a.monitored(), b.monitored());
    assert_eq!(a.components().len(), b.components().len());
}

/// Submodular graphs with increasing budget refine monotonically in utility:
/// a larger budget never covers fewer historical junctions.
#[test]
fn submodular_budget_monotone_coverage() {
    let s = scenario();
    let historical = s.historical_regions(25, 0.1, 55);
    let hist_junctions: HashSet<usize> =
        historical.iter().flat_map(|h| h.iter().copied()).collect();
    let mut prev_cov = 0usize;
    for budget in [30.0, 120.0, 500.0] {
        let g = SampledGraph::from_submodular(&s.sensing, &historical, budget);
        // Covered = historical junctions inside components fully contained
        // in the historical union.
        let cov = hist_junctions
            .iter()
            .filter(|&&j| {
                g.components()[g.component_of(j)].iter().all(|v| hist_junctions.contains(v))
            })
            .count();
        assert!(cov >= prev_cov, "budget {budget} reduced coverage {prev_cov} → {cov}");
        prev_cov = cov;
    }
    assert!(prev_cov > 0);
}
