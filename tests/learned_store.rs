//! Integration tests for the learned edge stores: model-backed query
//! answers vs exact logs across the full pipeline (paper §4.8, Fig. 14c,d
//! and Fig. 11e).

use stq::core::prelude::*;
use stq::forms::CountSource;
use stq::learned::RegressorKind;
use stq::sampling::{sample, SamplingMethod};

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        junctions: 250,
        mix: WorkloadMix { random_waypoint: 30, commuter: 25, transit: 10 },
        seed: 555,
        ..Default::default()
    })
}

fn sampled(s: &Scenario) -> SampledGraph {
    let cands = s.sensing.sensor_candidates();
    let ids = sample(SamplingMethod::QuadTree, &cands, cands.len() / 5, 5);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation)
}

/// Fig. 14c,d: the model-induced extra error (vs explicit storage on the
/// same sampled graph) stays small for every standard regressor.
#[test]
fn model_error_overhead_is_small() {
    let s = scenario();
    let g = sampled(&s);
    let queries = s.make_queries(25, 0.12, 1_500.0, 3);
    for kind in RegressorKind::standard_set() {
        let learned = LearnedStore::fit(&s.tracked.store, Some(g.monitored()), kind);
        let mut abs = Vec::new();
        let mut edges = Vec::new();
        for (q, t0, t1) in &queries {
            for qk in [QueryKind::Snapshot(*t0), QueryKind::Transient(*t0, *t1)] {
                let exact = answer(&s.sensing, &g, &s.tracked.store, q, qk, Approximation::Lower);
                let model = answer(&s.sensing, &g, &learned, q, qk, Approximation::Lower);
                if exact.miss {
                    continue;
                }
                // Error relative to the explicit-storage answer, NOT the
                // unsampled truth — isolating the model's contribution.
                abs.push((exact.value - model.value).abs());
                edges.push(exact.edges_accessed as f64);
            }
        }
        assert!(!abs.is_empty());
        // The model error accumulates along the boundary: it must stay a
        // small fraction of an event *per boundary edge* (the paper's query
        // counts are large, making this a small relative penalty; this tiny
        // workload has single-digit counts, so absolute error is the stable
        // metric).
        let mean_abs = abs.iter().sum::<f64>() / abs.len() as f64;
        let mean_edges = edges.iter().sum::<f64>() / edges.len() as f64;
        let per_edge = mean_abs / mean_edges.max(1.0);
        assert!(
            per_edge < 0.35,
            "{kind:?}: {mean_abs:.2} mean abs error over {mean_edges:.0} boundary edges \
             ({per_edge:.3} per edge) — too much"
        );
    }
}

/// Fig. 11e: constant-size models slash storage relative to explicit logs,
/// and the footprint is independent of the event count.
#[test]
fn storage_reduction_and_constancy() {
    let s = scenario();
    let g = sampled(&s);
    let exact_bytes: usize = g
        .monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(e, _)| s.tracked.store.form(e).storage_bytes())
        .sum();
    let learned = LearnedStore::fit(&s.tracked.store, Some(g.monitored()), RegressorKind::Linear);
    assert!(
        learned.storage_bytes() * 2 < exact_bytes,
        "models {} vs logs {exact_bytes}",
        learned.storage_bytes()
    );
    // Per-edge model cost is bounded by a constant (linear: ~56 bytes + 8
    // overhead per direction pair).
    let per_edge = learned.storage_bytes() as f64 / learned.num_modelled() as f64;
    assert!(per_edge < 200.0);

    // A workload with 4x the objects: the exact logs grow with the event
    // count, while the learned store stays bounded by a constant per edge
    // (it can grow only where previously-silent edges gained a model).
    let s_big = Scenario::build(ScenarioConfig {
        junctions: 250,
        mix: WorkloadMix { random_waypoint: 120, commuter: 100, transit: 40 },
        seed: 555,
        ..Default::default()
    });
    let exact_big: usize = g
        .monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(e, _)| s_big.tracked.store.form(e).storage_bytes())
        .sum();
    let learned_big =
        LearnedStore::fit(&s_big.tracked.store, Some(g.monitored()), RegressorKind::Linear);
    let per_edge_big = learned_big.storage_bytes() as f64 / learned_big.num_modelled() as f64;
    assert!(per_edge_big < 200.0, "per-edge model cost must stay constant");
    assert!(exact_big > exact_bytes, "bigger workload grows the exact logs");
    let ratio_small = exact_bytes as f64 / learned.storage_bytes() as f64;
    let ratio_big = exact_big as f64 / learned_big.storage_bytes() as f64;
    assert!(
        ratio_big > ratio_small,
        "the learned store's advantage must widen with data: {ratio_small:.1}x → {ratio_big:.1}x"
    );
}

/// Learned counts respect physical bounds after boundary integration: never
/// wildly negative, never above the total event count.
#[test]
fn learned_counts_physically_plausible() {
    let s = scenario();
    let g = SampledGraph::unsampled(&s.sensing);
    let learned = LearnedStore::fit(&s.tracked.store, None, RegressorKind::PiecewiseLinear(8));
    let n_objects = s.trajectories.len() as f64;
    for (q, t0, _) in s.make_queries(15, 0.2, 500.0, 9) {
        let out =
            answer(&s.sensing, &g, &learned, &q, QueryKind::Snapshot(t0), Approximation::Lower);
        assert!(
            out.value > -n_objects && out.value < 2.0 * n_objects,
            "implausible learned count {}",
            out.value
        );
    }
}

/// The streaming buffer variant keeps bounded storage while staying close to
/// the exact counts on a real edge's event stream.
#[test]
fn buffered_series_on_real_edge_stream() {
    use stq::learned::BufferedSeries;
    let s = scenario();
    // The busiest edge of the workload.
    let busiest =
        (0..s.sensing.num_edges()).max_by_key(|&e| s.tracked.store.form(e).total(true)).unwrap();
    let ts = s.tracked.store.form(busiest).timestamps(true);
    assert!(ts.len() > 20, "need a busy edge for this test");
    let mut series = BufferedSeries::new(RegressorKind::PiecewiseLinear(16), 24);
    for &t in ts {
        series.push(t);
    }
    assert_eq!(series.total(), ts.len());
    assert!(series.size_bytes() < 24 * 8 + 600);
    // Mid-stream estimate within 25% of truth.
    let mid = ts[ts.len() / 2];
    let truth = (ts.len() / 2 + 1) as f64;
    let est = series.count_until(mid);
    assert!((est - truth).abs() <= truth * 0.25 + 4.0, "buffered estimate {est} vs truth {truth}");
}

/// Learned stores slot into every query kind through the common
/// `CountSource` trait (one code path for exact and learned — §4.8's goal).
#[test]
fn trait_object_compatibility() {
    let s = scenario();
    let g = sampled(&s);
    let learned = LearnedStore::fit(&s.tracked.store, Some(g.monitored()), RegressorKind::Step(16));
    let sources: Vec<&dyn CountSource> = vec![&s.tracked.store, &learned];
    let (q, t0, t1) = s.make_queries(1, 0.15, 1_000.0, 11).remove(0);
    for src in sources {
        for kind in
            [QueryKind::Snapshot(t0), QueryKind::Static(t0, t1), QueryKind::Transient(t0, t1)]
        {
            let covered = g.resolve(q.junctions(), Approximation::Lower);
            if covered.is_empty() {
                continue;
            }
            let (b, _) = s.sensing.boundary_walk(&covered, Some(g.monitored()));
            let v = stq::core::query::evaluate(src, &b, kind);
            assert!(v.is_finite());
        }
    }
}
