//! Query evaluation on sampled sensing graphs (paper §4.6–§4.7).

use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_forms::{
    snapshot_count, static_interval_count, transient_count, BoundaryEdge, CountSource, Time,
};
use stq_geom::Rect;
use stq_planar::embedding::VertexId;

/// A spatial query region: a rectangle converted to the junction cells of
/// the sensing graph it covers (§5.1.5).
///
/// The junction set is a strictly increasing list from construction on —
/// the form the plan cache fingerprints, [`SampledGraph::resolve`] resolves
/// and [`SensingGraph::boundary_walk`] walks — and [`from_rect`] is the only
/// way to build one, so no hop between them sorts or hashes it.
///
/// [`from_rect`]: Self::from_rect
#[derive(Clone, Debug)]
pub struct QueryRegion {
    /// The original rectangle (kept for flooding-cost accounting).
    pub rect: Rect,
    /// Junction cells forming the region, strictly increasing.
    junctions: Vec<VertexId>,
}

impl QueryRegion {
    /// Converts a rectangle to a query region on `sensing`, keeping the
    /// order [`SensingGraph::junctions_in_rect`] returns.
    pub fn from_rect(sensing: &SensingGraph, rect: Rect) -> Self {
        QueryRegion { rect, junctions: sensing.junctions_in_rect(&rect) }
    }

    /// The junction cells forming the region, strictly increasing.
    pub fn junctions(&self) -> &[VertexId] {
        &self.junctions
    }

    /// True when junction cell `j` belongs to the region.
    pub fn contains(&self, j: VertexId) -> bool {
        self.junctions.binary_search(&j).is_ok()
    }

    /// True when the rectangle covers no junction cell.
    pub fn is_empty(&self) -> bool {
        self.junctions.is_empty()
    }
}

/// Which approximation of the query region to evaluate (§4.6, Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approximation {
    /// `R₂`: maximal sampled region enclosed by the query (count ≤ exact).
    Lower,
    /// `R₁`: minimal sampled region containing the query (count ≥ exact).
    Upper,
}

/// The three query types (§3.3, §4.7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryKind {
    /// Objects inside at an instant (Theorems 4.1/4.2).
    Snapshot(Time),
    /// Objects present during the whole interval (query type 1), estimated as
    /// `min(snapshot(t0), snapshot(t1))` — an aggregate upper bound.
    Static(Time, Time),
    /// Net population change over the interval (query type 2, Theorem 4.3).
    Transient(Time, Time),
}

/// The answer to one query plus its communication accounting.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The (possibly fractional, with learned stores) count.
    pub value: f64,
    /// True when the sampled graph could not cover the region at all —
    /// a *query miss* (§5.5).
    pub miss: bool,
    /// Sensors contacted on the region perimeter.
    pub nodes_accessed: usize,
    /// Monitored sensing links integrated over.
    pub edges_accessed: usize,
    /// Junction cells of the resolved region.
    pub covered_cells: usize,
}

/// Answers a query on a sampled graph, integrating the tracking forms along
/// the resolved region's boundary.
///
/// `store` may be the exact [`stq_forms::FormStore`] or a learned store —
/// any [`CountSource`].
///
/// This is a thin wrapper that compiles a one-shot
/// [`QueryPlan`](crate::engine::QueryPlan) and executes it; callers issuing
/// repeated or batched queries should hold a
/// [`QueryEngine`](crate::engine::QueryEngine) so plans are cached and
/// reused.
pub fn answer<S: CountSource + ?Sized>(
    sensing: &SensingGraph,
    sampled: &SampledGraph,
    store: &S,
    query: &QueryRegion,
    kind: QueryKind,
    approx: Approximation,
) -> QueryOutcome {
    crate::engine::QueryPlan::compile(sensing, sampled, query, approx).execute(store, kind)
}

/// Evaluates a query kind over an explicit boundary chain.
pub fn evaluate<S: CountSource + ?Sized>(
    store: &S,
    boundary: &[BoundaryEdge],
    kind: QueryKind,
) -> f64 {
    match kind {
        QueryKind::Snapshot(t) => snapshot_count(store, boundary, t),
        QueryKind::Static(t0, t1) => static_interval_count(store, boundary, t0, t1),
        QueryKind::Transient(t0, t1) => transient_count(store, boundary, t0, t1),
    }
}

/// Ground truth `η`: the same query answered on the *unsampled* graph
/// (§5.1.4 — "the actual range count (count from the unsampled graph G)").
pub fn ground_truth<S: CountSource + ?Sized>(
    sensing: &SensingGraph,
    store: &S,
    query: &QueryRegion,
    kind: QueryKind,
) -> f64 {
    crate::engine::QueryPlan::compile_exact(sensing, query).execute(store, kind).value
}

/// Relative error `|η − η̂| / η`; `None` when the ground truth is zero
/// (the paper's error metric is undefined there — such queries are skipped).
pub fn relative_error(truth: f64, estimate: f64) -> Option<f64> {
    if truth.abs() < 1e-12 {
        None
    } else {
        Some((truth - estimate).abs() / truth.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::Connectivity;
    use crate::tracker::ingest;
    use stq_mobility::gen::delaunay_city;
    use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};

    struct Fixture {
        sensing: SensingGraph,
        tracked: crate::tracker::Tracked,
    }

    fn fixture() -> Fixture {
        let net = delaunay_city(120, 0.15, 6, 23).unwrap();
        let sensing = SensingGraph::new(net);
        let cfg =
            TrajectoryConfig { speed: 8.0, pause: 20.0, duration: 3_000.0, exit_probability: 0.3 };
        let mix = WorkloadMix { random_waypoint: 15, commuter: 10, transit: 8 };
        let trajs = generate_mix(sensing.road(), mix, cfg, 77);
        let tracked = ingest(&sensing, &trajs);
        Fixture { sensing, tracked }
    }

    fn mid_rect(sensing: &SensingGraph, lo: f64, hi: f64) -> Rect {
        let bb = sensing.road().bbox();
        Rect::from_corners(bb.min.lerp(bb.max, lo), bb.min.lerp(bb.max, hi))
    }

    #[test]
    fn unsampled_answer_matches_ground_truth_and_oracle() {
        let f = fixture();
        let g = SampledGraph::unsampled(&f.sensing);
        let q = QueryRegion::from_rect(&f.sensing, mid_rect(&f.sensing, 0.25, 0.7));
        assert!(!q.is_empty());
        for &t in &[500.0, 1500.0, 2500.0] {
            let out = answer(
                &f.sensing,
                &g,
                &f.tracked.store,
                &q,
                QueryKind::Snapshot(t),
                Approximation::Lower,
            );
            assert!(!out.miss);
            let truth = ground_truth(&f.sensing, &f.tracked.store, &q, QueryKind::Snapshot(t));
            assert_eq!(out.value, truth);
            let oracle = f.tracked.oracle.snapshot_count(&|j| q.contains(j), t) as f64;
            assert_eq!(out.value, oracle);
        }
    }

    #[test]
    fn lower_le_truth_le_upper() {
        let f = fixture();
        let cands = f.sensing.sensor_candidates();
        let m = (cands.len() / 5).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 5);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&f.sensing, &faces, Connectivity::Triangulation);

        let q = QueryRegion::from_rect(&f.sensing, mid_rect(&f.sensing, 0.2, 0.75));
        let t = 1_800.0;
        let truth = ground_truth(&f.sensing, &f.tracked.store, &q, QueryKind::Snapshot(t));
        let lo = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Snapshot(t),
            Approximation::Lower,
        );
        let hi = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Snapshot(t),
            Approximation::Upper,
        );
        if !lo.miss {
            assert!(lo.value <= truth + 1e-9, "lower {} vs truth {truth}", lo.value);
        }
        assert!(hi.value + 1e-9 >= truth, "upper {} vs truth {truth}", hi.value);
    }

    #[test]
    fn miss_reported_for_tiny_query_on_sparse_graph() {
        let f = fixture();
        let cands = f.sensing.sensor_candidates();
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, 3, 9);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&f.sensing, &faces, Connectivity::Triangulation);
        // A tiny rectangle: almost surely no component fits inside.
        let q = QueryRegion::from_rect(&f.sensing, mid_rect(&f.sensing, 0.48, 0.53));
        let out = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Snapshot(1000.0),
            Approximation::Lower,
        );
        if out.miss {
            assert_eq!(out.value, 0.0);
            assert_eq!(out.nodes_accessed, 0);
        }
        // Upper either answers with a true bound or misses (when the query
        // touches the outside-world component of a sparse graph).
        let up = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Snapshot(1000.0),
            Approximation::Upper,
        );
        if !up.miss {
            let truth = ground_truth(&f.sensing, &f.tracked.store, &q, QueryKind::Snapshot(1000.0));
            assert!(up.value + 1e-9 >= truth);
        }
    }

    #[test]
    fn sampled_accesses_fewer_nodes_than_flooding() {
        let f = fixture();
        let cands = f.sensing.sensor_candidates();
        let m = (cands.len() / 10).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::KdTree, &cands, m, 3);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&f.sensing, &faces, Connectivity::Triangulation);
        let rect = mid_rect(&f.sensing, 0.1, 0.9);
        let q = QueryRegion::from_rect(&f.sensing, rect);
        let out = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Snapshot(1000.0),
            Approximation::Lower,
        );
        let flooded = f.sensing.sensors_in_rect(&rect).len();
        assert!(
            out.nodes_accessed < flooded,
            "perimeter {} vs flood {flooded}",
            out.nodes_accessed
        );
    }

    #[test]
    fn transient_and_static_consistent_with_oracle_on_unsampled() {
        let f = fixture();
        let g = SampledGraph::unsampled(&f.sensing);
        let q = QueryRegion::from_rect(&f.sensing, mid_rect(&f.sensing, 0.3, 0.8));
        let (t0, t1) = (400.0, 2_200.0);
        let tr = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Transient(t0, t1),
            Approximation::Lower,
        );
        let oracle_net = f.tracked.oracle.transient_count(&|j| q.contains(j), t0, t1) as f64;
        assert_eq!(tr.value, oracle_net);

        // Static interval: the form estimator lower-bounds the oracle.
        let st = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Static(t0, t1),
            Approximation::Lower,
        );
        let oracle_static =
            f.tracked.oracle.static_interval_count(&|j| q.contains(j), t0, t1) as f64;
        assert!(
            st.value + 1e-9 >= oracle_static,
            "min-of-snapshots upper-bounds the true static count"
        );
        assert!(st.value >= 0.0);
    }

    #[test]
    fn relative_error_semantics() {
        assert_eq!(relative_error(10.0, 9.0), Some(0.1));
        assert_eq!(relative_error(0.0, 5.0), None);
        assert_eq!(relative_error(4.0, 4.0), Some(0.0));
    }

    #[test]
    fn region_is_the_strictly_increasing_junction_slice() {
        let f = fixture();
        let rect = mid_rect(&f.sensing, 0.2, 0.75);
        let q = QueryRegion::from_rect(&f.sensing, rect);
        assert!(!q.is_empty());
        assert!(q.junctions().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.junctions(), f.sensing.junctions_in_rect(&rect));
        for j in 0..f.sensing.road().embedding().num_vertices() {
            assert_eq!(q.contains(j), q.junctions().contains(&j), "junction {j}");
        }

        let off_map = Rect::from_corners(
            stq_geom::Point::new(-99.0, -99.0),
            stq_geom::Point::new(-98.0, -98.0),
        );
        let empty = QueryRegion::from_rect(&f.sensing, off_map);
        assert!(empty.is_empty() && empty.junctions().is_empty());
        let g = SampledGraph::unsampled(&f.sensing);
        for approx in [Approximation::Lower, Approximation::Upper] {
            assert!(crate::engine::QueryPlan::compile(&f.sensing, &g, &empty, approx).miss);
        }
    }

    #[test]
    fn empty_query_region() {
        let f = fixture();
        let q = QueryRegion::from_rect(
            &f.sensing,
            Rect::from_corners(
                stq_geom::Point::new(-99.0, -99.0),
                stq_geom::Point::new(-98.0, -98.0),
            ),
        );
        assert!(q.is_empty());
        let g = SampledGraph::unsampled(&f.sensing);
        let out = answer(
            &f.sensing,
            &g,
            &f.tracked.store,
            &q,
            QueryKind::Snapshot(1.0),
            Approximation::Lower,
        );
        assert!(out.miss);
    }
}
