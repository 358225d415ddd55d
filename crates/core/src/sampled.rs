//! Sampled sensing graphs `G̃` (paper §4.5).
//!
//! A sampled graph monitors only a subset of sensing links: the shortest-path
//! materialization of abstract edges between selected communication sensors
//! (triangulation or k-NN connectivity), or the boundary edges of
//! submodular-selected regions (§4.4). Because the materialized edge set is
//! a subgraph of the planar sensing graph `G`, `G̃` is planar for free — the
//! paper's "intersection nodes" are exactly the shared `G`-vertices.
//!
//! Faces of `G̃` are unions of junction cells, computed on the primal side as
//! connected components of the road graph minus the monitored roads
//! (`stq_planar::dual::subgraph_faces`).

use std::collections::HashSet;

use crate::query::Approximation;
use crate::sensing::{BitSet, SensingGraph};
use stq_geom::triangulate;
use stq_planar::dual::subgraph_faces;
use stq_planar::embedding::{FaceId, VertexId};
use stq_planar::paths::{bfs_hops, dijkstra};
use stq_spatial::KdTree;
use stq_submod::{cost_benefit_greedy, partition_atoms, AtomObjective};

/// Widest dual ring a failover detour may use (1 = classic single-ring).
const MAX_RING: usize = 3;

/// How abstract edges between sampled sensors are generated (§4.5, Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Connectivity {
    /// Delaunay triangulation of the sensor positions.
    Triangulation,
    /// Each sensor connects to its `k` nearest sampled neighbours.
    Knn(usize),
}

/// A sampled sensing graph.
#[derive(Clone, Debug)]
pub struct SampledGraph {
    /// Per road edge: is its dual sensing link monitored?
    monitored: Vec<bool>,
    /// The communication sensors (sampled faces).
    sensors: Vec<FaceId>,
    /// Face id of `G̃` for each junction (component of the cut road graph).
    component_of: Vec<usize>,
    /// Junctions of each `G̃` face, ascending.
    components: Vec<Vec<VertexId>>,
    /// The component containing `v_ext` — the unobservable outside world.
    ext_component: usize,
}

impl SampledGraph {
    /// The fully monitored graph (no sampling) — the exact baseline the
    /// relative error is measured against (§5.1.4).
    pub fn unsampled(sensing: &SensingGraph) -> Self {
        let monitored = vec![true; sensing.num_edges()];
        Self::finish(sensing, monitored, (0..sensing.num_faces()).collect())
    }

    /// Builds `G̃` from selected sensors: connect them per `conn`, then
    /// materialize each abstract edge as the shortest path in `G`.
    pub fn from_sensors(
        sensing: &SensingGraph,
        sensor_faces: &[FaceId],
        conn: Connectivity,
    ) -> Self {
        let positions: Vec<stq_geom::Point> = sensor_faces
            .iter()
            .map(|&f| sensing.sensor_pos(f).expect("sampled faces must host sensors"))
            .collect();

        // Abstract edges as index pairs into `sensor_faces`.
        let mut pairs: Vec<(usize, usize)> = match conn {
            Connectivity::Triangulation => triangulate(&positions).edges(),
            Connectivity::Knn(k) => {
                let entries: Vec<(stq_geom::Point, u32)> =
                    positions.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
                let tree = KdTree::build(&entries, 8);
                let mut es = Vec::new();
                for (i, &p) in positions.iter().enumerate() {
                    for n in tree.knn(p, k + 1) {
                        let j = n.id as usize;
                        if j != i {
                            es.push(if i < j { (i, j) } else { (j, i) });
                        }
                    }
                }
                es.sort_unstable();
                es.dedup();
                es
            }
        };
        // Degenerate sensor sets (collinear, < 3) may triangulate to nothing:
        // fall back to a nearest-neighbour chain so the graph is usable.
        if pairs.is_empty() && sensor_faces.len() >= 2 {
            for i in 1..sensor_faces.len() {
                pairs.push((i - 1, i));
            }
        }

        // Materialize: group by source, one Dijkstra per source.
        let mut by_source: Vec<Vec<usize>> = vec![Vec::new(); sensor_faces.len()];
        for &(a, b) in &pairs {
            by_source[a].push(b);
        }
        let mut monitored = vec![false; sensing.num_edges()];
        let adj = sensing.dual_adjacency();
        for (a, targets) in by_source.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let sp = dijkstra(adj, sensor_faces[a]);
            for &b in targets {
                if let Some((_, edges)) = sp.path_to(sensor_faces[b]) {
                    for e in edges {
                        monitored[e] = true;
                    }
                }
            }
        }
        Self::finish(sensing, monitored, sensor_faces.to_vec())
    }

    /// Query-adaptive construction (§4.4): partition the historical query
    /// regions into atoms, run cost-benefit greedy under `edge_budget`
    /// monitored edges, and monitor the selected atoms' boundaries.
    pub fn from_submodular(
        sensing: &SensingGraph,
        historical: &[Vec<VertexId>],
        edge_budget: f64,
    ) -> Self {
        let emb = sensing.road().embedding();
        let atoms = partition_atoms(historical, emb.edges(), emb.num_vertices());
        let sizes: Vec<usize> = historical.iter().map(|q| q.len()).collect();
        let obj = AtomObjective::new(atoms, sizes);
        let sel = cost_benefit_greedy(&obj, edge_budget);
        let mut monitored = vec![false; sensing.num_edges()];
        for e in obj.selected_edges(&sel) {
            monitored[e] = true;
        }
        // Communication sensors: faces incident to monitored edges.
        let mut sensors: Vec<FaceId> = monitored
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .flat_map(|(e, _)| {
                let (f, g) = sensing.dual().edge_faces[e];
                [f, g]
            })
            .filter(|&f| sensing.sensor_pos(f).is_some())
            .collect();
        sensors.sort_unstable();
        sensors.dedup();
        Self::finish(sensing, monitored, sensors)
    }

    fn finish(sensing: &SensingGraph, monitored: Vec<bool>, sensors: Vec<FaceId>) -> Self {
        let sf = subgraph_faces(sensing.road().embedding(), &monitored);
        let ext_component = sf.component_of[sensing.road().v_ext()];
        SampledGraph {
            monitored,
            sensors,
            component_of: sf.component_of,
            components: sf.members,
            ext_component,
        }
    }

    /// Per-edge monitoring flags.
    pub fn monitored(&self) -> &[bool] {
        &self.monitored
    }

    /// Number of monitored sensing links.
    pub fn num_monitored_edges(&self) -> usize {
        self.monitored.iter().filter(|&&m| m).count()
    }

    /// The communication sensors.
    pub fn sensors(&self) -> &[FaceId] {
        &self.sensors
    }

    /// Fraction of all placeable sensors that are communication sensors —
    /// the "size of the sampled graph" axis of the paper's figures.
    pub fn size_fraction(&self, sensing: &SensingGraph) -> f64 {
        self.sensors.len() as f64 / sensing.num_sensors().max(1) as f64
    }

    /// Face of `G̃` containing junction `j`.
    pub fn component_of(&self, j: VertexId) -> usize {
        self.component_of[j]
    }

    /// Faces of `G̃` as junction sets.
    pub fn components(&self) -> &[Vec<VertexId>] {
        &self.components
    }

    /// Resolves a junction set against `G̃` (§4.6, Fig. 7) — the only
    /// region resolution there is. `junctions` must be strictly increasing
    /// (sorted, no duplicates); the returned interior is too.
    ///
    /// - [`Approximation::Lower`] (`R₂`): the union of `G̃` faces fully
    ///   contained in the set.
    /// - [`Approximation::Upper`] (`R₁`): the union of `G̃` faces that
    ///   intersect it. The outside-world face (the one merged with `v_ext`)
    ///   can never be part of an answerable region: objects begin there
    ///   *before* tracking, so its boundary integral does not reflect a
    ///   population. If any junction falls in it, no valid upper bound
    ///   exists on this sampled graph and the empty interior (a query miss)
    ///   is returned.
    ///
    /// Nothing is sorted or hashed. `Lower` counts the slice's junctions per
    /// component: a component whose count equals its size is contained, so
    /// all its members are in the slice, and filtering the slice in order
    /// yields the interior already ascending. `Upper` marks each touched
    /// component's members once in a bitset over vertices and reads it back
    /// in ascending order. Either way the interior is allocated once, at its
    /// exact size: a cached plan keeps it for its lifetime.
    pub fn resolve(&self, junctions: &[VertexId], approx: Approximation) -> Vec<VertexId> {
        debug_assert!(junctions.windows(2).all(|w| w[0] < w[1]), "junctions strictly increasing");
        match approx {
            Approximation::Lower => {
                let mut seen = vec![0u32; self.components.len()];
                let mut len = 0;
                for &j in junctions {
                    let comp = self.component_of[j];
                    seen[comp] += 1;
                    if seen[comp] as usize == self.components[comp].len() {
                        len += self.components[comp].len();
                    }
                }
                let contained = |j: VertexId| {
                    let comp = self.component_of[j];
                    seen[comp] as usize == self.components[comp].len()
                };
                let mut interior = Vec::with_capacity(len);
                interior.extend(junctions.iter().copied().filter(|&j| contained(j)));
                interior
            }
            Approximation::Upper => {
                let mut marked = BitSet::new(self.component_of.len());
                let mut len = 0;
                for &j in junctions {
                    // A marked junction's whole component is marked already.
                    if marked.contains(j) {
                        continue;
                    }
                    let comp = self.component_of[j];
                    if comp == self.ext_component {
                        return Vec::new();
                    }
                    for &v in &self.components[comp] {
                        marked.insert(v);
                    }
                    len += self.components[comp].len();
                }
                let mut interior = Vec::with_capacity(len);
                interior.extend(marked.ones());
                interior
            }
        }
    }

    /// The component merged with the outside world.
    pub fn ext_component(&self) -> usize {
        self.ext_component
    }

    /// Describes every non-exterior component by its inward-oriented
    /// monitored boundary — the input the 1-form integrity auditor needs.
    /// The exterior component is excluded on purpose: its boundary contains
    /// the unmonitored entry ramps, so the outside world is not conserved
    /// from monitored data.
    pub fn audit_components(&self, sensing: &SensingGraph) -> Vec<stq_forms::ComponentSpec> {
        self.components
            .iter()
            .enumerate()
            .filter(|&(id, _)| id != self.ext_component)
            .map(|(id, junctions)| {
                let boundary = sensing
                    .boundary_walk(junctions, Some(&self.monitored))
                    .0
                    .into_iter()
                    .map(|be| (be.edge, be.inward_forward))
                    .collect();
                stq_forms::ComponentSpec { id, boundary }
            })
            .collect()
    }

    /// Quarantine: demotes `edges` to unmonitored and recomputes the faces.
    /// Components separated only by a quarantined edge merge, so the
    /// existing lower/upper resolution machinery automatically widens query
    /// answers to sound bounds — no corrupted count is ever integrated.
    pub fn demote_edges(&self, sensing: &SensingGraph, edges: &[usize]) -> SampledGraph {
        let mut monitored = self.monitored.clone();
        for &e in edges {
            monitored[e] = false;
        }
        Self::finish(sensing, monitored, self.sensors.clone())
    }

    /// Failover patch. For each dead monitored edge with dual faces `(f, g)`:
    ///
    /// 1. **Ring 1** — the cheapest live dual path `f → g` (the classic
    ///    detour cycle around the dead edge).
    /// 2. **Rings 2..=3** — when no single-ring detour survives
    ///    (the neighbourhood itself is riddled with failures), search for the
    ///    cheapest live path between *any* pair of faces within `r` dual
    ///    hops of `f` and of `g`. Monitoring that path still cuts the merged
    ///    region apart — just along a wider cycle that skirts the dead zone.
    ///
    /// Every edge the detour monitors is live, so the patch only ever
    /// *refines* the face partition (monitoring is monotone in granularity)
    /// and never integrates corrupted data. Detours through outside faces
    /// (≥ 1e9 penalty weights) would monitor ramps; such cuts stay open —
    /// demotion keeps the answers sound, just coarser. Edges in `dead` are
    /// never selected again.
    pub fn reroute_around(&self, sensing: &SensingGraph, dead: &[usize]) -> SampledGraph {
        self.reroute_within(sensing, dead, MAX_RING)
    }

    /// [`Self::reroute_around`] with detours at most `max_ring` dual rings wide.
    fn reroute_within(
        &self,
        sensing: &SensingGraph,
        dead: &[usize],
        max_ring: usize,
    ) -> SampledGraph {
        let dead_set: HashSet<usize> = dead.iter().copied().collect();
        // Live-only dual adjacency: dead sensing links cannot carry duty.
        let adj: stq_planar::paths::WeightedAdj = sensing
            .dual_adjacency()
            .iter()
            .map(|nbrs| nbrs.iter().copied().filter(|&(_, e, _)| !dead_set.contains(&e)).collect())
            .collect();
        // Unweighted *full* dual adjacency (dead edges included): rings are
        // topological neighbourhoods of the failure, not live reachability.
        let hops_adj: Vec<Vec<usize>> = sensing
            .dual_adjacency()
            .iter()
            .map(|n| n.iter().map(|&(v, _, _)| v).collect())
            .collect();
        let mut monitored = self.monitored.clone();
        for &e in dead {
            if !self.monitored[e] {
                continue;
            }
            monitored[e] = false;
            let (f, g) = sensing.dual().edge_faces[e];
            let sp = dijkstra(&adj, f);
            if sp.dist[g] < 1e9 {
                if let Some((_, edges)) = sp.path_to(g) {
                    for pe in edges {
                        monitored[pe] = true;
                    }
                }
                continue;
            }
            if max_ring < 2 {
                continue;
            }
            // Ring escalation: cheapest live path between the two widening
            // neighbourhoods of the dead edge's endpoints.
            let from_f = bfs_hops(&hops_adj, f);
            let from_g = bfs_hops(&hops_adj, g);
            'rings: for r in 2..=max_ring {
                let near_f: Vec<usize> =
                    (0..hops_adj.len()).filter(|&x| from_f[x] <= r && x != g).collect();
                let near_g: HashSet<usize> =
                    (0..hops_adj.len()).filter(|&x| from_g[x] <= r && x != f).collect();
                let mut best: Option<(f64, usize, usize)> = None;
                for &fp in &near_f {
                    let sp = dijkstra(&adj, fp);
                    for &gp in &near_g {
                        if gp != fp
                            && sp.dist[gp] < 1e9
                            && sp.dist[gp] < best.map_or(f64::INFINITY, |(d, _, _)| d)
                        {
                            best = Some((sp.dist[gp], fp, gp));
                        }
                    }
                }
                if let Some((_, fp, gp)) = best {
                    let sp = dijkstra(&adj, fp);
                    if let Some((_, edges)) = sp.path_to(gp) {
                        for pe in edges {
                            monitored[pe] = true;
                        }
                    }
                    break 'rings;
                }
            }
        }
        // A detour may itself have been killed: never monitor a dead edge.
        for &e in dead {
            monitored[e] = false;
        }
        Self::finish(sensing, monitored, self.sensors.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_mobility::gen::{delaunay_city, perturbed_grid};

    fn sensing() -> SensingGraph {
        SensingGraph::new(delaunay_city(150, 0.15, 6, 17).unwrap())
    }

    fn sampled(sensing: &SensingGraph, frac: f64, conn: Connectivity) -> SampledGraph {
        let cands = sensing.sensor_candidates();
        let m = ((cands.len() as f64 * frac) as usize).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, m, 7);
        let faces: Vec<usize> = ids.into_iter().map(|f| f as usize).collect();
        SampledGraph::from_sensors(sensing, &faces, conn)
    }

    #[test]
    fn unsampled_components_are_singletons() {
        let s = SensingGraph::new(perturbed_grid(5, 5, 0.1, 0.0, 4, 1).unwrap());
        let g = SampledGraph::unsampled(&s);
        assert_eq!(g.components().len(), s.road().embedding().num_vertices());
        assert!(g.components().iter().all(|c| c.len() == 1));
        assert_eq!(g.num_monitored_edges(), s.num_edges());
    }

    #[test]
    fn sampled_graph_monitors_subset() {
        let s = sensing();
        let g = sampled(&s, 0.15, Connectivity::Triangulation);
        assert!(g.num_monitored_edges() > 0);
        assert!(g.num_monitored_edges() < s.num_edges());
        // Never monitors ramps (their dual faces host no sensors).
        for &r in s.road().ramps() {
            assert!(!g.monitored()[r], "ramp {r} must stay unmonitored");
        }
    }

    #[test]
    fn components_partition_junctions() {
        let s = sensing();
        let g = sampled(&s, 0.1, Connectivity::Triangulation);
        let total: usize = g.components().iter().map(|c| c.len()).sum();
        assert_eq!(total, s.road().embedding().num_vertices());
    }

    #[test]
    fn lower_resolution_is_contained_in_query() {
        let s = sensing();
        let g = sampled(&s, 0.2, Connectivity::Triangulation);
        let rect = {
            let bb = s.road().bbox();
            stq_geom::Rect::from_corners(bb.min, bb.min.lerp(bb.max, 0.6))
        };
        let query = s.junctions_in_rect(&rect);
        let lower = g.resolve(&query, Approximation::Lower);
        assert!(lower.iter().all(|j| query.contains(j)));
        let upper = g.resolve(&query, Approximation::Upper);
        if !upper.is_empty() {
            // Non-missed upper bounds contain the query and the lower bound.
            assert!(query.iter().all(|j| upper.contains(j)));
            assert!(lower.iter().all(|j| upper.contains(j)));
        }
    }

    #[test]
    fn resolve_takes_whole_components_of_a_coarse_graph() {
        let s = sensing();
        let fine = sampled(&s, 0.4, Connectivity::Triangulation);
        let some: Vec<usize> =
            (0..s.num_edges()).filter(|&e| fine.monitored()[e]).step_by(5).collect();
        let g = fine.demote_edges(&s, &some);
        assert!(g.components().len() < fine.components().len(), "demotion merges faces");
        let ext = g.ext_component();
        let mut inner: Vec<&Vec<VertexId>> =
            (0..g.components().len()).filter(|&c| c != ext).map(|c| &g.components()[c]).collect();
        inner.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let (big, small) = (inner[0], inner[1]);
        assert!(big.len() >= 3, "components span several junctions");
        let strictly_increasing = |v: &[VertexId]| v.windows(2).all(|w| w[0] < w[1]);
        let union = |a: &[VertexId], b: &[VertexId]| {
            let mut u = [a, b].concat();
            u.sort_unstable();
            u
        };

        // `big` less one member, plus all of `small`.
        let query = union(&big[1..], small);
        let lower = g.resolve(&query, Approximation::Lower);
        let upper = g.resolve(&query, Approximation::Upper);
        assert_eq!(lower, *small, "a component missing a member is not contained");
        assert_eq!(upper, union(big, small), "an intersected component is taken whole");

        // One junction of the outside-world component empties `Upper` only.
        let outside = g.components()[ext].iter().copied().find(|&v| v != s.road().v_ext());
        let outside = outside.expect("the outside-world component holds a junction");
        let query = union(&query, &[outside]);
        assert!(g.resolve(&query, Approximation::Upper).is_empty());
        assert_eq!(g.resolve(&query, Approximation::Lower), *small);

        for approx in [Approximation::Lower, Approximation::Upper] {
            assert!(g.resolve(&[], approx).is_empty());
        }
        assert!([lower, upper].iter().all(|v| strictly_increasing(v)));
    }

    #[test]
    fn lower_boundary_edges_all_monitored() {
        let s = sensing();
        let g = sampled(&s, 0.15, Connectivity::Knn(4));
        let bb = s.road().bbox();
        let rect = stq_geom::Rect::from_corners(bb.min.lerp(bb.max, 0.2), bb.min.lerp(bb.max, 0.8));
        let lower = g.resolve(&s.junctions_in_rect(&rect), Approximation::Lower);
        if lower.is_empty() {
            return; // miss: nothing to check
        }
        // boundary_walk debug_asserts monitoring; also check explicitly.
        let (b, _) = s.boundary_walk(&lower, Some(g.monitored()));
        assert!(!b.is_empty());
        for be in &b {
            assert!(g.monitored()[be.edge]);
        }
    }

    #[test]
    fn knn_monitors_more_with_larger_k() {
        let s = sensing();
        let g3 = sampled(&s, 0.15, Connectivity::Knn(3));
        let g8 = sampled(&s, 0.15, Connectivity::Knn(8));
        assert!(g8.num_monitored_edges() >= g3.num_monitored_edges());
        // More monitored edges → more (finer) faces.
        assert!(g8.components().len() >= g3.components().len());
    }

    #[test]
    fn bigger_samples_refine_faces() {
        let s = sensing();
        let g_small = sampled(&s, 0.05, Connectivity::Triangulation);
        let g_large = sampled(&s, 0.4, Connectivity::Triangulation);
        assert!(g_large.components().len() > g_small.components().len());
    }

    #[test]
    fn multi_ring_reroute_survives_a_dead_neighbourhood() {
        let s = sensing();
        let g = sampled(&s, 0.25, Connectivity::Triangulation);
        // Kill one monitored edge plus every dual link around one of its
        // endpoint faces: no single-ring detour can survive, so ring-1
        // rerouting restores nothing around this failure.
        let e = g.monitored().iter().position(|&m| m).unwrap();
        let (f, _) = s.dual().edge_faces[e];
        let mut dead: Vec<usize> = s.dual_adjacency()[f].iter().map(|&(_, de, _)| de).collect();
        dead.push(e);
        dead.sort_unstable();
        dead.dedup();
        let single = g.reroute_within(&s, &dead, 1);
        let multi = g.reroute_around(&s, &dead);
        for &de in &dead {
            assert!(!multi.monitored()[de], "dead edges stay unmonitored");
        }
        // Wider rings may only add live cuts: granularity is monotone.
        assert!(multi.num_monitored_edges() >= single.num_monitored_edges());
        assert!(multi.components().len() >= single.components().len());
    }

    #[test]
    fn submodular_graph_covers_historical_queries() {
        let s = sensing();
        let bb = s.road().bbox();
        // Two disjoint historical regions.
        let q1: Vec<usize> =
            s.junctions_in_rect(&stq_geom::Rect::from_corners(bb.min, bb.min.lerp(bb.max, 0.35)));
        let q2: Vec<usize> =
            s.junctions_in_rect(&stq_geom::Rect::from_corners(bb.min.lerp(bb.max, 0.6), bb.max));
        assert!(!q1.is_empty() && !q2.is_empty());
        let g = SampledGraph::from_submodular(&s, &[q1.clone(), q2.clone()], 1e9);
        // With an unlimited budget both historical regions resolve exactly.
        assert_eq!(g.resolve(&q1, Approximation::Lower), q1);
    }

    #[test]
    fn submodular_budget_limits_edges() {
        let s = sensing();
        let bb = s.road().bbox();
        let q1: Vec<usize> =
            s.junctions_in_rect(&stq_geom::Rect::from_corners(bb.min, bb.min.lerp(bb.max, 0.5)));
        let budget = 10.0;
        let g = SampledGraph::from_submodular(&s, &[q1], budget);
        assert!(g.num_monitored_edges() <= budget as usize);
    }
}
