//! The sensing graph `G`: dual of the road network (paper §3.2).

use stq_geom::{Point, Polygon, Rect};
use stq_mobility::RoadNetwork;
use stq_planar::dual::DualGraph;
use stq_planar::embedding::{Embedding, FaceId, Faces, VertexId};
use stq_planar::paths::WeightedAdj;
use stq_spatial::GridIndex;

use stq_forms::BoundaryEdge;

/// A fixed-size bitset, allocated per call: membership without hashing.
pub(crate) struct BitSet(Vec<u64>);

impl BitSet {
    pub(crate) fn new(len: usize) -> Self {
        BitSet(vec![0; len.div_ceil(64)])
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    pub(crate) fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set members, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// The single boundary walk, over the two structures it reads: the road
/// embedding and its dual.
///
/// Membership is a per-call bitset over vertices, the sensor count a bitset
/// over faces; nothing is hashed. No "edge already emitted" set is needed:
/// an edge with exactly one endpoint inside has exactly one half-edge
/// leaving an interior vertex, and that half-edge appears once in its
/// origin's rotation. A loop has both endpoints on the same side and is
/// never a boundary edge; parallel edges are distinct edges and are each
/// emitted.
fn walk_boundary(
    emb: &Embedding,
    dual: &DualGraph,
    interior: &[VertexId],
    monitored: Option<&[bool]>,
) -> (Vec<BoundaryEdge>, usize) {
    debug_assert!(interior.windows(2).all(|w| w[0] < w[1]), "interior strictly increasing");
    let mut inside = BitSet::new(emb.num_vertices());
    for &u in interior {
        inside.insert(u);
    }
    let mut sensors = BitSet::new(dual.num_vertices);
    let mut chain = Vec::new();
    for &u in interior {
        for &h in emb.rotation(u) {
            if inside.contains(emb.target(h)) {
                continue;
            }
            let e = emb.edge_of(h);
            if let Some(mon) = monitored {
                debug_assert!(mon[e], "boundary edge {e} of a sampled region must be monitored");
                if !mon[e] {
                    continue;
                }
            }
            let (f, g) = dual.edge_faces[e];
            sensors.insert(f);
            sensors.insert(g);
            // `h` leaves the region, so the edge's forward direction points
            // inward exactly when `h` is its backward half.
            chain.push(BoundaryEdge::new(e, h != 2 * e));
        }
    }
    (chain, sensors.count())
}

/// The sensing graph: one sensor per road-network face (city block), one
/// communication link per road edge, one sensing cell per junction.
///
/// Everything is indexed on the primal (road) side — vertex–edge duality
/// makes that lossless: sensing edge `e` *is* road edge `e`, sensing cell
/// `j` *is* junction `j`, sensor `f` *is* road face `f`.
#[derive(Clone, Debug)]
pub struct SensingGraph {
    road: RoadNetwork,
    faces: Faces,
    dual: DualGraph,
    /// Interior point of each face's polygon — the sensor's physical
    /// location. `None` for the faces incident to `v_ext` (the outside
    /// world has no sensor).
    sensor_pos: Vec<Option<Point>>,
    /// Junction lookup grid for rectangle queries.
    junction_grid: GridIndex,
    /// Cached dual adjacency for shortest-path materialization.
    dual_adj: WeightedAdj,
}

impl SensingGraph {
    /// Builds the sensing graph of a road network.
    pub fn new(road: RoadNetwork) -> Self {
        let emb = road.embedding();
        let faces = emb.faces();
        let dual = DualGraph::new(emb, &faces);

        // Sensor positions: interior points of fully-positioned face walks.
        let mut sensor_pos: Vec<Option<Point>> = Vec::with_capacity(faces.walks.len());
        for walk in &faces.walks {
            let verts: Vec<Option<Point>> =
                walk.iter().map(|&h| emb.position(emb.origin(h))).collect();
            let pos = if verts.iter().all(|p| p.is_some()) && walk.len() >= 3 {
                let pts: Vec<Point> = verts.into_iter().flatten().collect();
                let poly = Polygon::new(pts);
                // Interior faces (positive area) host sensors; the outer
                // face does not.
                if poly.signed_area() > 0.0 {
                    Some(poly.interior_point())
                } else {
                    None
                }
            } else {
                None
            };
            sensor_pos.push(pos);
        }

        // Junction grid.
        let entries: Vec<(Point, u32)> =
            road.junctions().map(|v| (road.position(v), v as u32)).collect();
        let g = ((entries.len() as f64).sqrt().ceil() as usize).max(1);
        let junction_grid = GridIndex::build(&entries, g, g);

        // Dual adjacency with Euclidean weights between sensor positions;
        // links touching sensorless faces are prohibitively expensive so
        // sampled-graph paths stay inside the monitored area.
        let mut dual_adj: WeightedAdj = vec![Vec::new(); dual.num_vertices];
        for (e, &(f, g2)) in dual.edge_faces.iter().enumerate() {
            if f == g2 {
                continue; // bridge loops carry no routing value
            }
            let w = match (sensor_pos[f], sensor_pos[g2]) {
                (Some(a), Some(b)) => a.dist(b).max(1e-9),
                _ => 1e15,
            };
            dual_adj[f].push((g2, e, w));
            dual_adj[g2].push((f, e, w));
        }

        SensingGraph { road, faces, dual, sensor_pos, junction_grid, dual_adj }
    }

    /// The underlying road network.
    pub fn road(&self) -> &RoadNetwork {
        &self.road
    }

    /// Faces of the road network (= sensors + outside).
    pub fn faces(&self) -> &Faces {
        &self.faces
    }

    /// The dual graph bookkeeping.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// Weighted dual adjacency (sensor-to-sensor communication links).
    pub fn dual_adjacency(&self) -> &WeightedAdj {
        &self.dual_adj
    }

    /// Total number of faces (interior sensors + sensorless outside faces).
    pub fn num_faces(&self) -> usize {
        self.faces.walks.len()
    }

    /// Number of road edges (= sensing-graph links).
    pub fn num_edges(&self) -> usize {
        self.road.embedding().num_edges()
    }

    /// Sensor position of face `f`, `None` for the outside faces.
    pub fn sensor_pos(&self, f: FaceId) -> Option<Point> {
        self.sensor_pos[f]
    }

    /// All sensor-bearing faces with their positions — the candidate set for
    /// the sampling methods of §4.3.
    pub fn sensor_candidates(&self) -> Vec<(Point, u32)> {
        self.sensor_pos.iter().enumerate().filter_map(|(f, p)| p.map(|p| (p, f as u32))).collect()
    }

    /// Number of placeable sensors (interior faces).
    pub fn num_sensors(&self) -> usize {
        self.sensor_pos.iter().flatten().count()
    }

    /// Sensors whose position falls inside `rect` — what a centralized or
    /// axis-aligned in-network system must flood for this query (§2.3).
    pub fn sensors_in_rect(&self, rect: &Rect) -> Vec<FaceId> {
        self.sensor_pos
            .iter()
            .enumerate()
            .filter(|&(_, p)| p.map(|p| rect.contains(p)).unwrap_or(false))
            .map(|(f, _)| f)
            .collect()
    }

    /// Junctions inside `rect`, excluding `v_ext` — a rectangle query region
    /// converted to sensing cells (paper §5.1.5).
    pub fn junctions_in_rect(&self, rect: &Rect) -> Vec<VertexId> {
        // `iter()`, not `into_iter()`: collecting in place would hand back
        // the grid's entry buffer (three times the bytes, plus its growth
        // slack), and a `QueryRegion` keeps this vector for its lifetime.
        let mut out: Vec<VertexId> =
            self.junction_grid.range(rect).iter().map(|e| e.id as usize).collect();
        out.sort_unstable();
        out
    }

    /// Boundary chain of a junction set `U`: every edge with exactly one
    /// endpoint in `U`, oriented inward, plus the number of distinct sensors
    /// (dual faces) incident to it. `interior` must be strictly increasing
    /// (sorted, no duplicates). With `monitored = None` all edges qualify
    /// (the unsampled graph); otherwise only monitored edges do — in a valid
    /// sampled region the caller guarantees every boundary edge is
    /// monitored, which `debug_assert`s in the walk verify.
    ///
    /// Vertices are visited in slice order and each one's half-edges in
    /// rotation order, so the emitted chain — and therefore the order of
    /// every floating-point fold over it — is a function of the region's
    /// *contents* and the embedding, not of any container's iteration
    /// order. Plan fingerprints and bit-identity tests rely on this.
    pub fn boundary_walk(
        &self,
        interior: &[VertexId],
        monitored: Option<&[bool]>,
    ) -> (Vec<BoundaryEdge>, usize) {
        walk_boundary(self.road.embedding(), &self.dual, interior, monitored)
    }

    /// Distinct sensors (faces) incident to a boundary chain — the nodes a
    /// perimeter-based query actually contacts.
    pub fn boundary_sensors(&self, boundary: &[BoundaryEdge]) -> Vec<FaceId> {
        let mut fs: Vec<FaceId> = boundary
            .iter()
            .flat_map(|be| {
                let (f, g) = self.dual.edge_faces[be.edge];
                [f, g]
            })
            .collect();
        fs.sort_unstable();
        fs.dedup();
        fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use stq_mobility::gen::perturbed_grid;

    fn sensing() -> SensingGraph {
        SensingGraph::new(perturbed_grid(5, 5, 0.1, 0.0, 4, 3).unwrap())
    }

    #[test]
    fn sensor_counts() {
        let s = sensing();
        // A 5x5 lattice has 16 interior blocks.
        assert_eq!(s.num_sensors(), 16);
        assert_eq!(s.sensor_candidates().len(), 16);
        // All candidate positions are inside the network bbox.
        let bb = s.road().bbox().inflated(1e-6);
        for (p, _) in s.sensor_candidates() {
            assert!(bb.contains(p));
        }
    }

    #[test]
    fn junction_rect_lookup() {
        let s = sensing();
        let all = s.junctions_in_rect(&s.road().bbox().inflated(1.0));
        assert_eq!(all.len(), 25);
        assert!(!all.contains(&s.road().v_ext()));
        let empty = s.junctions_in_rect(&Rect::from_corners(
            Point::new(-50.0, -50.0),
            Point::new(-40.0, -40.0),
        ));
        assert!(empty.is_empty());
    }

    #[test]
    fn boundary_orientation_inward() {
        let s = sensing();
        let emb = s.road().embedding();
        // Single-junction region: all incident edges are boundary, inward.
        let u = 12; // centre of the 5x5 lattice
        let (b, _) = s.boundary_walk(&[u], None);
        assert_eq!(b.len(), emb.degree(u));
        for be in &b {
            let (a, bb) = emb.edge_endpoints(be.edge);
            let head = if be.inward_forward { bb } else { a };
            assert_eq!(head, u, "inward orientation must point at the region");
        }
    }

    /// The argument that lets the walk go without an "already emitted" set:
    /// on an embedding with self-loops and a pair of parallel edges, every
    /// crossing edge of every vertex subset is emitted exactly once, inward,
    /// loops never, parallels both.
    #[test]
    fn walk_emits_each_crossing_edge_once_with_loops_and_parallels() {
        // e0 = (0,1) and e1 = (1,0) are parallel with opposite construction
        // directions; e2 = (0,0) and e4 = (2,2) are loops; e3 = (1,2).
        let edges = vec![(0, 1), (1, 0), (0, 0), (1, 2), (2, 2)];
        let rotations = vec![vec![0, 3, 4, 5], vec![1, 2, 6], vec![7, 8, 9]];
        let emb = Embedding::from_rotations(vec![None; 3], edges.clone(), rotations).unwrap();
        let dual = DualGraph::new(&emb, &emb.faces());
        for mask in 0u32..8 {
            let interior: Vec<usize> = (0..3).filter(|&v| mask & (1 << v) != 0).collect();
            let (chain, sensors) = walk_boundary(&emb, &dual, &interior, None);
            let mut emitted: Vec<usize> = chain.iter().map(|be| be.edge).collect();
            emitted.sort_unstable();
            let crossing: Vec<usize> = (0..edges.len())
                .filter(|&e| interior.contains(&edges[e].0) != interior.contains(&edges[e].1))
                .collect();
            assert_eq!(emitted, crossing, "interior {interior:?}");
            for be in &chain {
                let (tail, head) = edges[be.edge];
                let points_at = if be.inward_forward { head } else { tail };
                assert!(interior.contains(&points_at), "edge {} of {interior:?}", be.edge);
            }
            let mut faces: Vec<usize> = chain
                .iter()
                .flat_map(|be| {
                    let (f, g) = dual.edge_faces[be.edge];
                    [f, g]
                })
                .collect();
            faces.sort_unstable();
            faces.dedup();
            assert_eq!(sensors, faces.len(), "interior {interior:?}");
        }
        // Slice order × rotation order: both parallels, in vertex 0's rotation.
        let (chain, _) = walk_boundary(&emb, &dual, &[0], None);
        assert_eq!(chain, vec![BoundaryEdge::new(0, false), BoundaryEdge::new(1, true)]);
    }

    #[test]
    fn interior_edges_excluded_from_boundary() {
        let s = sensing();
        // A 2x2 block of junctions: 12, 13, 17, 18 on the 5-lattice.
        let region = [12, 13, 17, 18];
        let (b, _) = s.boundary_walk(&region, None);
        for be in &b {
            let (a, bb) = s.road().embedding().edge_endpoints(be.edge);
            assert_ne!(region.contains(&a), region.contains(&bb));
        }
        // Interior edges: (12,13), (17,18), (12,17), (13,18) — none listed.
        let ids: HashSet<usize> = b.iter().map(|be| be.edge).collect();
        for &(u, v) in &[(12, 13), (17, 18), (12, 17), (13, 18)] {
            let e = s.road().edge_between(u, v).unwrap();
            assert!(!ids.contains(&e));
        }
    }

    #[test]
    fn boundary_sensors_are_adjacent_faces() {
        let s = sensing();
        let (b, _) = s.boundary_walk(&[12], None);
        let sensors = s.boundary_sensors(&b);
        // The four blocks around the centre junction.
        assert_eq!(sensors.len(), 4);
        for f in sensors {
            assert!(s.sensor_pos(f).is_some());
        }
    }

    #[test]
    fn sensors_in_rect_subset() {
        let s = sensing();
        let half = Rect::from_corners(Point::new(-0.5, -0.5), Point::new(2.0, 4.5));
        let inside = s.sensors_in_rect(&half);
        assert!(!inside.is_empty());
        assert!(inside.len() < s.num_sensors());
    }

    #[test]
    fn dual_adjacency_avoids_outside() {
        let s = sensing();
        for (f, adj) in s.dual_adjacency().iter().enumerate() {
            for &(g, _, w) in adj {
                if s.sensor_pos(f).is_some() && s.sensor_pos(g).is_some() {
                    assert!(w < 1e9);
                } else {
                    assert!(w >= 1e9);
                }
            }
        }
    }
}
