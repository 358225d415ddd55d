//! Road networks: embedded planar graphs with an external junction.

use std::collections::HashMap;

use stq_geom::{Point, Rect};
use stq_planar::embedding::{EdgeId, VertexId};
use stq_planar::paths::{PathFinder, WeightedAdj};
use stq_planar::Embedding;

/// Errors from road-network construction.
#[derive(Clone, Debug, PartialEq)]
pub enum NetworkError {
    /// Underlying embedding construction failed.
    Embedding(String),
    /// The road graph must be connected so every junction is reachable.
    Disconnected,
    /// An interior face had non-positive area — the geometry self-intersects.
    SelfIntersecting,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Embedding(e) => write!(f, "embedding error: {e}"),
            NetworkError::Disconnected => write!(f, "road graph is disconnected"),
            NetworkError::SelfIntersecting => write!(f, "road geometry self-intersects"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A planar road network: the paper's mobility graph `⋆G`.
///
/// Junctions are embedding vertices with positions; roads are edges. One
/// distinguished position-less vertex `v_ext` represents the outside world
/// (the paper's infinity node `⋆v_ext`): every object enters and leaves the
/// monitored region by traversing a *ramp* edge incident to it, which is what
/// keeps the differential-form population invariant exact.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    emb: Embedding,
    v_ext: VertexId,
    /// Edge ids of the ramps (incident to `v_ext`).
    ramps: Vec<EdgeId>,
    /// Lookup `(min(u,v), max(u,v)) → edge id`. The generated road graphs
    /// are simple, so a single id per pair suffices.
    edge_lookup: HashMap<(VertexId, VertexId), EdgeId>,
    /// Cached per-edge lengths; ramps get a nominal length of 0.
    lengths: Vec<f64>,
    bbox: Rect,
}

impl RoadNetwork {
    /// Builds a road network from junction coordinates and road segments,
    /// then attaches the external junction to `num_ramps` junctions spread
    /// evenly along the outer face. The segments must not cross: geometry
    /// whose traced faces are not a plane subdivision (a broken Euler count
    /// or an interior face of non-positive area) is refused as
    /// [`NetworkError::SelfIntersecting`], a graph in pieces as
    /// [`NetworkError::Disconnected`].
    pub fn new(
        positions: Vec<Point>,
        edges: Vec<(VertexId, VertexId)>,
        num_ramps: usize,
    ) -> Result<Self, NetworkError> {
        let base = Embedding::from_geometry(positions, edges)
            .map_err(|e| NetworkError::Embedding(e.to_string()))?;
        if !base.is_planar_connected() {
            // Distinguish the two failure modes for the caller. Connectivity
            // first: a disconnected graph also skews the Euler count (each
            // component traces its own outer face).
            let mut uf = stq_planar::UnionFind::new(base.num_vertices());
            for &(u, v) in base.edges() {
                uf.union(u, v);
            }
            let mut roots: Vec<usize> = (0..base.num_vertices())
                .filter(|&v| base.degree(v) > 0)
                .map(|v| uf.find(v))
                .collect();
            roots.sort_unstable();
            roots.dedup();
            if roots.len() > 1 {
                return Err(NetworkError::Disconnected);
            }
            return Err(NetworkError::SelfIntersecting);
        }
        let faces = base.faces();
        // Interior faces of a valid plane graph have positive area.
        let outer = base.outer_face(&faces).ok_or(NetworkError::SelfIntersecting)?;
        for (fid, walk) in faces.walks.iter().enumerate() {
            if fid == outer {
                continue;
            }
            if base.face_signed_area(walk).map(|a| a <= 0.0).unwrap_or(true) {
                return Err(NetworkError::SelfIntersecting);
            }
        }

        // Pick ramp junctions spread evenly along the outer face walk.
        let outer_vertices: Vec<VertexId> = {
            let mut seen = Vec::new();
            for &h in &faces.walks[outer] {
                let v = base.origin(h);
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
            seen
        };
        let k = num_ramps.clamp(1, outer_vertices.len());
        let attach: Vec<VertexId> =
            (0..k).map(|i| outer_vertices[i * outer_vertices.len() / k]).collect();

        let (emb, v_ext) = base
            .attach_vertex_in_face(&faces, outer, &attach)
            .map_err(|e| NetworkError::Embedding(e.to_string()))?;

        let mut edge_lookup = HashMap::with_capacity(emb.num_edges());
        let mut lengths = Vec::with_capacity(emb.num_edges());
        let mut ramps = Vec::new();
        for e in 0..emb.num_edges() {
            let (u, v) = emb.edge_endpoints(e);
            edge_lookup.insert(Self::key(u, v), e);
            match emb.edge_length(e) {
                Some(l) => lengths.push(l),
                None => {
                    lengths.push(0.0);
                    ramps.push(e);
                }
            }
        }
        let pts: Vec<Point> = emb.positions().iter().flatten().copied().collect();
        let bbox = Rect::bounding(&pts).unwrap_or_else(Rect::empty);
        Ok(RoadNetwork { emb, v_ext, ramps, edge_lookup, lengths, bbox })
    }

    #[inline]
    fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// The underlying embedding (includes `v_ext` and the ramps).
    pub fn embedding(&self) -> &Embedding {
        &self.emb
    }

    /// The external junction.
    pub fn v_ext(&self) -> VertexId {
        self.v_ext
    }

    /// Edge ids of the ramps to the outside world.
    pub fn ramps(&self) -> &[EdgeId] {
        &self.ramps
    }

    /// Number of junctions, excluding `v_ext`.
    pub fn num_junctions(&self) -> usize {
        self.emb.num_vertices() - 1
    }

    /// Number of road edges, including ramps.
    pub fn num_edges(&self) -> usize {
        self.emb.num_edges()
    }

    /// Junction ids (excludes `v_ext`).
    pub fn junctions(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.emb.num_vertices()).filter(move |&v| v != self.v_ext)
    }

    /// Position of a junction. Panics for `v_ext` (it has none).
    pub fn position(&self, v: VertexId) -> Point {
        self.emb.position(v).expect("junction has a position; v_ext does not")
    }

    /// Bounding box of all junction positions.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Length of edge `e` (0 for ramps).
    pub fn edge_length(&self, e: EdgeId) -> f64 {
        self.lengths[e]
    }

    /// Looks up the edge between two adjacent vertices.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.edge_lookup.get(&Self::key(u, v)).copied()
    }

    /// True if traversing edge `e` from `u` goes in the edge's construction
    /// (forward) direction. Panics if `u` is not an endpoint.
    pub fn is_forward_from(&self, e: EdgeId, u: VertexId) -> bool {
        let (a, b) = self.emb.edge_endpoints(e);
        if u == a {
            true
        } else if u == b {
            false
        } else {
            panic!("vertex {u} is not an endpoint of edge {e}");
        }
    }

    /// Weighted adjacency over *all* vertices (including `v_ext`), ramps
    /// weighted by `ramp_weight` (use a large value to discourage routing
    /// through the outside world, 0 for instant entry walks).
    pub fn adjacency(&self, ramp_weight: f64) -> WeightedAdj {
        let mut adj: WeightedAdj = vec![Vec::new(); self.emb.num_vertices()];
        for e in 0..self.emb.num_edges() {
            let (u, v) = self.emb.edge_endpoints(e);
            let w = if self.lengths[e] == 0.0 { ramp_weight } else { self.lengths[e] };
            adj[u].push((v, e, w));
            adj[v].push((u, e, w));
        }
        adj
    }

    /// Shortest junction path `from → to` avoiding the outside world
    /// (ramps weighted prohibitively). Returns `(vertices, edges)`.
    pub fn shortest_path(
        &self,
        from: VertexId,
        to: VertexId,
    ) -> Option<(Vec<VertexId>, Vec<EdgeId>)> {
        Router::new(self).path(from, to)
    }

    /// Junctions adjacent to `v_ext` (the entry/exit gates).
    pub fn gate_junctions(&self) -> Vec<VertexId> {
        self.ramps
            .iter()
            .map(|&e| {
                let (u, v) = self.emb.edge_endpoints(e);
                if u == self.v_ext {
                    v
                } else {
                    u
                }
            })
            .collect()
    }
}

/// Shortest junction paths over one network, avoiding the outside world,
/// from one goal-directed search whose scratch every query reuses.
///
/// The bound is the straight-line distance to the target, and 0 at `v_ext`,
/// which has no position. It is admissible and consistent because every
/// road weighs its segment's Euclidean length (the same `Point::dist` the
/// bound takes), and a ramp weighs `∞/4`, which no bound exceeds. So each
/// path is a shortest path of the plain-Dijkstra search, and the same one
/// wherever the shortest path is unique (see [`PathFinder`]).
pub(crate) struct Router<'a> {
    net: &'a RoadNetwork,
    adj: WeightedAdj,
    finder: PathFinder,
}

impl<'a> Router<'a> {
    pub(crate) fn new(net: &'a RoadNetwork) -> Self {
        Router { net, adj: net.adjacency(f64::INFINITY / 4.0), finder: PathFinder::new() }
    }

    /// Shortest path `from → to` as `(vertices, edges)`.
    pub(crate) fn path(
        &mut self,
        from: VertexId,
        to: VertexId,
    ) -> Option<(Vec<VertexId>, Vec<EdgeId>)> {
        let emb = &self.net.emb;
        match emb.position(to) {
            Some(goal) => self
                .finder
                .path(&self.adj, from, to, |v| emb.position(v).map_or(0.0, |p| p.dist(goal))),
            None => self.finder.path(&self.adj, from, to, |_| 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> (Vec<Point>, Vec<(usize, usize)>) {
        let mut pos = Vec::new();
        for y in 0..n {
            for x in 0..n {
                pos.push(Point::new(x as f64, y as f64));
            }
        }
        let mut edges = Vec::new();
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if x + 1 < n {
                    edges.push((i, i + 1));
                }
                if y + 1 < n {
                    edges.push((i, i + n));
                }
            }
        }
        (pos, edges)
    }

    #[test]
    fn build_lattice_network() {
        let (pos, edges) = lattice(4);
        let net = RoadNetwork::new(pos, edges, 4).unwrap();
        assert_eq!(net.num_junctions(), 16);
        assert_eq!(net.ramps().len(), 4);
        assert_eq!(net.gate_junctions().len(), 4);
        // Embedding stays planar after attaching v_ext.
        assert_eq!(net.embedding().euler_characteristic(), 2);
    }

    #[test]
    fn shortest_path_avoids_outside() {
        let (pos, edges) = lattice(4);
        let net = RoadNetwork::new(pos, edges, 4).unwrap();
        let (verts, es) = net.shortest_path(0, 15).unwrap();
        assert_eq!(verts.first(), Some(&0));
        assert_eq!(verts.last(), Some(&15));
        assert_eq!(es.len(), 6); // Manhattan distance on the lattice
        assert!(!verts.contains(&net.v_ext()));
    }

    #[test]
    fn edge_lookup_and_direction() {
        let (pos, edges) = lattice(3);
        let net = RoadNetwork::new(pos, edges, 2).unwrap();
        let e = net.edge_between(0, 1).unwrap();
        assert!(net.is_forward_from(e, 0));
        assert!(!net.is_forward_from(e, 1));
        assert!(net.edge_between(0, 8).is_none());
    }

    #[test]
    #[should_panic]
    fn is_forward_from_bad_vertex_panics() {
        let (pos, edges) = lattice(3);
        let net = RoadNetwork::new(pos, edges, 2).unwrap();
        let e = net.edge_between(0, 1).unwrap();
        net.is_forward_from(e, 5);
    }

    #[test]
    fn disconnected_rejected() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(6.0, 5.0),
        ];
        let edges = vec![(0, 1), (2, 3)];
        assert!(matches!(RoadNetwork::new(pos, edges, 1), Err(NetworkError::Disconnected)));
    }

    #[test]
    fn crossing_geometry_rejected() {
        // An X of two crossing edges with no intersection vertex: the
        // angular rotation system yields a non-planar trace.
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
        ];
        let edges = vec![(0, 1), (2, 3), (0, 2), (2, 1), (1, 3), (3, 0)];
        assert!(RoadNetwork::new(pos, edges, 1).is_err());
    }

    #[test]
    fn ramp_count_clamped() {
        let (pos, edges) = lattice(3);
        let net = RoadNetwork::new(pos, edges, 1000).unwrap();
        // Outer face of a 3x3 lattice has 8 distinct vertices.
        assert_eq!(net.ramps().len(), 8);
        assert_eq!(net.embedding().euler_characteristic(), 2);
    }

    #[test]
    fn lengths_and_bbox() {
        let (pos, edges) = lattice(3);
        let net = RoadNetwork::new(pos, edges, 2).unwrap();
        assert_eq!(net.bbox().area(), 4.0);
        for &r in net.ramps() {
            assert_eq!(net.edge_length(r), 0.0);
        }
    }
}
