//! Rotation-system planar embeddings and face tracing.

use stq_geom::Point;

/// Index of a vertex in an [`Embedding`].
pub type VertexId = usize;
/// Index of an undirected edge in an [`Embedding`].
pub type EdgeId = usize;
/// Index of a half-edge: edge `e` owns half-edges `2e` (forward) and
/// `2e + 1` (backward).
pub type HalfEdgeId = usize;
/// Index of a face produced by [`Embedding::faces`].
pub type FaceId = usize;

/// A combinatorial planar embedding: a multigraph plus, for every vertex,
/// the counter-clockwise cyclic order of its incident half-edges.
///
/// Half-edge `2e` runs `tail(e) → head(e)`; `2e + 1` is its twin. Loops and
/// parallel edges are allowed (they arise naturally in dual graphs — a bridge
/// dualizes to a loop).
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Optional coordinates; purely combinatorial vertices (e.g. an external
    /// "infinity" junction) carry `None`.
    positions: Vec<Option<Point>>,
    /// Endpoints of each undirected edge as given at construction.
    edges: Vec<(VertexId, VertexId)>,
    /// Rotation: outgoing half-edges per vertex in CCW order.
    rotations: Vec<Vec<HalfEdgeId>>,
    /// For each half-edge, its index within the rotation of its origin.
    rot_index: Vec<usize>,
}

/// Faces of an embedding, as produced by [`Embedding::faces`].
#[derive(Clone, Debug)]
pub struct Faces {
    /// Face walks: each is the cyclic list of half-edges with that face on
    /// their left.
    pub walks: Vec<Vec<HalfEdgeId>>,
    /// Face id for every half-edge.
    pub face_of: Vec<FaceId>,
}

/// Errors from embedding construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbeddingError {
    /// An edge referenced a vertex index out of range.
    VertexOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// The out-of-range vertex index it referenced.
        vertex: VertexId,
    },
    /// A rotation listed a half-edge whose origin is a different vertex.
    ForeignHalfEdge {
        /// The vertex whose rotation is invalid.
        vertex: VertexId,
        /// The half-edge that does not originate there.
        half_edge: HalfEdgeId,
    },
    /// Rotations do not mention each half-edge exactly once.
    BadRotationCover,
    /// A geometric construction saw an edge of (numerically) zero length.
    ZeroLengthEdge {
        /// The degenerate edge.
        edge: EdgeId,
    },
}

impl std::fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbeddingError::VertexOutOfRange { edge, vertex } => {
                write!(f, "edge {edge} references vertex {vertex} out of range")
            }
            EmbeddingError::ForeignHalfEdge { vertex, half_edge } => {
                write!(
                    f,
                    "rotation of vertex {vertex} lists half-edge {half_edge} not originating there"
                )
            }
            EmbeddingError::BadRotationCover => {
                write!(f, "rotations must mention every half-edge exactly once")
            }
            EmbeddingError::ZeroLengthEdge { edge } => {
                write!(f, "edge {edge} has zero length; cannot infer rotation angle")
            }
        }
    }
}

impl std::error::Error for EmbeddingError {}

impl Embedding {
    /// Builds an embedding from vertex coordinates and an edge list by
    /// sorting each vertex's incident half-edges counter-clockwise by angle.
    ///
    /// The input must be a *plane* graph: edges are straight segments that
    /// intersect only at shared endpoints. Crossings are not detected here:
    /// a caller checks the traced faces ([`Embedding::is_planar_connected`],
    /// [`Embedding::face_signed_area`]). Loops are rejected here because a
    /// straight loop has no angle; build them via
    /// [`Embedding::from_rotations`] if ever needed.
    pub fn from_geometry(
        positions: Vec<Point>,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Result<Self, EmbeddingError> {
        let n = positions.len();
        for (ei, &(u, v)) in edges.iter().enumerate() {
            if u >= n {
                return Err(EmbeddingError::VertexOutOfRange { edge: ei, vertex: u });
            }
            if v >= n {
                return Err(EmbeddingError::VertexOutOfRange { edge: ei, vertex: v });
            }
            if positions[u].dist2(positions[v]) < 1e-24 {
                return Err(EmbeddingError::ZeroLengthEdge { edge: ei });
            }
        }
        let mut rotations: Vec<Vec<HalfEdgeId>> = vec![Vec::new(); n];
        for (ei, &(u, v)) in edges.iter().enumerate() {
            rotations[u].push(2 * ei);
            rotations[v].push(2 * ei + 1);
        }
        for (vi, rot) in rotations.iter_mut().enumerate() {
            let p = positions[vi];
            rot.sort_by(|&h1, &h2| {
                let t1 = positions[Self::raw_target(&edges, h1)] - p;
                let t2 = positions[Self::raw_target(&edges, h2)] - p;
                t1.angle().partial_cmp(&t2.angle()).unwrap()
            });
        }
        Ok(Self::assemble(positions.into_iter().map(Some).collect(), edges, rotations))
    }

    /// Builds an embedding from explicit rotations (CCW half-edge order per
    /// vertex). Needed for combinatorial constructions such as dual graphs
    /// and external-vertex attachment, where coordinates may be absent.
    pub fn from_rotations(
        positions: Vec<Option<Point>>,
        edges: Vec<(VertexId, VertexId)>,
        rotations: Vec<Vec<HalfEdgeId>>,
    ) -> Result<Self, EmbeddingError> {
        let n = positions.len();
        for (ei, &(u, v)) in edges.iter().enumerate() {
            if u >= n {
                return Err(EmbeddingError::VertexOutOfRange { edge: ei, vertex: u });
            }
            if v >= n {
                return Err(EmbeddingError::VertexOutOfRange { edge: ei, vertex: v });
            }
        }
        let mut seen = vec![false; edges.len() * 2];
        for (vi, rot) in rotations.iter().enumerate() {
            for &h in rot {
                if h >= edges.len() * 2 || Self::raw_origin(&edges, h) != vi {
                    return Err(EmbeddingError::ForeignHalfEdge { vertex: vi, half_edge: h });
                }
                if seen[h] {
                    return Err(EmbeddingError::BadRotationCover);
                }
                seen[h] = true;
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(EmbeddingError::BadRotationCover);
        }
        Ok(Self::assemble(positions, edges, rotations))
    }

    fn assemble(
        positions: Vec<Option<Point>>,
        edges: Vec<(VertexId, VertexId)>,
        rotations: Vec<Vec<HalfEdgeId>>,
    ) -> Self {
        let mut rot_index = vec![0usize; edges.len() * 2];
        for rot in &rotations {
            for (i, &h) in rot.iter().enumerate() {
                rot_index[h] = i;
            }
        }
        Embedding { positions, edges, rotations, rot_index }
    }

    #[inline]
    fn raw_origin(edges: &[(VertexId, VertexId)], h: HalfEdgeId) -> VertexId {
        let (u, v) = edges[h / 2];
        if h % 2 == 0 {
            u
        } else {
            v
        }
    }

    #[inline]
    fn raw_target(edges: &[(VertexId, VertexId)], h: HalfEdgeId) -> VertexId {
        Self::raw_origin(edges, h ^ 1)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of half-edges (`2 × num_edges`).
    #[inline]
    pub fn num_half_edges(&self) -> usize {
        self.edges.len() * 2
    }

    /// Coordinates of vertex `v`, if it has any.
    #[inline]
    pub fn position(&self, v: VertexId) -> Option<Point> {
        self.positions[v]
    }

    /// All positions (indexed by vertex).
    #[inline]
    pub fn positions(&self) -> &[Option<Point>] {
        &self.positions
    }

    /// Endpoints of edge `e` as given at construction (tail, head).
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e]
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// The twin (opposite direction) of a half-edge.
    #[inline]
    pub fn twin(&self, h: HalfEdgeId) -> HalfEdgeId {
        h ^ 1
    }

    /// Underlying undirected edge of a half-edge.
    #[inline]
    pub fn edge_of(&self, h: HalfEdgeId) -> EdgeId {
        h / 2
    }

    /// Origin vertex of a half-edge.
    #[inline]
    pub fn origin(&self, h: HalfEdgeId) -> VertexId {
        Self::raw_origin(&self.edges, h)
    }

    /// Target vertex of a half-edge.
    #[inline]
    pub fn target(&self, h: HalfEdgeId) -> VertexId {
        Self::raw_origin(&self.edges, h ^ 1)
    }

    /// CCW rotation (outgoing half-edges) at vertex `v`.
    #[inline]
    pub fn rotation(&self, v: VertexId) -> &[HalfEdgeId] {
        &self.rotations[v]
    }

    /// Vertex degree (loops count twice).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.rotations[v].len()
    }

    /// Successor of `h` in the CCW rotation at its origin.
    #[inline]
    pub fn rot_next(&self, h: HalfEdgeId) -> HalfEdgeId {
        let rot = &self.rotations[self.origin(h)];
        let i = self.rot_index[h];
        rot[(i + 1) % rot.len()]
    }

    /// Predecessor of `h` in the CCW rotation at its origin.
    #[inline]
    pub fn rot_prev(&self, h: HalfEdgeId) -> HalfEdgeId {
        let rot = &self.rotations[self.origin(h)];
        let i = self.rot_index[h];
        rot[(i + rot.len() - 1) % rot.len()]
    }

    /// The next half-edge along the face on the left of `h`.
    ///
    /// With CCW rotations this traverses interior faces counter-clockwise
    /// and the outer face clockwise.
    #[inline]
    pub fn face_next(&self, h: HalfEdgeId) -> HalfEdgeId {
        self.rot_prev(self.twin(h))
    }

    /// Extracts all faces by tracing [`Embedding::face_next`] orbits.
    pub fn faces(&self) -> Faces {
        let nh = self.num_half_edges();
        let mut face_of = vec![usize::MAX; nh];
        let mut walks: Vec<Vec<HalfEdgeId>> = Vec::new();
        for start in 0..nh {
            if face_of[start] != usize::MAX {
                continue;
            }
            let fid = walks.len();
            let mut walk = Vec::new();
            let mut h = start;
            loop {
                debug_assert_eq!(face_of[h], usize::MAX);
                face_of[h] = fid;
                walk.push(h);
                h = self.face_next(h);
                if h == start {
                    break;
                }
            }
            walks.push(walk);
        }
        Faces { walks, face_of }
    }

    /// Signed area of a face walk (requires all vertices on the walk to have
    /// positions). Interior faces of a CCW-rotation embedding are positive;
    /// the outer face is negative.
    pub fn face_signed_area(&self, walk: &[HalfEdgeId]) -> Option<f64> {
        let mut s = 0.0;
        for &h in walk {
            let p = self.position(self.origin(h))?;
            let q = self.position(self.target(h))?;
            s += p.cross(q);
        }
        Some(s * 0.5)
    }

    /// Euler characteristic `V − E + F` of the embedding, counting each
    /// connected component's sphere: for a connected planar embedding this
    /// is 2. Isolated vertices are ignored.
    pub fn euler_characteristic(&self) -> i64 {
        let f = self.faces().walks.len() as i64;
        let e = self.num_edges() as i64;
        let mut touched = vec![false; self.num_vertices()];
        for &(u, v) in &self.edges {
            touched[u] = true;
            touched[v] = true;
        }
        let v = touched.iter().filter(|&&t| t).count() as i64;
        v - e + f
    }

    /// Checks the embedding is planar and connected (Euler characteristic 2,
    /// single connected component over non-isolated vertices).
    pub fn is_planar_connected(&self) -> bool {
        self.euler_characteristic() == 2 && self.connected_components_nonisolated() == 1
    }

    fn connected_components_nonisolated(&self) -> usize {
        let mut uf = crate::unionfind::UnionFind::new(self.num_vertices());
        for &(u, v) in &self.edges {
            uf.union(u, v);
        }
        let mut touched = vec![false; self.num_vertices()];
        for &(u, v) in &self.edges {
            touched[u] = true;
            touched[v] = true;
        }
        let mut roots: Vec<usize> =
            (0..self.num_vertices()).filter(|&v| touched[v]).map(|v| uf.find(v)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Identifies the outer face: the unique face with negative signed area.
    /// Returns `None` if no face has full geometry or none is negative.
    pub fn outer_face(&self, faces: &Faces) -> Option<FaceId> {
        let mut best: Option<(f64, FaceId)> = None;
        for (fid, walk) in faces.walks.iter().enumerate() {
            if let Some(a) = self.face_signed_area(walk) {
                if a < 0.0 && best.map(|(ba, _)| a < ba).unwrap_or(true) {
                    best = Some((a, fid));
                }
            }
        }
        best.map(|(_, f)| f)
    }

    /// Euclidean length of edge `e`; `None` when an endpoint lacks a
    /// position.
    pub fn edge_length(&self, e: EdgeId) -> Option<f64> {
        let (u, v) = self.edges[e];
        Some(self.position(u)?.dist(self.position(v)?))
    }

    /// Attaches a new position-less vertex inside the face `face` (given by
    /// its walk), connected to the listed *distinct* vertices, which must lie
    /// on that face walk. Returns the new vertex id.
    ///
    /// This is how the external "infinity" junction `⋆v_ext` of the paper
    /// (Fig. 8a) is spliced into the outer face of a road network: the new
    /// edges are inserted into each attachment vertex's rotation at the
    /// position of the face walk, preserving planarity combinatorially.
    pub fn attach_vertex_in_face(
        &self,
        faces: &Faces,
        face: FaceId,
        attach_to: &[VertexId],
    ) -> Result<(Embedding, VertexId), EmbeddingError> {
        let walk = &faces.walks[face];
        // Locate, for each attachment vertex, a half-edge of the face walk
        // originating there; the new half-edge is inserted just before it in
        // the rotation, which keeps it inside `face`.
        let mut positions = self.positions.clone();
        let new_v = positions.len();
        positions.push(None);

        let mut edges = self.edges.clone();
        let mut rotations = self.rotations.clone();
        rotations.push(Vec::new());

        // Order attachments by their first occurrence along the face walk so
        // the rotation at the new vertex is consistent with the face cycle.
        let mut ordered: Vec<(usize, VertexId, HalfEdgeId)> = Vec::new();
        for &v in attach_to {
            let found = walk
                .iter()
                .enumerate()
                .find(|&(_, &h)| self.origin(h) == v)
                .map(|(i, &h)| (i, v, h));
            match found {
                Some(t) => ordered.push(t),
                None => {
                    return Err(EmbeddingError::ForeignHalfEdge {
                        vertex: v,
                        half_edge: usize::MAX,
                    })
                }
            }
        }
        ordered.sort_by_key(|&(i, _, _)| i);

        for &(_, v, h_at_v) in &ordered {
            let ei = edges.len();
            edges.push((new_v, v)); // half-edge 2ei: new_v -> v ; 2ei+1: v -> new_v
                                    // The face's angular corner at `v` lies immediately after
                                    // `h_at_v` in CCW rotation order (face_next(h_prev) = h_at_v
                                    // means h_at_v = rot_prev(twin(h_prev))). Inserting the new
                                    // half-edge there keeps it inside `face`.
            let rot = &mut rotations[v];
            let pos = rot.iter().position(|&x| x == h_at_v).expect("h in rotation");
            rot.insert(pos + 1, 2 * ei + 1);
            // At the new vertex the attachments appear in face-walk order.
            rotations[new_v].push(2 * ei);
        }

        Ok((Self::assemble(positions, edges, rotations), new_v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Embedding {
        Embedding::from_geometry(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0)],
            vec![(0, 1), (1, 2), (2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn triangle_faces() {
        let emb = triangle();
        let faces = emb.faces();
        assert_eq!(faces.walks.len(), 2);
        let outer = emb.outer_face(&faces).unwrap();
        let inner = 1 - outer;
        assert!(emb.face_signed_area(&faces.walks[inner]).unwrap() > 0.0);
        assert!((emb.face_signed_area(&faces.walks[inner]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(faces.walks[inner].len(), 3);
        assert_eq!(emb.euler_characteristic(), 2);
    }

    #[test]
    fn square_with_diagonal() {
        let emb = Embedding::from_geometry(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
            ],
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        .unwrap();
        let faces = emb.faces();
        assert_eq!(faces.walks.len(), 3); // two triangles + outer
        assert_eq!(emb.euler_characteristic(), 2);
        let outer = emb.outer_face(&faces).unwrap();
        let inner_areas: Vec<f64> = (0..3)
            .filter(|&f| f != outer)
            .map(|f| emb.face_signed_area(&faces.walks[f]).unwrap())
            .collect();
        assert!(inner_areas.iter().all(|&a| (a - 0.5).abs() < 1e-12));
    }

    #[test]
    fn grid_euler() {
        // 3x3 grid of vertices, lattice edges.
        let mut pos = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                pos.push(Point::new(x as f64, y as f64));
            }
        }
        let mut edges = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    edges.push((i, i + 1));
                }
                if y + 1 < 3 {
                    edges.push((i, i + 3));
                }
            }
        }
        let emb = Embedding::from_geometry(pos, edges).unwrap();
        let faces = emb.faces();
        assert_eq!(faces.walks.len(), 5); // 4 cells + outer
        assert_eq!(emb.euler_characteristic(), 2);
        assert!(emb.is_planar_connected());
    }

    #[test]
    fn face_of_covers_all_half_edges() {
        let emb = triangle();
        let faces = emb.faces();
        assert_eq!(faces.face_of.len(), emb.num_half_edges());
        assert!(faces.face_of.iter().all(|&f| f < faces.walks.len()));
        let total: usize = faces.walks.iter().map(|w| w.len()).sum();
        assert_eq!(total, emb.num_half_edges());
    }

    #[test]
    fn path_graph_single_face() {
        // A path (tree) has exactly one face.
        let emb = Embedding::from_geometry(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.3)],
            vec![(0, 1), (1, 2)],
        )
        .unwrap();
        let faces = emb.faces();
        assert_eq!(faces.walks.len(), 1);
        assert_eq!(faces.walks[0].len(), 4);
        assert_eq!(emb.euler_characteristic(), 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            Embedding::from_geometry(vec![Point::ORIGIN], vec![(0, 1)]),
            Err(EmbeddingError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            Embedding::from_geometry(vec![Point::ORIGIN, Point::ORIGIN], vec![(0, 1)]),
            Err(EmbeddingError::ZeroLengthEdge { .. })
        ));
        // Rotation missing a half-edge.
        assert!(matches!(
            Embedding::from_rotations(
                vec![Some(Point::ORIGIN), Some(Point::new(1.0, 0.0))],
                vec![(0, 1)],
                vec![vec![0], vec![]],
            ),
            Err(EmbeddingError::BadRotationCover)
        ));
    }

    #[test]
    fn attach_external_vertex() {
        let emb = triangle();
        let faces = emb.faces();
        let outer = emb.outer_face(&faces).unwrap();
        let (emb2, v_ext) = emb.attach_vertex_in_face(&faces, outer, &[0, 1, 2]).unwrap();
        assert_eq!(v_ext, 3);
        assert_eq!(emb2.num_edges(), 6);
        assert!(emb2.position(v_ext).is_none());
        // Still planar: V=4, E=6, F must be 4 (Euler).
        let f2 = emb2.faces();
        assert_eq!(f2.walks.len(), 4);
        assert_eq!(emb2.euler_characteristic(), 2);
        // The original interior face must be untouched: one face still has
        // positive area 0.5 (the triangle interior).
        let has_interior = f2
            .walks
            .iter()
            .any(|w| emb2.face_signed_area(w).map(|a| (a - 0.5).abs() < 1e-12).unwrap_or(false));
        assert!(has_interior);
    }

    #[test]
    fn attach_subset_of_face_vertices() {
        let emb = triangle();
        let faces = emb.faces();
        let outer = emb.outer_face(&faces).unwrap();
        let (emb2, _) = emb.attach_vertex_in_face(&faces, outer, &[0, 2]).unwrap();
        assert_eq!(emb2.euler_characteristic(), 2);
        assert_eq!(emb2.faces().walks.len(), 3);
    }

    #[test]
    fn rot_next_prev_inverse() {
        let emb = triangle();
        for h in 0..emb.num_half_edges() {
            assert_eq!(emb.rot_prev(emb.rot_next(h)), h);
            assert_eq!(emb.rot_next(emb.rot_prev(h)), h);
        }
    }

    #[test]
    fn face_next_orbits_partition() {
        let emb = triangle();
        // Applying face_next repeatedly must return to the start.
        for h in 0..emb.num_half_edges() {
            let mut cur = h;
            let mut steps = 0;
            loop {
                cur = emb.face_next(cur);
                steps += 1;
                assert!(steps <= emb.num_half_edges());
                if cur == h {
                    break;
                }
            }
        }
    }
}
