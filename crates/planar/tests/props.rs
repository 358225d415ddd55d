//! Property tests on planar-graph machinery, driven by random Delaunay
//! cities (always-valid plane graphs).

use proptest::prelude::*;
use stq_geom::{triangulate, Point};
use stq_planar::dual::{subgraph_faces, DualGraph};
use stq_planar::Embedding;

fn delaunay_embedding() -> impl Strategy<Value = Embedding> {
    proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 4..40).prop_filter_map(
        "triangulable point set",
        |pts| {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let tri = triangulate(&points);
            if tri.triangles.is_empty() {
                return None;
            }
            // Drop isolated vertices (collinear leftovers break connectivity).
            let edges = tri.edges();
            let mut used: Vec<bool> = vec![false; points.len()];
            for &(u, v) in &edges {
                used[u] = true;
                used[v] = true;
            }
            if used.iter().any(|&u| !u) {
                return None;
            }
            Embedding::from_geometry(points, edges).ok()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn euler_formula_holds(emb in delaunay_embedding()) {
        prop_assert_eq!(emb.euler_characteristic(), 2);
        prop_assert!(emb.is_planar_connected());
    }

    #[test]
    fn faces_partition_half_edges(emb in delaunay_embedding()) {
        let faces = emb.faces();
        let total: usize = faces.walks.iter().map(|w| w.len()).sum();
        prop_assert_eq!(total, emb.num_half_edges());
        // Exactly one negative-area face: the outer one.
        let negatives = faces
            .walks
            .iter()
            .filter(|w| emb.face_signed_area(w).map(|a| a < 0.0).unwrap_or(false))
            .count();
        prop_assert_eq!(negatives, 1);
    }

    #[test]
    fn interior_face_areas_sum_to_outer(emb in delaunay_embedding()) {
        // Σ signed areas over all faces = 0 (the outer face walk encloses
        // the same region negatively).
        let faces = emb.faces();
        let sum: f64 = faces
            .walks
            .iter()
            .filter_map(|w| emb.face_signed_area(w))
            .sum();
        prop_assert!(sum.abs() < 1e-6 * (1.0 + sum.abs()));
    }

    #[test]
    fn dual_faces_are_primal_vertices(emb in delaunay_embedding()) {
        let faces = emb.faces();
        let dual = DualGraph::new(&emb, &faces);
        let demb = dual.dual_embedding(&faces);
        prop_assert_eq!(demb.faces().walks.len(), emb.num_vertices());
        prop_assert_eq!(demb.euler_characteristic(), 2);
    }

    #[test]
    fn subgraph_faces_respect_euler(emb in delaunay_embedding(), mask_seed in 0u64..1000) {
        // Random monitored subset; components via union-find must equal
        // E' − V' + 1 + C' (Euler with C' dual components).
        let ne = emb.num_edges();
        let monitored: Vec<bool> =
            (0..ne).map(|e| (e as u64).wrapping_mul(2654435761) % 1000 < mask_seed).collect();
        let sf = subgraph_faces(&emb, &monitored);
        // Every unmonitored edge keeps its endpoints in one face.
        for (e, &(u, v)) in emb.edges().iter().enumerate() {
            if !monitored[e] {
                prop_assert_eq!(sf.component_of[u], sf.component_of[v]);
            }
        }
        // Components partition the vertices.
        let total: usize = sf.members.iter().map(|m| m.len()).sum();
        prop_assert_eq!(total, emb.num_vertices());
        // Euler cross-check on the dual side.
        let faces = emb.faces();
        let dual = DualGraph::new(&emb, &faces);
        let mut uf = stq_planar::UnionFind::new(faces.walks.len());
        let mut verts = std::collections::HashSet::new();
        let mut ecount = 0i64;
        for (e, &m) in monitored.iter().enumerate() {
            if m {
                let (a, b) = dual.edge_faces[e];
                verts.insert(a);
                verts.insert(b);
                if a != b {
                    uf.union(a, b);
                }
                ecount += 1;
            }
        }
        let comps: std::collections::HashSet<usize> =
            verts.iter().map(|&v| uf.find(v)).collect();
        let expected = ecount - verts.len() as i64 + 1 + comps.len() as i64;
        prop_assert_eq!(sf.members.len() as i64, expected);
    }

    #[test]
    fn rotations_are_consistent(emb in delaunay_embedding()) {
        for h in 0..emb.num_half_edges() {
            prop_assert_eq!(emb.rot_next(emb.rot_prev(h)), h);
            prop_assert_eq!(emb.origin(h), emb.target(emb.twin(h)));
            // face_next preserves incidence: next starts where h ends.
            prop_assert_eq!(emb.origin(emb.face_next(h)), emb.target(h));
        }
    }

    #[test]
    fn attach_external_vertex_preserves_planarity(emb in delaunay_embedding()) {
        let faces = emb.faces();
        let outer = emb.outer_face(&faces).unwrap();
        // Attach to up to 4 distinct outer-walk vertices.
        let mut attach: Vec<usize> = Vec::new();
        for &h in &faces.walks[outer] {
            let v = emb.origin(h);
            if !attach.contains(&v) {
                attach.push(v);
            }
            if attach.len() == 4 {
                break;
            }
        }
        let (emb2, v_ext) = emb.attach_vertex_in_face(&faces, outer, &attach).unwrap();
        prop_assert_eq!(emb2.euler_characteristic(), 2);
        prop_assert_eq!(emb2.degree(v_ext), attach.len());
        prop_assert!(emb2.position(v_ext).is_none());
    }
}
