//! Geometric tracking for free-roaming objects.
//!
//! The paper's framework assumes movement along a mobility graph; for
//! objects roaming a continuous domain (air/sea — §4.2's "virtual paths"
//! discussion), this module tracks piecewise-linear paths against an
//! arbitrary planar subdivision directly: every leg is intersected with the
//! subdivision's edges, and each crossing updates the same paired tracking
//! forms. Query regions are face sets; boundaries reuse the shared
//! [`BoundaryEdge`] machinery, so differential-form counting stays exact.

use stq_forms::BoundaryEdge;
use stq_geom::{segment_intersection, Point, Polygon, Rect, Segment, SegmentIntersection};
use stq_planar::embedding::{EdgeId, FaceId, Faces};
use stq_planar::Embedding;
use stq_spatial::GridIndex;

/// A planar subdivision used as a sensing field.
#[derive(Debug)]
pub struct Subdivision {
    emb: Embedding,
    faces: Faces,
    outer: FaceId,
    polygons: Vec<Option<Polygon>>,
    /// Edge index: grid over edge midpoints for crossing candidate lookup.
    edge_grid: GridIndex,
    /// Inflate candidate search by the longest edge length.
    max_edge_len: f64,
}

impl Subdivision {
    /// Builds a subdivision from a fully-positioned plane graph embedding.
    pub fn new(emb: Embedding) -> Self {
        assert!(
            emb.positions().iter().all(|p| p.is_some()),
            "subdivision requires positions on every vertex"
        );
        let faces = emb.faces();
        let outer = emb.outer_face(&faces).expect("geometric embedding has an outer face");
        let polygons: Vec<Option<Polygon>> = faces
            .walks
            .iter()
            .enumerate()
            .map(|(fid, walk)| {
                if fid == outer || walk.len() < 3 {
                    return None;
                }
                let pts: Vec<Point> =
                    walk.iter().map(|&h| emb.position(emb.origin(h)).unwrap()).collect();
                Some(Polygon::new(pts))
            })
            .collect();
        let mids: Vec<(Point, u32)> = (0..emb.num_edges())
            .map(|e| {
                let (u, v) = emb.edge_endpoints(e);
                (emb.position(u).unwrap().midpoint(emb.position(v).unwrap()), e as u32)
            })
            .collect();
        let g = ((mids.len() as f64).sqrt().ceil() as usize).max(1);
        let edge_grid = GridIndex::build(&mids, g, g);
        let max_edge_len =
            (0..emb.num_edges()).map(|e| emb.edge_length(e).unwrap()).fold(0.0f64, f64::max);
        Subdivision { emb, faces, outer, polygons, edge_grid, max_edge_len }
    }

    /// The embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.emb
    }

    /// Number of edges (form-store size).
    pub fn num_edges(&self) -> usize {
        self.emb.num_edges()
    }

    /// Interior face count.
    pub fn num_cells(&self) -> usize {
        self.polygons.iter().flatten().count()
    }

    /// The outer (unbounded) face id.
    pub fn outer_face(&self) -> FaceId {
        self.outer
    }

    /// Locates the interior face containing `p`, or `None` for the outer
    /// face / boundary-ambiguous points.
    pub fn locate(&self, p: Point) -> Option<FaceId> {
        // Check the faces adjacent to nearby edges first, then fall back to
        // a full scan (rare: large faces with distant midpoints).
        let mut near: Vec<FaceId> = self
            .edge_grid
            .range(&Rect::centered(p, self.max_edge_len * 2.0, self.max_edge_len * 2.0))
            .into_iter()
            .flat_map(|e| {
                let eid = e.id as usize;
                [self.faces.face_of[2 * eid], self.faces.face_of[2 * eid + 1]]
            })
            .collect();
        near.sort_unstable();
        near.dedup();
        for f in near {
            if let Some(poly) = &self.polygons[f] {
                if poly.locate(p) == stq_geom::polygon::Containment::Inside {
                    return Some(f);
                }
            }
        }
        for (f, poly) in self.polygons.iter().enumerate() {
            if let Some(poly) = poly {
                if poly.locate(p) == stq_geom::polygon::Containment::Inside {
                    return Some(f);
                }
            }
        }
        None
    }

    /// Crossings of the directed leg `a → b`, ordered along the leg:
    /// `(leg_parameter, edge, forward)` where `forward` means the crossing
    /// enters the face left of the edge's forward half-edge.
    pub fn leg_crossings(&self, a: Point, b: Point) -> Vec<(f64, EdgeId, bool)> {
        let leg = Segment::new(a, b);
        let (lo, hi) = leg.bbox();
        let pad = self.max_edge_len;
        let query = Rect::from_corners(lo, hi).inflated(pad);
        let mut out: Vec<(f64, EdgeId, bool)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for cand in self.edge_grid.range(&query) {
            let e = cand.id as usize;
            if !seen.insert(e) {
                continue;
            }
            let (u, v) = self.emb.edge_endpoints(e);
            let seg = Segment::new(self.emb.position(u).unwrap(), self.emb.position(v).unwrap());
            if let SegmentIntersection::Point { t, u: s, .. } = segment_intersection(&leg, &seg) {
                // Skip grazing endpoint touches: they do not change faces.
                if !(1e-9..=1.0 - 1e-9).contains(&s) {
                    continue;
                }
                let dir = b - a;
                let edge_dir = seg.b - seg.a;
                let side = edge_dir.cross(dir);
                if side.abs() < 1e-12 {
                    continue; // tangential
                }
                // Moving towards the left of (u→v) enters face_of[2e].
                out.push((t, e, side > 0.0));
            }
        }
        out.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        out
    }

    /// Boundary chain of a face set, oriented inward — edges with exactly
    /// one incident face in the region. The outer face may not be part of a
    /// region.
    pub fn region_boundary(&self, region: &std::collections::HashSet<FaceId>) -> Vec<BoundaryEdge> {
        assert!(!region.contains(&self.outer), "regions are sets of interior faces");
        let mut out = Vec::new();
        for e in 0..self.emb.num_edges() {
            let fl = self.faces.face_of[2 * e];
            let fr = self.faces.face_of[2 * e + 1];
            let in_l = region.contains(&fl);
            let in_r = region.contains(&fr);
            if in_l != in_r {
                // Forward crossings enter the left face of half-edge 2e.
                out.push(BoundaryEdge::new(e, in_l));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use stq_forms::{snapshot_count, FormStore, Time};

    /// Records every crossing of a timed path into `store` in time order,
    /// as `examples/free_roaming.rs` does for a fleet.
    fn track(s: &Subdivision, path: &[(Time, Point)], store: &mut FormStore) {
        let mut events = Vec::new();
        for w in path.windows(2) {
            let ((t0, a), (t1, b)) = (w[0], w[1]);
            for (frac, e, fwd) in s.leg_crossings(a, b) {
                events.push((t0 + (t1 - t0) * frac, e, fwd));
            }
        }
        events.sort_by(|x, y| x.0.total_cmp(&y.0));
        for (t, e, fwd) in events {
            store.record(e, fwd, t);
        }
    }

    /// A 3x3 grid subdivision: 4 unit cells... actually 2x2 cells of size 1.
    fn grid_subdivision() -> Subdivision {
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
        Subdivision::new(Embedding::from_geometry(pos, edges).unwrap())
    }

    #[test]
    fn locate_cells() {
        let s = grid_subdivision();
        assert_eq!(s.num_cells(), 4);
        let f00 = s.locate(Point::new(0.5, 0.5)).unwrap();
        let f11 = s.locate(Point::new(1.5, 1.5)).unwrap();
        assert_ne!(f00, f11);
        assert!(s.locate(Point::new(5.0, 5.0)).is_none());
    }

    #[test]
    fn crossing_direction_matches_entered_face() {
        let s = grid_subdivision();
        let a = Point::new(0.5, 0.5);
        let b = Point::new(1.5, 0.5);
        let crossings = s.leg_crossings(a, b);
        assert_eq!(crossings.len(), 1);
        let (_, e, fwd) = crossings[0];
        let entered = if fwd { s.faces.face_of[2 * e] } else { s.faces.face_of[2 * e + 1] };
        assert_eq!(entered, s.locate(b).unwrap());
        // Reverse leg enters the original cell.
        let back = s.leg_crossings(b, a);
        let (_, e2, fwd2) = back[0];
        assert_eq!(e2, e);
        assert_eq!(fwd2, !fwd);
    }

    #[test]
    fn tracked_path_counts_match_location() {
        let s = grid_subdivision();
        let mut store = FormStore::new(s.num_edges());
        // Enter from outside, wander through all four cells, re-enter one.
        let path = vec![
            (0.0, Point::new(-0.5, 0.5)), // outside
            (1.0, Point::new(0.5, 0.5)),
            (2.0, Point::new(1.5, 0.5)),
            (3.0, Point::new(1.5, 1.5)),
            (4.0, Point::new(0.5, 1.5)),
            (5.0, Point::new(0.5, 0.5)),
            (6.0, Point::new(1.5, 0.5)),
        ];
        track(&s, &path, &mut store);
        // At probe times strictly between crossings, the count in the cell
        // currently occupied must be 1 and 0 elsewhere.
        for (t, expect_cell) in [
            (1.2, Point::new(0.5, 0.5)),
            (3.3, Point::new(1.5, 1.5)),
            (5.2, Point::new(0.5, 0.5)),
            (6.5, Point::new(1.5, 0.5)),
        ] {
            let here = s.locate(expect_cell).unwrap();
            for f in 0..s.faces.walks.len() {
                if s.polygons[f].is_none() {
                    continue;
                }
                let region: HashSet<usize> = [f].into_iter().collect();
                let b = s.region_boundary(&region);
                let count = snapshot_count(&store, &b, t);
                let want = if f == here { 1.0 } else { 0.0 };
                assert_eq!(count, want, "face {f} at t={t}");
            }
        }
    }

    #[test]
    fn union_region_cancels_internal_crossings() {
        let s = grid_subdivision();
        let mut store = FormStore::new(s.num_edges());
        // Bounce between two cells 10 times, never leaving their union.
        let mut path = vec![(0.0, Point::new(0.5, 0.5))];
        for i in 0..10 {
            let x = if i % 2 == 0 { 1.5 } else { 0.5 };
            path.push((i as f64 + 1.0, Point::new(x, 0.5)));
        }
        track(&s, &path, &mut store);
        let f0 = s.locate(Point::new(0.5, 0.5)).unwrap();
        let f1 = s.locate(Point::new(1.5, 0.5)).unwrap();
        let region: HashSet<usize> = [f0, f1].into_iter().collect();
        let b = s.region_boundary(&region);
        // The object never crossed the union's boundary; the count must be 0
        // (it started inside without an entry event — exactly why road-mode
        // tracking walks objects in from v_ext; geometric mode exposes the
        // raw behaviour).
        assert_eq!(snapshot_count(&store, &b, 100.0), 0.0);
        // But each single cell sees the bouncing without double counting.
        let r0: HashSet<usize> = [f1].into_iter().collect();
        let b0 = s.region_boundary(&r0);
        let c = snapshot_count(&store, &b0, 100.0);
        assert!(c == 0.0 || c == 1.0);
    }

    #[test]
    fn entering_from_outside_counts_once() {
        let s = grid_subdivision();
        let mut store = FormStore::new(s.num_edges());
        let path = vec![
            (0.0, Point::new(-1.0, 0.5)), // outside
            (1.0, Point::new(0.5, 0.5)),  // into cell (0,0)
            (2.0, Point::new(0.5, 1.5)),  // up into cell (0,1)
        ];
        track(&s, &path, &mut store);
        let f00 = s.locate(Point::new(0.5, 0.5)).unwrap();
        let f01 = s.locate(Point::new(0.5, 1.5)).unwrap();
        let both: HashSet<usize> = [f00, f01].into_iter().collect();
        let b = s.region_boundary(&both);
        assert_eq!(snapshot_count(&store, &b, 1.5), 1.0);
        assert_eq!(snapshot_count(&store, &b, 0.2), 0.0);
    }

    #[test]
    #[should_panic(expected = "interior faces")]
    fn outer_face_region_rejected() {
        let s = grid_subdivision();
        let region: HashSet<usize> = [s.outer_face()].into_iter().collect();
        let _ = s.region_boundary(&region);
    }
}
