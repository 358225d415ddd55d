//! Property tests for the geometry kernel.

use proptest::prelude::*;
use stq_geom::{
    segment_intersection, triangulate, Point, Polygon, Rect, Segment, SegmentIntersection,
};

fn pt() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(pt(), n)
}

/// A simple polygon drawn here: one vertex per spoke, at jittered and
/// strictly increasing angles around the origin, each at its own radius.
/// Every gap between spokes is under π, so the polygon is star-shaped about
/// the origin, hence simple and counter-clockwise.
fn star_polygon() -> impl Strategy<Value = Polygon> {
    proptest::collection::vec((0.0f64..0.5, 1.0f64..100.0), 3..12).prop_map(|spokes| {
        let step = std::f64::consts::TAU / spokes.len() as f64;
        let ring = spokes.iter().enumerate().map(|(i, &(jitter, r))| {
            let a = (i as f64 + jitter) * step;
            Point::new(r * a.cos(), r * a.sin())
        });
        Polygon::new(ring.collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segment_intersection_symmetric(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        let r12 = segment_intersection(&s1, &s2);
        let r21 = segment_intersection(&s2, &s1);
        // Existence must agree; point locations must match.
        match (r12, r21) {
            (SegmentIntersection::None, SegmentIntersection::None) => {}
            (SegmentIntersection::Point { p: p1, .. }, SegmentIntersection::Point { p: p2, .. }) => {
                prop_assert!(p1.dist(p2) < 1e-6, "{p1} vs {p2}");
            }
            (SegmentIntersection::Overlap { .. }, SegmentIntersection::Overlap { .. }) => {}
            (x, y) => prop_assert!(false, "asymmetric: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn intersection_point_lies_on_both(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        if let SegmentIntersection::Point { p, .. } = segment_intersection(&s1, &s2) {
            prop_assert!(s1.dist_to_point(p) < 1e-6);
            prop_assert!(s2.dist_to_point(p) < 1e-6);
        }
    }

    #[test]
    fn polygon_reverse_flips_area(poly in star_polygon()) {
        let rev = poly.reversed();
        prop_assert!(poly.is_ccw() && !rev.is_ccw());
        prop_assert!((poly.signed_area() + rev.signed_area()).abs() < 1e-9);
        prop_assert!((poly.area() - rev.area()).abs() < 1e-9);
    }

    #[test]
    fn polygon_centroid_inside_bbox(poly in star_polygon()) {
        prop_assert!(poly.bbox().inflated(1e-9).contains(poly.centroid()));
    }

    #[test]
    fn rect_algebra(a in pt(), b in pt(), c in pt(), d in pt(), probe in pt()) {
        let r1 = Rect::from_corners(a, b);
        let r2 = Rect::from_corners(c, d);
        let union = r1.union(&r2);
        // Containment law.
        if r1.contains(probe) || r2.contains(probe) {
            prop_assert!(union.contains(probe));
        }
        // Area monotonicity.
        prop_assert!(union.area() + 1e-9 >= r1.area().max(r2.area()));
    }

    #[test]
    fn delaunay_invariants(pts in points(3..30)) {
        let t = triangulate(&pts);
        prop_assert!(t.is_delaunay());
        // Planarity bound on edges.
        if pts.len() >= 3 {
            prop_assert!(t.edges().len() <= 3 * pts.len());
        }
        // All triangle indices valid.
        for tr in &t.triangles {
            for v in tr.vertices() {
                prop_assert!(v < pts.len());
            }
        }
    }

    #[test]
    fn projection_is_nearest(a in pt(), b in pt(), p in pt()) {
        let s = Segment::new(a, b);
        let proj = s.project(p);
        // The projection beats both endpoints and a few interior samples.
        let d = p.dist(proj);
        prop_assert!(d <= p.dist(a) + 1e-9);
        prop_assert!(d <= p.dist(b) + 1e-9);
        for k in 1..8 {
            let q = s.at(k as f64 / 8.0);
            prop_assert!(d <= p.dist(q) + 1e-9);
        }
    }
}
