//! Line segments and segment–segment intersection.

use crate::point::Point;
use crate::EPS;

/// A directed line segment from [`Segment::a`] to [`Segment::b`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

/// Classification of how two segments intersect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SegmentIntersection {
    /// The segments do not meet.
    None,
    /// The segments cross or touch at a single point.
    Point {
        /// The intersection point.
        p: Point,
        /// Interpolation parameter along the first segment, in `[0, 1]`.
        t: f64,
        /// Interpolation parameter along the second segment, in `[0, 1]`.
        u: f64,
    },
    /// The segments are collinear and overlap along a sub-segment.
    Overlap {
        /// Start of the shared portion.
        from: Point,
        /// End of the shared portion.
        to: Point,
    },
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Point at parameter `t` (`a` at 0, `b` at 1).
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Shortest distance from `p` to the segment.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        p.dist(self.project(p))
    }

    /// Closest point on the segment to `p`.
    pub fn project(&self, p: Point) -> Point {
        let d = self.b - self.a;
        let l2 = d.dot(d);
        if l2 <= f64::EPSILON {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / l2).clamp(0.0, 1.0);
        self.at(t)
    }

    /// The reversed segment.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Axis-aligned bounding box as `(min, max)` corners.
    pub fn bbox(&self) -> (Point, Point) {
        (
            Point::new(self.a.x.min(self.b.x), self.a.y.min(self.b.y)),
            Point::new(self.a.x.max(self.b.x), self.a.y.max(self.b.y)),
        )
    }
}

fn bboxes_disjoint(s1: &Segment, s2: &Segment) -> bool {
    let (lo1, hi1) = s1.bbox();
    let (lo2, hi2) = s2.bbox();
    hi1.x < lo2.x - EPS || hi2.x < lo1.x - EPS || hi1.y < lo2.y - EPS || hi2.y < lo1.y - EPS
}

/// Computes the intersection of two segments.
///
/// Handles the general crossing case, endpoint touching, and collinear
/// overlap. Parameters `t` (on `s1`) and `u` (on `s2`) are returned for the
/// point case, which the planarization and crossing-detection code use to
/// order multiple intersections along a trajectory leg.
pub fn segment_intersection(s1: &Segment, s2: &Segment) -> SegmentIntersection {
    if bboxes_disjoint(s1, s2) {
        return SegmentIntersection::None;
    }
    let r = s1.b - s1.a;
    let s = s2.b - s2.a;
    let denom = r.cross(s);
    let qp = s2.a - s1.a;

    let scale = r.norm() * s.norm();
    let tol = f64::EPSILON * 64.0 * scale.max(1e-300);

    if denom.abs() <= tol {
        // Parallel. Collinear iff qp is parallel to r as well.
        if qp.cross(r).abs() > EPS * r.norm().max(1.0) {
            return SegmentIntersection::None;
        }
        // Collinear: project s2 endpoints on s1's parameterization.
        let rr = r.dot(r);
        if rr <= f64::EPSILON {
            // s1 degenerate: point-on-segment check.
            if s2.dist_to_point(s1.a) <= EPS {
                return SegmentIntersection::Point { p: s1.a, t: 0.0, u: 0.0 };
            }
            return SegmentIntersection::None;
        }
        let t0 = (s2.a - s1.a).dot(r) / rr;
        let t1 = (s2.b - s1.a).dot(r) / rr;
        let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        let lo_c = lo.max(0.0);
        let hi_c = hi.min(1.0);
        if lo_c > hi_c + EPS {
            return SegmentIntersection::None;
        }
        if (hi_c - lo_c).abs() <= EPS {
            let p = s1.at(lo_c.clamp(0.0, 1.0));
            return SegmentIntersection::Point { p, t: lo_c, u: param_on(s2, p) };
        }
        return SegmentIntersection::Overlap { from: s1.at(lo_c), to: s1.at(hi_c) };
    }

    let t = qp.cross(s) / denom;
    let u = qp.cross(r) / denom;
    let slack = 1e-12;
    if t < -slack || t > 1.0 + slack || u < -slack || u > 1.0 + slack {
        return SegmentIntersection::None;
    }
    let t = t.clamp(0.0, 1.0);
    let u = u.clamp(0.0, 1.0);
    SegmentIntersection::Point { p: s1.at(t), t, u }
}

fn param_on(s: &Segment, p: Point) -> f64 {
    let d = s.b - s.a;
    let l2 = d.dot(d);
    if l2 <= f64::EPSILON {
        0.0
    } else {
        ((p - s.a).dot(d) / l2).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        match segment_intersection(&s1, &s2) {
            SegmentIntersection::Point { p, t, u } => {
                assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
                assert!((t - 0.5).abs() < 1e-12);
                assert!((u - 0.5).abs() < 1e-12);
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn no_intersection() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(0.0, 1.0, 1.0, 1.0);
        assert_eq!(segment_intersection(&s1, &s2), SegmentIntersection::None);
    }

    #[test]
    fn endpoint_touch() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(1.0, 0.0, 2.0, 5.0);
        match segment_intersection(&s1, &s2) {
            SegmentIntersection::Point { t, u, .. } => {
                assert!((t - 1.0).abs() < 1e-9);
                assert!(u.abs() < 1e-9);
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn collinear_overlap() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 0.0, 3.0, 0.0);
        match segment_intersection(&s1, &s2) {
            SegmentIntersection::Overlap { from, to } => {
                assert!((from.x - 1.0).abs() < 1e-12);
                assert!((to.x - 2.0).abs() < 1e-12);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn collinear_disjoint() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(2.0, 0.0, 3.0, 0.0);
        assert_eq!(segment_intersection(&s1, &s2), SegmentIntersection::None);
    }

    #[test]
    fn parallel_offset() {
        let s1 = seg(0.0, 0.0, 1.0, 1.0);
        let s2 = seg(0.0, 0.5, 1.0, 1.5);
        assert_eq!(segment_intersection(&s1, &s2), SegmentIntersection::None);
    }

    #[test]
    fn projection_and_distance() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.project(Point::new(5.0, 3.0)), Point::new(5.0, 0.0));
        assert_eq!(s.dist_to_point(Point::new(5.0, 3.0)), 3.0);
        // Beyond the end: clamps to endpoint.
        assert_eq!(s.project(Point::new(12.0, 0.0)), Point::new(10.0, 0.0));
        assert_eq!(s.dist_to_point(Point::new(12.0, 0.0)), 2.0);
    }

    #[test]
    fn degenerate_segment() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.project(Point::new(5.0, 5.0)), Point::new(1.0, 1.0));
    }

    #[test]
    fn t_ordering_multiple_hits() {
        // A long horizontal segment crossed by two verticals: intersection
        // parameters must order the hits left-to-right.
        let base = seg(0.0, 0.0, 10.0, 0.0);
        let v1 = seg(2.0, -1.0, 2.0, 1.0);
        let v2 = seg(7.0, -1.0, 7.0, 1.0);
        let t1 = match segment_intersection(&base, &v1) {
            SegmentIntersection::Point { t, .. } => t,
            _ => panic!(),
        };
        let t2 = match segment_intersection(&base, &v2) {
            SegmentIntersection::Point { t, .. } => t,
            _ => panic!(),
        };
        assert!(t1 < t2);
    }
}
