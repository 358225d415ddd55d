//! Orientation and in-circle predicates.
//!
//! These are the two geometric predicates the planar-graph machinery and the
//! Delaunay triangulation rest on. They are implemented with plain `f64`
//! arithmetic plus a magnitude-relative tolerance; the generators in
//! `stq-mobility` jitter coordinates so that inputs near the predicate
//! decision boundary do not occur in practice.

use crate::point::Point;

/// Result of an orientation test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// The three points make a left turn (counter-clockwise).
    CounterClockwise,
    /// The three points make a right turn (clockwise).
    Clockwise,
    /// The three points are (numerically) collinear.
    Collinear,
}

/// Twice the signed area of the triangle `a, b, c`.
///
/// Positive iff `c` lies to the left of the directed line `a -> b`.
#[inline]
pub fn cross3(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

/// Orientation of the ordered triple `a, b, c` with a magnitude-relative
/// tolerance.
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    let det = cross3(a, b, c);
    // Scale the collinearity tolerance with the magnitude of the inputs so
    // the predicate behaves the same regardless of coordinate units.
    let mag = (b - a).norm() * (c - a).norm();
    let tol = f64::EPSILON * 64.0 * mag;
    if det > tol {
        Orientation::CounterClockwise
    } else if det < -tol {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// True iff point `d` lies strictly inside the circumcircle of the
/// counter-clockwise triangle `a, b, c`.
///
/// This is the standard 3×3 determinant formulation of the in-circle test,
/// translated so `d` is the origin, which greatly improves conditioning.
pub fn in_circle(a: Point, b: Point, c: Point, d: Point) -> bool {
    let ax = a.x - d.x;
    let ay = a.y - d.y;
    let bx = b.x - d.x;
    let by = b.y - d.y;
    let cx = c.x - d.x;
    let cy = c.y - d.y;

    let a2 = ax * ax + ay * ay;
    let b2 = bx * bx + by * by;
    let c2 = cx * cx + cy * cy;

    let det = a2 * (bx * cy - by * cx) - b2 * (ax * cy - ay * cx) + c2 * (ax * by - ay * bx);
    det > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(orient2d(a, b, Point::new(0.0, 1.0)), Orientation::CounterClockwise);
        assert_eq!(orient2d(a, b, Point::new(0.0, -1.0)), Orientation::Clockwise);
        assert_eq!(orient2d(a, b, Point::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn in_circle_unit() {
        // CCW unit right triangle; circumcircle is centred at (0.5, 0.5).
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        assert!(in_circle(a, b, c, Point::new(0.5, 0.5)));
        assert!(!in_circle(a, b, c, Point::new(2.0, 2.0)));
        // (1,1) is exactly on the circle; the strict test must reject it,
        // as it must a point just outside.
        assert!(!in_circle(a, b, c, Point::new(1.0, 1.0)));
        assert!(!in_circle(a, b, c, Point::new(1.0, 1.0 + 1e-9)));
    }

    #[test]
    fn in_circle_is_symmetric_under_rotation_of_abc() {
        let a = Point::new(0.3, 0.1);
        let b = Point::new(1.7, 0.4);
        let c = Point::new(0.9, 1.8);
        let d = Point::new(0.95, 0.8);
        let r1 = in_circle(a, b, c, d);
        let r2 = in_circle(b, c, a, d);
        let r3 = in_circle(c, a, b, d);
        assert_eq!(r1, r2);
        assert_eq!(r2, r3);
    }
}
