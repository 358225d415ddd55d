//! Axis-aligned rectangles.
//!
//! Rectangles are how spatiotemporal range queries are posed to the framework
//! before being converted to unions of planar-graph faces (paper §5.1.5).

use crate::point::Point;

/// An axis-aligned rectangle, stored as min/max corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// The corner with the smallest coordinates.
    pub min: Point,
    /// The corner with the largest coordinates.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners in any order.
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its center and full extents.
    pub fn centered(center: Point, width: f64, height: f64) -> Self {
        let h = Point::new(width * 0.5, height * 0.5);
        Rect { min: center - h, max: center + h }
    }

    /// The empty rectangle, suitable as the identity for [`Rect::union`].
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Smallest rectangle covering a set of points; `None` for an empty set.
    pub fn bounding(points: &[Point]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let mut r = Rect::empty();
        for &p in points {
            r = r.expanded_to(p);
        }
        Some(r)
    }

    /// Width (always ≥ 0 for a non-empty rectangle).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (always ≥ 0 for a non-empty rectangle).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area, or 0 when empty/degenerate.
    #[inline]
    pub fn area(&self) -> f64 {
        (self.width().max(0.0)) * (self.height().max(0.0))
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// True when no point satisfies containment (min > max on some axis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when the rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || other.min.x > self.max.x
            || other.max.x < self.min.x
            || other.min.y > self.max.y
            || other.max.y < self.min.y)
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Rectangle grown by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Rect {
        let m = Point::new(margin, margin);
        Rect { min: self.min - m, max: self.max + m }
    }

    /// Rectangle expanded minimally to cover `p`.
    pub fn expanded_to(&self, p: Point) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(p.x), self.min.y.min(p.y)),
            max: Point::new(self.max.x.max(p.x), self.max.y.max(p.y)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalized() {
        let r = Rect::from_corners(Point::new(3.0, 1.0), Point::new(1.0, 4.0));
        assert_eq!(r.min, Point::new(1.0, 1.0));
        assert_eq!(r.max, Point::new(3.0, 4.0));
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 3.0);
        assert_eq!(r.area(), 6.0);
    }

    #[test]
    fn containment() {
        let r = Rect::from_corners(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.0, 0.0))); // boundary is closed
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn intersection_union() {
        let a = Rect::from_corners(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Rect::from_corners(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        assert!(a.intersects(&b));
        let u = a.union(&b);
        assert_eq!(u.min, Point::new(0.0, 0.0));
        assert_eq!(u.max, Point::new(3.0, 3.0));
    }

    #[test]
    fn empty_behaviour() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert!(!e.contains(Point::new(0.0, 0.0)));
        let r = Rect::from_corners(Point::ORIGIN, Point::new(1.0, 1.0));
        assert!(!e.intersects(&r));
        assert_eq!(e.union(&r), r);
    }

    #[test]
    fn bounding_points() {
        assert!(Rect::bounding(&[]).is_none());
        let r =
            Rect::bounding(&[Point::new(1.0, 5.0), Point::new(-2.0, 0.0), Point::new(3.0, 2.0)])
                .unwrap();
        assert_eq!(r.min, Point::new(-2.0, 0.0));
        assert_eq!(r.max, Point::new(3.0, 5.0));
    }

    #[test]
    fn centered_and_inflate() {
        let r = Rect::centered(Point::new(1.0, 1.0), 2.0, 4.0);
        assert_eq!(r.min, Point::new(0.0, -1.0));
        assert_eq!(r.max, Point::new(2.0, 3.0));
        let g = r.inflated(1.0);
        assert_eq!(g.min, Point::new(-1.0, -2.0));
        assert_eq!(g.max, Point::new(3.0, 4.0));
    }
}
