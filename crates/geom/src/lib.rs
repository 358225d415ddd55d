//! # stq-geom
//!
//! Plane geometry primitives for the `stq` framework.
//!
//! This crate is self-contained (no third-party geometry dependencies) and
//! provides everything the rest of the workspace needs:
//!
//! - [`Point`] / vector arithmetic and orientation predicates,
//! - [`Segment`] intersection (proper and endpoint-touching),
//! - [`Rect`] axis-aligned boxes used for query regions,
//! - [`Polygon`] with signed area, centroid, and point containment,
//! - a from-scratch Bowyer–Watson Delaunay triangulation
//!   ([`delaunay::triangulate`]) used to connect sampled sensors (paper §4.5).
//!
//! All coordinates are `f64`. Predicates use a tolerance-free formulation
//! where possible (sign of cross products) and an explicit epsilon where
//! floating-point noise is unavoidable; the workload generators in
//! `stq-mobility` jitter inputs so degenerate configurations are measure-zero.

pub mod delaunay;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod segment;

pub use delaunay::{triangulate, Triangle, Triangulation};
pub use point::Point;
pub use polygon::Polygon;
pub use predicates::{orient2d, Orientation};
pub use rect::Rect;
pub use segment::{segment_intersection, Segment, SegmentIntersection};

/// Default tolerance for floating-point comparisons in this crate.
pub const EPS: f64 = 1e-9;
