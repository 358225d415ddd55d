//! # stq-spatial
//!
//! Hierarchical and flat spatial indexes built from scratch:
//!
//! - [`KdTree`] — a static 2-d tree supporting nearest-neighbour, k-NN and
//!   rectangle range queries, plus *leaf enumeration* (the paper samples one
//!   node per kd-tree leaf, §4.3),
//! - [`QuadTree`] — a region quadtree with the same query and leaf-sampling
//!   surface,
//! - [`GridIndex`] — a uniform bucket grid used for fast point location and
//!   map matching.
//!
//! All indexes store `(Point, u32)` pairs: the payload is an opaque id the
//! callers map back to graph vertices. There is no index over rectangles:
//! standing query regions are routed by an edge-indexed table in
//! `stq-subscribe`.

pub mod grid;
pub mod kdtree;
pub mod quadtree;

pub use grid::GridIndex;
pub use kdtree::KdTree;
pub use quadtree::QuadTree;
