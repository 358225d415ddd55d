//! # stq-planar
//!
//! Planar-graph machinery: the combinatorial backbone of the framework
//! (paper §3.2–§3.4).
//!
//! A planar graph is stored as a **rotation system** ([`Embedding`]): each
//! vertex keeps its incident half-edges in counter-clockwise angular order.
//! Faces fall out of the face-tracing rule `next(h) = rot_prev(twin(h))`,
//! with interior faces traversed counter-clockwise — the paper's orientation
//! convention for 2-cells (§3.4, Fig. 3).
//!
//! On top of the embedding this crate provides:
//!
//! - face extraction and Euler-formula validation ([`Embedding::faces`],
//!   [`Faces`]),
//! - **dual graph** construction ([`dual::DualGraph`]) realizing the
//!   mobility-graph / sensing-graph duality of §3.2.3 (vertex ↔ face,
//!   edge ↔ edge),
//! - faces of an arbitrary **subgraph** via union-find over the
//!   complementary primal edges ([`dual::subgraph_faces`]) — how sampled
//!   sensing graphs `G̃` partition space into coarser cells (§4.5–§4.6),
//! - shortest paths / connectivity utilities ([`paths`]).
//!
//! The boundary operator `∂` of §3.4 is served by
//! `stq_core::sensing::SensingGraph::boundary_walk` over junction sets; the
//! inputs are generated plane graphs, so §4.2's planarization of raw map
//! geometry has no counterpart here.

pub mod dual;
pub mod embedding;
pub mod paths;
pub mod unionfind;

pub use dual::{subgraph_faces, DualGraph, SubgraphFaces};
pub use embedding::{Embedding, FaceId, Faces, HalfEdgeId, VertexId};
pub use unionfind::UnionFind;
