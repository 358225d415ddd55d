//! # stq-forms
//!
//! Discrete differential 1-forms with paired incoming/outgoing counts — the
//! paper's solution to the **double-counting problem** (§4.7).
//!
//! Every monitored edge carries two monotone timestamp sequences, one per
//! traversal direction (Eq. 8: `γ⁺`, `γ⁻`). Queries integrate these along the
//! boundary chain of a region:
//!
//! - snapshot count (Theorem 4.1 / 4.2): objects inside at time `t`,
//! - transient count (Theorem 4.3): net entries minus exits over `[t₁, t₂]`,
//! - static interval count: a lower-bound estimator for objects present
//!   during the *whole* interval.
//!
//! Because each object contributes `+1` on entry and `−1` on exit across the
//! boundary, re-entering objects cancel instead of double-counting, without
//! any identifier ever being stored.
//!
//! [`FormStore`] holds every edge's form; [`ShardForms`] is the part of it one
//! shard of the serving runtime owns — the one type shard state has from the
//! start-up partition through migration and recovery to the snapshot on disk.
//! Both answer counts through [`CountSource`], so the evaluators in
//! [`query`] fold a whole boundary or a single edge of it the same way.
//!
//! The [`oracle`] module provides an identifier-based ground-truth counter
//! used only by tests and benchmarks to certify exactness of the form-based
//! counts on fully-monitored graphs.

pub mod audit;
pub mod columnar;
pub mod form;
pub mod oracle;
pub mod privacy;
pub mod query;

pub use audit::{
    audit, AuditConfig, AuditReport, ComponentSpec, EdgeHealth, EdgeVerdict, Evidence, Violation,
};
pub use columnar::ColumnarBatch;
pub use form::{events_until, CountSource, FormStore, ShardForms, TrackingForm};
pub use oracle::OracleTracker;
pub use privacy::PrivateCounts;
pub use query::{
    gross_flow, snapshot_count, static_interval_count, static_interval_lower_bound,
    transient_count, BoundaryEdge,
};

/// Timestamps are plain seconds; only ordering and differences matter.
pub type Time = f64;
/// Edges are dense indices `0..num_edges`, matching
/// `stq_planar::embedding::EdgeId`.
pub type EdgeIdx = usize;
