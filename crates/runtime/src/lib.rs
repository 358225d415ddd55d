//! # stq-runtime
//!
//! A concurrent, sharded query-serving runtime over the paper's tracking-form
//! machinery — the "in-network system" of §4.6 as an actual multi-threaded
//! dataflow instead of a cost formula.
//!
//! - **Sharded edge stores behind a [`ShardMap`]** — the per-edge
//!   [`stq_forms::TrackingForm`]s are partitioned across worker threads
//!   (initially edge `e` on shard `e % N`; with a [`RebalanceConfig`] the
//!   map migrates hot edges between shards as crossing rates skew). A query resolves its
//!   region once, fans its boundary edges out to the owning shards over
//!   channels, and re-folds the per-edge contributions in boundary order,
//!   making full-coverage answers bit-identical to the synchronous
//!   [`stq_core::query::evaluate`] path.
//! - **One ingest path** — [`Runtime::ingest_batch`] copies each event once,
//!   into its owning shard's lane (one shared slice per shard), and a durable
//!   worker logs each lane as one WAL frame; [`Runtime::ingest`] is the same
//!   path with a lane of one.
//! - **Fault injection and graceful degradation** — a seeded
//!   [`stq_net::FaultPlan`] drops, delays, and duplicates shard traffic and
//!   crashes shards on schedule; the aggregator retries with exponential
//!   backoff and, past the budget, serves widened `[lower, upper]` bounds
//!   with an honest `coverage` fraction instead of failing.
//! - **Durability and supervision** — with a [`DurabilityConfig`], each
//!   shard write-ahead-logs ingested crossings and periodically installs
//!   compact snapshots; a supervisor thread re-admits workers that die
//!   (scheduled kill -9 with torn WAL tails: rebuilt from snapshot + WAL +
//!   redo buffer to a **byte-identical** state). While a shard recovers,
//!   queries skip it and keep returning sound widened brackets; a request
//!   that panics is answered as `panicked` and widens the same way.
//! - **Standing subscriptions** — [`Runtime::subscribe`] registers a region
//!   once (compiled through the shared plan engine) and from then on every
//!   ingested crossing on the region's boundary moves the subscription's
//!   `[lower, upper]` bracket by a count delta instead of re-executing the
//!   query — bit-identical to re-execution at every epoch, with supervisor
//!   recovery and quarantine changes triggering a sound re-snapshot (see
//!   [`stq_subscribe`]).
//! - **Observability** — a lock-cheap [`Metrics`] registry (atomic counters,
//!   log₂ latency histogram with p50/p95/p99, bounded per-query traces).
//!
//! ```no_run
//! use stq_runtime::{Runtime, RuntimeConfig, QuerySpec};
//! # fn demo(sensing: stq_core::SensingGraph, sampled: stq_core::SampledGraph,
//! #         store: &stq_forms::FormStore, spec: QuerySpec) {
//! let rt = Runtime::new(sensing, sampled, store, RuntimeConfig::default());
//! let answer = rt.query(spec);
//! assert!(answer.lower <= answer.value && answer.value <= answer.upper);
//! println!("{}", rt.metrics().report());
//! # }
//! ```

mod aggregate;
mod dispatch;
mod flight;
mod ingest;
pub mod metrics;
pub mod overload;
pub mod server;
mod shard;
pub mod shardmap;
mod state;
mod supervisor;

pub use metrics::{Histogram, Metrics, MetricsReport, QueryTrace, SubscriptionTrace};
pub use overload::{BreakerConfig, BrownoutConfig, OverloadConfig, Rejected, MAX_BROWNOUT_LEVEL};
pub use server::{
    DurabilityConfig, IngestError, IngestReport, PendingAnswer, QuerySpec, Runtime, RuntimeConfig,
    ServedAnswer, SubscriptionHandle,
};
pub use shard::ShardHealth;
pub use shardmap::{Migration, RebalanceConfig, ShardMap};
pub use stq_net::{
    ChaosBuilder, ChaosConfig, ChaosError, CrashWindow, DurabilityFaultPlan, FaultDecision,
    FaultPlan, IngestCrash, MessageCtx, SensorFault, SensorFaultKind, SensorFaultMix,
    SensorFaultPlan,
};
pub use stq_subscribe::{
    BracketUpdate, Registered, RegistryStats, StandingBracket, SubscribeError, SubscriptionId,
    SubscriptionRegistry, UpdateCause,
};
