//! Lock-cheap observability for the serving runtime.
//!
//! Counters are plain relaxed atomics (queries never contend on a lock to
//! record progress); latencies go into a log₂-bucketed histogram of
//! microseconds, which answers p50/p95/p99 with bounded error (< 2× per
//! bucket) at the cost of one atomic increment per sample. A small ring of
//! per-query traces supports spot debugging without unbounded growth.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

const TRACE_CAP: usize = 256;
const BUCKETS: usize = 64;

/// One completed query, as remembered by the trace ring.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Runtime-assigned query id.
    pub query_id: u64,
    /// Shards the query fanned out to.
    pub shards: usize,
    /// Retry rounds that were needed (0 = first attempt answered).
    pub retries: u32,
    /// Fraction of boundary edges that reported (1.0 = complete).
    pub coverage: f64,
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
    /// Microseconds spent obtaining the query plan (cache lookup plus
    /// compile on a miss).
    pub plan_us: u64,
    /// Whether the plan came from the engine's cache.
    pub plan_cache_hit: bool,
    /// Whether the answer was served from partial data.
    pub degraded: bool,
    /// Whether the sampled graph could not cover the region at all.
    pub miss: bool,
    /// Degraded-mode strategy label (`"none"` when the ordinary path
    /// answered; see `stq_core::DegradedStrategy::label`).
    pub strategy: &'static str,
    /// Brownout precision level the answer was served at (0 = full
    /// precision, 3 = fully shed; see `crate::overload`).
    pub brownout: u8,
    /// Whether the query's deadline elapsed before it finished (the answer
    /// was short-circuited or clamped; its bracket is still sound).
    pub expired: bool,
}

/// One standing-subscription lifecycle event, as remembered by the
/// subscription trace ring (per-delta pushes are accounted in the
/// `delta_push_latency` histogram instead of traced individually — a
/// standing query sees thousands of deltas per re-snapshot).
#[derive(Clone, Debug)]
pub struct SubscriptionTrace {
    /// Registry-assigned subscription id.
    pub subscription: u64,
    /// Registry epoch at the event.
    pub epoch: u64,
    /// Bracket estimate after the event (0 for unsubscribes).
    pub value: f64,
    /// Bracket lower bound after the event.
    pub lower: f64,
    /// Bracket upper bound after the event.
    pub upper: f64,
    /// `"registered"`, `"resnapshot"` or `"unsubscribed"`.
    pub cause: &'static str,
}

/// Log₂-bucketed latency histogram (microseconds).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: std::array::from_fn(|_| AtomicU64::new(0)), total: AtomicU64::new(0) }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, micros: u64) {
        let bucket = (u64::BITS - micros.leading_zeros()) as usize; // log2(x)+1, 0 → 0
        self.counts[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The upper edge (µs) of the bucket holding the `q`-quantile sample,
    /// or 0 when empty. `q` is clamped to [0, 1].
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.len();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << b }; // bucket b holds [2^(b-1), 2^b)
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Declares every metric once. A `counters` row generates the atomic
/// [`Metrics`] field, the `u64` [`MetricsReport`] field and the line of
/// [`Metrics::report`] that loads it (`gauge` rows differ only in the
/// report field's doc); a `histograms` row generates the [`Histogram`]
/// field and one report field per listed quantile. The `Display` prose
/// below is the only other place a metric is named.
macro_rules! metrics {
    (@note counter) => { "" };
    (@note gauge) => { " (gauge at snapshot time)" };
    (
        counters { $( $(#[$cdoc:meta])* $kind:ident $c:ident, )* }
        histograms {
            $(
                $(#[$hdoc:meta])*
                $h:ident { $( $(#[$qdoc:meta])* $q:ident = $quantile:literal, )* }
            )*
        }
    ) => {
        /// The runtime's metric registry. All methods are callable from any
        /// thread without blocking queries behind each other.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $( $(#[$cdoc])* pub $c: AtomicU64, )*
            $( $(#[$hdoc])* pub $h: Histogram, )*
            traces: Mutex<VecDeque<QueryTrace>>,
            sub_traces: Mutex<VecDeque<SubscriptionTrace>>,
        }

        /// A frozen snapshot of [`Metrics`], cheap to copy around and print.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MetricsReport {
            $(
                #[doc = concat!(
                    "See [`Metrics::", stringify!($c), "`]", metrics!(@note $kind), "."
                )]
                pub $c: u64,
            )*
            $( $( $(#[$qdoc])* pub $q: u64, )* )*
        }

        impl Metrics {
            /// A point-in-time snapshot for reporting.
            pub fn report(&self) -> MetricsReport {
                MetricsReport {
                    $( $c: self.$c.load(Ordering::Relaxed), )*
                    $( $( $q: self.$h.quantile_us($quantile), )* )*
                }
            }
        }
    };
}

metrics! {
    counters {
        /// Queries completed (including misses and degraded answers).
        counter queries,
        /// Queries the sampled graph could not cover.
        counter misses,
        /// Queries answered from partial shard data.
        counter degraded,
        /// Gauge: edges flagged in the registry's quarantine column — by the
        /// integrity auditor at startup, or by a recovery that lost a shard's
        /// history; refreshed at every write of the column.
        gauge quarantined_edges,
        /// Degraded answers where plain demotion already resolved best.
        counter degraded_demoted,
        /// Degraded answers won by the multi-face detour graph.
        counter degraded_detour,
        /// Degraded answers certified by conservation-interval imputation.
        counter degraded_imputed,
        /// Degraded answers that fell back to a learned point estimate.
        counter degraded_learned,
        /// Shard requests sent (fan-out messages, including retries).
        counter shard_requests,
        /// Requests a shard handled successfully.
        counter shard_served,
        /// Requests lost to injected message drops.
        counter dropped,
        /// Requests that were delivered late.
        counter delayed,
        /// Responses that were duplicated in flight.
        counter duplicated,
        /// Requests swallowed by a crashed shard.
        counter crash_dropped,
        /// Retry rounds issued after a timeout.
        counter retries,
        /// Attempt windows that expired with shards still silent.
        counter timeouts,
        /// Worker panics caught by the shard guard (poisoned payloads).
        counter shard_panics,
        /// Boundary edges a shard refused to serve because the integrity
        /// auditor quarantined them.
        counter quarantine_refusals,
        /// Ingestion events dropped for arriving behind the stream watermark.
        counter late_dropped,
        /// Crossings ingested by shard workers (deduplicated redo deliveries
        /// excluded).
        counter ingested,
        /// Events `ingest`/`ingest_batch` refused (unknown edge or non-finite
        /// timestamp) — counted instead of panicking the caller.
        counter ingest_rejected,
        /// `ingest` / `ingest_batch` calls that sent at least one lane to a
        /// shard (an `ingest` call sends one lane of one event).
        counter ingest_batches,
        /// Records appended to shard write-ahead logs.
        counter wal_appends,
        /// WAL frames a worker appended from a lane, one per lane (a lane of
        /// one is a frame of one). Not counted: the one-event frames a lane
        /// with a scheduled kill in it is logged as, and the supervisor's redo
        /// appends.
        counter wal_group_commits,
        /// Snapshot rollovers (snapshot installed, WAL truncated).
        counter snapshots_taken,
        /// WAL records replayed during crash recovery.
        counter wal_replayed,
        /// Redo-buffer events re-applied during crash recovery.
        counter redo_replayed,
        /// Ingested events recovery could not reconstruct (the affected shard's
        /// edges were quarantined instead of served silently wrong).
        counter lost_events,
        /// Worker threads respawned by the supervisor.
        counter shard_respawns,
        /// Committed shard-map migration batches (load-aware rebalances).
        counter rebalances,
        /// Edges moved between shards across all committed migrations.
        counter edges_migrated,
        /// Migration batches aborted before commit (an involved shard was
        /// unhealthy or failed to quiesce; routing stayed unchanged).
        counter rebalance_aborted,
        /// Gauge: the shard map's current epoch (0 until the first migration).
        gauge map_epoch,
        /// Shard fan-outs skipped because the shard's worker was down
        /// (each skip degrades that query's coverage instead of stalling it).
        counter skipped_unhealthy,
        /// Shard logs dropped at a failed write (the shard serves on from memory).
        counter logs_lost,
        /// Query plans served from the engine's cache.
        counter plan_cache_hits,
        /// Query plans compiled because no cached plan existed.
        counter plan_cache_misses,
        /// Wholesale plan-cache clears (recovery re-admissions).
        counter plan_invalidations,
        /// Gauge: live standing subscriptions in the registry.
        gauge subscriptions,
        /// Bracket deltas applied to standing subscriptions by ingested events
        /// (one per event per subscription it moved). Not the number of channel
        /// sends: those are one per touched subscription per `ingest_batch`
        /// call (per event for `ingest`).
        counter deltas_pushed,
        /// Per-subscription re-snapshots at epoch advances (recovery, repair,
        /// forced).
        counter sub_resnapshots,
        /// Gauge: current subscription-registry epoch.
        gauge sub_epoch,
        /// Gauge: jobs sitting in the submission queue (sampled at submit and
        /// dispatch; the brownout controller's first watermark input).
        gauge queue_depth,
        /// Queries the admission gate refused (cost capacity exceeded or the
        /// queue full on `try_submit`) — each carried a `retry_after` hint.
        counter admission_rejected,
        /// Queries whose deadline elapsed before completion (short-circuited at
        /// submit, at dispatch, or clamped mid-fan-out).
        counter deadline_expired,
        /// Fan-out requests a shard worker dropped unserved because the query's
        /// deadline had already passed on arrival.
        counter shard_deadline_skips,
        /// Answers served at a reduced (but non-zero) brownout precision level
        /// (a strided boundary: wider sound brackets, cheaper execution).
        counter downgraded,
        /// Answers fully shed by brownout level 3 (no fan-out at all; the
        /// bracket comes from worst-case totals alone).
        counter shed,
        /// Gauge: the brownout controller's current precision level (0–3).
        gauge brownout_level,
        /// Brownout level changes (escalations plus relaxations).
        counter brownout_shifts,
        /// Circuit breakers tripped open (consecutive silent attempt windows).
        counter breaker_opened,
        /// Breakers that let a half-open probe through after `open_for`.
        counter breaker_half_open,
        /// Breakers closed again by a successful probe or response.
        counter breaker_closed,
        /// Shard fan-outs skipped because the shard's breaker was open (each
        /// degrades that query's coverage immediately instead of retrying).
        counter breaker_skipped,
        /// Standing-subscription pushes coalesced after brownout shedding
        /// lifted (one catch-up push per subscription).
        counter sub_coalesced,
    }
    histograms {
        /// Bracket widths of degraded-mode answers (absolute counts, log₂
        /// buckets) — the "how honest was the widening" histogram.
        degraded_width {
            /// 95th-percentile degraded-answer bracket width bucket edge (counts).
            degraded_width_p95 = 0.95,
        }
        /// Time to obtain a plan (cache lookup + compile on miss).
        plan_latency {
            /// 95th-percentile plan-acquisition latency bucket edge (µs).
            plan_p95_us = 0.95,
        }
        /// Time to execute an obtained plan (fan-out through aggregation).
        execute_latency {
            /// 95th-percentile plan-execution latency bucket edge (µs).
            execute_p95_us = 0.95,
        }
        /// End-to-end query latency.
        latency {
            /// Median latency bucket edge (µs).
            p50_us = 0.50,
            /// 95th-percentile latency bucket edge (µs).
            p95_us = 0.95,
            /// 99th-percentile latency bucket edge (µs).
            p99_us = 0.99,
        }
        /// Supervisor recovery duration (abnormal exit → re-admitted).
        recovery_us {}
        /// Time one `ingest` / `ingest_batch` call spends in the registry,
        /// moving the affected standing brackets and pushing them — the
        /// staleness of the push path.
        delta_push_latency {
            /// 95th-percentile delta-push latency bucket edge (µs).
            delta_push_p95_us = 0.95,
        }
    }
}

impl Metrics {
    /// A fresh registry. The query-trace ring is allocated whole, so the
    /// dispatcher that records a query never pays for growing it.
    pub fn new() -> Self {
        Metrics { traces: Mutex::new(VecDeque::with_capacity(TRACE_CAP)), ..Self::default() }
    }

    /// Convenience relaxed increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience relaxed add.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a completed query's trace (evicting the oldest past capacity).
    pub fn trace(&self, t: QueryTrace) {
        let mut ring = self.traces.lock();
        if ring.len() == TRACE_CAP {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    /// A copy of the most recent traces, oldest first.
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.traces.lock().iter().cloned().collect()
    }

    /// Records a subscription lifecycle event (evicting the oldest past
    /// capacity).
    pub fn trace_subscription(&self, t: SubscriptionTrace) {
        let mut ring = self.sub_traces.lock();
        if ring.len() == TRACE_CAP {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    /// A copy of the most recent subscription traces, oldest first.
    pub fn recent_subscription_traces(&self) -> Vec<SubscriptionTrace> {
        self.sub_traces.lock().iter().cloned().collect()
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queries {} (miss {}, degraded {})", self.queries, self.misses, self.degraded)?;
        writeln!(
            f,
            "shard requests {} (served {}, dropped {}, delayed {}, duplicated {}, crashed {})",
            self.shard_requests,
            self.shard_served,
            self.dropped,
            self.delayed,
            self.duplicated,
            self.crash_dropped
        )?;
        writeln!(f, "retry rounds {}, timeout windows {}", self.retries, self.timeouts)?;
        writeln!(
            f,
            "health: worker panics {}, quarantine refusals {}, late events {}",
            self.shard_panics, self.quarantine_refusals, self.late_dropped
        )?;
        writeln!(
            f,
            "degraded-mode: quarantined edges {}, demoted {}, detour {}, imputed {}, learned {}, \
             width p95 {}",
            self.quarantined_edges,
            self.degraded_demoted,
            self.degraded_detour,
            self.degraded_imputed,
            self.degraded_learned,
            self.degraded_width_p95
        )?;
        writeln!(
            f,
            "durability: ingested {}, wal appends {}, snapshots {}",
            self.ingested, self.wal_appends, self.snapshots_taken
        )?;
        writeln!(
            f,
            "ingest: rejected {}, batches {}, group commits {}",
            self.ingest_rejected, self.ingest_batches, self.wal_group_commits
        )?;
        writeln!(
            f,
            "supervision: respawns {}, wal replayed {}, redo replayed {}, lost events {}, \
             skipped unhealthy {}, logs lost {}",
            self.shard_respawns,
            self.wal_replayed,
            self.redo_replayed,
            self.lost_events,
            self.skipped_unhealthy,
            self.logs_lost
        )?;
        writeln!(
            f,
            "rebalance: migrations {}, edges moved {}, aborted {}, map epoch {}",
            self.rebalances, self.edges_migrated, self.rebalance_aborted, self.map_epoch
        )?;
        writeln!(
            f,
            "standing: subscriptions {}, deltas pushed {}, resnapshots {}, epoch {}, \
             delta push p95 {}us",
            self.subscriptions,
            self.deltas_pushed,
            self.sub_resnapshots,
            self.sub_epoch,
            self.delta_push_p95_us
        )?;
        writeln!(
            f,
            "overload: queue depth {}, rejected {}, expired {}, downgraded {}, shed {}, \
             brownout level {} (shifts {})",
            self.queue_depth,
            self.admission_rejected,
            self.deadline_expired,
            self.downgraded,
            self.shed,
            self.brownout_level,
            self.brownout_shifts
        )?;
        writeln!(
            f,
            "breakers: opened {}, half-open {}, closed {}, skipped {}, shard deadline skips {}, \
             pushes coalesced {}",
            self.breaker_opened,
            self.breaker_half_open,
            self.breaker_closed,
            self.breaker_skipped,
            self.shard_deadline_skips,
            self.sub_coalesced
        )?;
        writeln!(
            f,
            "engine: plan hits {} misses {} invalidations {}, plan p95 {}us, execute p95 {}us",
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_invalidations,
            self.plan_p95_us,
            self.execute_p95_us
        )?;
        write!(f, "latency p50 {}us p95 {}us p99 {}us", self.p50_us, self.p95_us, self.p99_us)
    }
}

#[cfg(test)]
mod tests;
