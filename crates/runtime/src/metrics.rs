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

/// The runtime's metric registry. All methods are callable from any thread
/// without blocking queries behind each other.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries completed (including misses and degraded answers).
    pub queries: AtomicU64,
    /// Queries the sampled graph could not cover.
    pub misses: AtomicU64,
    /// Queries answered from partial shard data.
    pub degraded: AtomicU64,
    /// Gauge: boundary edges the integrity auditor quarantined at startup.
    pub quarantined_edges: AtomicU64,
    /// Degraded answers where plain demotion already resolved best.
    pub degraded_demoted: AtomicU64,
    /// Degraded answers won by the multi-face detour graph.
    pub degraded_detour: AtomicU64,
    /// Degraded answers certified by conservation-interval imputation.
    pub degraded_imputed: AtomicU64,
    /// Degraded answers that fell back to a learned point estimate.
    pub degraded_learned: AtomicU64,
    /// Bracket widths of degraded-mode answers (absolute counts, log₂
    /// buckets) — the "how honest was the widening" histogram.
    pub degraded_width: Histogram,
    /// Shard requests sent (fan-out messages, including retries).
    pub shard_requests: AtomicU64,
    /// Requests a shard handled successfully.
    pub shard_served: AtomicU64,
    /// Requests lost to injected message drops.
    pub dropped: AtomicU64,
    /// Requests that were delivered late.
    pub delayed: AtomicU64,
    /// Responses that were duplicated in flight.
    pub duplicated: AtomicU64,
    /// Requests swallowed by a crashed shard.
    pub crash_dropped: AtomicU64,
    /// Retry rounds issued after a timeout.
    pub retries: AtomicU64,
    /// Attempt windows that expired with shards still silent.
    pub timeouts: AtomicU64,
    /// Worker panics caught by the shard guard (poisoned payloads).
    pub shard_panics: AtomicU64,
    /// Boundary edges a shard refused to serve because the integrity
    /// auditor quarantined them.
    pub quarantine_refusals: AtomicU64,
    /// Ingestion events dropped for arriving behind the stream watermark.
    pub late_dropped: AtomicU64,
    /// Exact-duplicate crossings suppressed at ingestion.
    pub dup_crossings: AtomicU64,
    /// Crossings ingested by shard workers (deduplicated redo deliveries
    /// excluded).
    pub ingested: AtomicU64,
    /// Events `ingest`/`ingest_batch` refused (unknown edge or non-finite
    /// timestamp) — counted instead of panicking the caller.
    pub ingest_rejected: AtomicU64,
    /// Columnar batches dispatched through `ingest_batch`.
    pub ingest_batches: AtomicU64,
    /// Records appended to shard write-ahead logs.
    pub wal_appends: AtomicU64,
    /// Group-commit WAL frames written (one per shard lane per batch; each
    /// frame is one header + one sync for its whole record group).
    pub wal_group_commits: AtomicU64,
    /// Snapshot rollovers (snapshot installed, WAL truncated).
    pub snapshots_taken: AtomicU64,
    /// WAL records replayed during crash recovery.
    pub wal_replayed: AtomicU64,
    /// Redo-buffer events re-applied during crash recovery.
    pub redo_replayed: AtomicU64,
    /// Ingested events recovery could not reconstruct (the affected shard's
    /// edges were quarantined instead of served silently wrong).
    pub lost_events: AtomicU64,
    /// Worker threads respawned by the supervisor.
    pub shard_respawns: AtomicU64,
    /// Committed shard-map migration batches (load-aware rebalances).
    pub rebalances: AtomicU64,
    /// Edges moved between shards across all committed migrations.
    pub edges_migrated: AtomicU64,
    /// Migration batches aborted before commit (an involved shard was
    /// unhealthy or failed to quiesce; routing stayed unchanged).
    pub rebalance_aborted: AtomicU64,
    /// Gauge: the shard map's current epoch (0 until the first migration).
    pub map_epoch: AtomicU64,
    /// Workers that escalated after consecutive panicked requests.
    pub escalations: AtomicU64,
    /// Shard fan-outs skipped because the shard was unhealthy or recovering
    /// (each skip degrades that query's coverage instead of stalling it).
    pub skipped_unhealthy: AtomicU64,
    /// Gauge: shards currently being recovered by the supervisor.
    pub recovering: AtomicU64,
    /// Query plans served from the engine's cache.
    pub plan_cache_hits: AtomicU64,
    /// Query plans compiled because no cached plan existed.
    pub plan_cache_misses: AtomicU64,
    /// Wholesale plan-cache clears (recovery re-admissions).
    pub plan_invalidations: AtomicU64,
    /// Time to obtain a plan (cache lookup + compile on miss).
    pub plan_latency: Histogram,
    /// Time to execute an obtained plan (fan-out through aggregation).
    pub execute_latency: Histogram,
    /// End-to-end query latency.
    pub latency: Histogram,
    /// Supervisor recovery duration (abnormal exit → re-admitted).
    pub recovery_us: Histogram,
    /// Gauge: live standing subscriptions in the registry.
    pub subscriptions: AtomicU64,
    /// Bracket deltas applied to standing subscriptions by ingested events
    /// (one per event per subscription it moved). Not the number of channel
    /// sends: those are one per touched subscription per `ingest_batch`
    /// call (per event for `ingest`).
    pub deltas_pushed: AtomicU64,
    /// Per-subscription re-snapshots at epoch advances (recovery, repair,
    /// forced).
    pub sub_resnapshots: AtomicU64,
    /// Gauge: current subscription-registry epoch.
    pub sub_epoch: AtomicU64,
    /// Time one `ingest` / `ingest_batch` call spends in the registry,
    /// moving the affected standing brackets and pushing them — the
    /// staleness of the push path.
    pub delta_push_latency: Histogram,
    /// Gauge: jobs sitting in the submission queue (sampled at submit and
    /// dispatch; the brownout controller's first watermark input).
    pub queue_depth: AtomicU64,
    /// Queries the admission gate refused (cost capacity exceeded or the
    /// queue full on `try_submit`) — each carried a `retry_after` hint.
    pub admission_rejected: AtomicU64,
    /// Queries whose deadline elapsed before completion (short-circuited at
    /// submit, at dispatch, or clamped mid-fan-out).
    pub deadline_expired: AtomicU64,
    /// Fan-out requests a shard worker dropped unserved because the query's
    /// deadline had already passed on arrival.
    pub shard_deadline_skips: AtomicU64,
    /// Answers served at a reduced (but non-zero) brownout precision level
    /// (a strided boundary: wider sound brackets, cheaper execution).
    pub downgraded: AtomicU64,
    /// Answers fully shed by brownout level 3 (no fan-out at all; the
    /// bracket comes from worst-case totals alone).
    pub shed: AtomicU64,
    /// Gauge: the brownout controller's current precision level (0–3).
    pub brownout_level: AtomicU64,
    /// Brownout level changes (escalations plus relaxations).
    pub brownout_shifts: AtomicU64,
    /// Circuit breakers tripped open (consecutive silent attempt windows).
    pub breaker_opened: AtomicU64,
    /// Breakers that let a half-open probe through after `open_for`.
    pub breaker_half_open: AtomicU64,
    /// Breakers closed again by a successful probe or response.
    pub breaker_closed: AtomicU64,
    /// Shard fan-outs skipped because the shard's breaker was open (each
    /// degrades that query's coverage immediately instead of retrying).
    pub breaker_skipped: AtomicU64,
    /// Standing-subscription pushes coalesced after brownout shedding
    /// lifted (one catch-up push per subscription).
    pub sub_coalesced: AtomicU64,
    traces: Mutex<VecDeque<QueryTrace>>,
    sub_traces: Mutex<VecDeque<SubscriptionTrace>>,
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience relaxed increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience relaxed add.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds a [`StreamTracker`](stq_core::streaming::StreamTracker)'s
    /// ingestion accounting into the registry, so rejected and deduplicated
    /// traffic shows up next to the serving counters.
    pub fn absorb_stream(&self, s: &stq_core::streaming::StreamStats) {
        Metrics::add(&self.late_dropped, s.late_dropped);
        Metrics::add(&self.dup_crossings, s.duplicates_suppressed);
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

    /// A point-in-time snapshot for reporting.
    pub fn report(&self) -> MetricsReport {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsReport {
            queries: load(&self.queries),
            misses: load(&self.misses),
            degraded: load(&self.degraded),
            quarantined_edges: load(&self.quarantined_edges),
            degraded_demoted: load(&self.degraded_demoted),
            degraded_detour: load(&self.degraded_detour),
            degraded_imputed: load(&self.degraded_imputed),
            degraded_learned: load(&self.degraded_learned),
            degraded_width_p95: self.degraded_width.quantile_us(0.95),
            shard_requests: load(&self.shard_requests),
            shard_served: load(&self.shard_served),
            dropped: load(&self.dropped),
            delayed: load(&self.delayed),
            duplicated: load(&self.duplicated),
            crash_dropped: load(&self.crash_dropped),
            retries: load(&self.retries),
            timeouts: load(&self.timeouts),
            shard_panics: load(&self.shard_panics),
            quarantine_refusals: load(&self.quarantine_refusals),
            late_dropped: load(&self.late_dropped),
            dup_crossings: load(&self.dup_crossings),
            ingested: load(&self.ingested),
            ingest_rejected: load(&self.ingest_rejected),
            ingest_batches: load(&self.ingest_batches),
            wal_appends: load(&self.wal_appends),
            wal_group_commits: load(&self.wal_group_commits),
            snapshots_taken: load(&self.snapshots_taken),
            wal_replayed: load(&self.wal_replayed),
            redo_replayed: load(&self.redo_replayed),
            lost_events: load(&self.lost_events),
            shard_respawns: load(&self.shard_respawns),
            rebalances: load(&self.rebalances),
            edges_migrated: load(&self.edges_migrated),
            rebalance_aborted: load(&self.rebalance_aborted),
            map_epoch: load(&self.map_epoch),
            escalations: load(&self.escalations),
            skipped_unhealthy: load(&self.skipped_unhealthy),
            recovering: load(&self.recovering),
            plan_cache_hits: load(&self.plan_cache_hits),
            plan_cache_misses: load(&self.plan_cache_misses),
            plan_invalidations: load(&self.plan_invalidations),
            subscriptions: load(&self.subscriptions),
            deltas_pushed: load(&self.deltas_pushed),
            sub_resnapshots: load(&self.sub_resnapshots),
            sub_epoch: load(&self.sub_epoch),
            queue_depth: load(&self.queue_depth),
            admission_rejected: load(&self.admission_rejected),
            deadline_expired: load(&self.deadline_expired),
            shard_deadline_skips: load(&self.shard_deadline_skips),
            downgraded: load(&self.downgraded),
            shed: load(&self.shed),
            brownout_level: load(&self.brownout_level),
            brownout_shifts: load(&self.brownout_shifts),
            breaker_opened: load(&self.breaker_opened),
            breaker_half_open: load(&self.breaker_half_open),
            breaker_closed: load(&self.breaker_closed),
            breaker_skipped: load(&self.breaker_skipped),
            sub_coalesced: load(&self.sub_coalesced),
            delta_push_p95_us: self.delta_push_latency.quantile_us(0.95),
            plan_p95_us: self.plan_latency.quantile_us(0.95),
            execute_p95_us: self.execute_latency.quantile_us(0.95),
            p50_us: self.latency.quantile_us(0.50),
            p95_us: self.latency.quantile_us(0.95),
            p99_us: self.latency.quantile_us(0.99),
        }
    }
}

/// A frozen snapshot of [`Metrics`], cheap to copy around and print.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// See [`Metrics::queries`].
    pub queries: u64,
    /// See [`Metrics::misses`].
    pub misses: u64,
    /// See [`Metrics::degraded`].
    pub degraded: u64,
    /// See [`Metrics::quarantined_edges`] (gauge at snapshot time).
    pub quarantined_edges: u64,
    /// See [`Metrics::degraded_demoted`].
    pub degraded_demoted: u64,
    /// See [`Metrics::degraded_detour`].
    pub degraded_detour: u64,
    /// See [`Metrics::degraded_imputed`].
    pub degraded_imputed: u64,
    /// See [`Metrics::degraded_learned`].
    pub degraded_learned: u64,
    /// 95th-percentile degraded-answer bracket width bucket edge (counts).
    pub degraded_width_p95: u64,
    /// See [`Metrics::shard_requests`].
    pub shard_requests: u64,
    /// See [`Metrics::shard_served`].
    pub shard_served: u64,
    /// See [`Metrics::dropped`].
    pub dropped: u64,
    /// See [`Metrics::delayed`].
    pub delayed: u64,
    /// See [`Metrics::duplicated`].
    pub duplicated: u64,
    /// See [`Metrics::crash_dropped`].
    pub crash_dropped: u64,
    /// See [`Metrics::retries`].
    pub retries: u64,
    /// See [`Metrics::timeouts`].
    pub timeouts: u64,
    /// See [`Metrics::shard_panics`].
    pub shard_panics: u64,
    /// See [`Metrics::quarantine_refusals`].
    pub quarantine_refusals: u64,
    /// See [`Metrics::late_dropped`].
    pub late_dropped: u64,
    /// See [`Metrics::dup_crossings`].
    pub dup_crossings: u64,
    /// See [`Metrics::ingested`].
    pub ingested: u64,
    /// See [`Metrics::ingest_rejected`].
    pub ingest_rejected: u64,
    /// See [`Metrics::ingest_batches`].
    pub ingest_batches: u64,
    /// See [`Metrics::wal_appends`].
    pub wal_appends: u64,
    /// See [`Metrics::wal_group_commits`].
    pub wal_group_commits: u64,
    /// See [`Metrics::snapshots_taken`].
    pub snapshots_taken: u64,
    /// See [`Metrics::wal_replayed`].
    pub wal_replayed: u64,
    /// See [`Metrics::redo_replayed`].
    pub redo_replayed: u64,
    /// See [`Metrics::lost_events`].
    pub lost_events: u64,
    /// See [`Metrics::shard_respawns`].
    pub shard_respawns: u64,
    /// See [`Metrics::rebalances`].
    pub rebalances: u64,
    /// See [`Metrics::edges_migrated`].
    pub edges_migrated: u64,
    /// See [`Metrics::rebalance_aborted`].
    pub rebalance_aborted: u64,
    /// See [`Metrics::map_epoch`] (gauge at snapshot time).
    pub map_epoch: u64,
    /// See [`Metrics::escalations`].
    pub escalations: u64,
    /// See [`Metrics::skipped_unhealthy`].
    pub skipped_unhealthy: u64,
    /// See [`Metrics::recovering`] (gauge at snapshot time).
    pub recovering: u64,
    /// See [`Metrics::plan_cache_hits`].
    pub plan_cache_hits: u64,
    /// See [`Metrics::plan_cache_misses`].
    pub plan_cache_misses: u64,
    /// See [`Metrics::plan_invalidations`].
    pub plan_invalidations: u64,
    /// See [`Metrics::subscriptions`] (gauge at snapshot time).
    pub subscriptions: u64,
    /// See [`Metrics::deltas_pushed`].
    pub deltas_pushed: u64,
    /// See [`Metrics::sub_resnapshots`].
    pub sub_resnapshots: u64,
    /// See [`Metrics::sub_epoch`] (gauge at snapshot time).
    pub sub_epoch: u64,
    /// See [`Metrics::queue_depth`] (gauge at snapshot time).
    pub queue_depth: u64,
    /// See [`Metrics::admission_rejected`].
    pub admission_rejected: u64,
    /// See [`Metrics::deadline_expired`].
    pub deadline_expired: u64,
    /// See [`Metrics::shard_deadline_skips`].
    pub shard_deadline_skips: u64,
    /// See [`Metrics::downgraded`].
    pub downgraded: u64,
    /// See [`Metrics::shed`].
    pub shed: u64,
    /// See [`Metrics::brownout_level`] (gauge at snapshot time).
    pub brownout_level: u64,
    /// See [`Metrics::brownout_shifts`].
    pub brownout_shifts: u64,
    /// See [`Metrics::breaker_opened`].
    pub breaker_opened: u64,
    /// See [`Metrics::breaker_half_open`].
    pub breaker_half_open: u64,
    /// See [`Metrics::breaker_closed`].
    pub breaker_closed: u64,
    /// See [`Metrics::breaker_skipped`].
    pub breaker_skipped: u64,
    /// See [`Metrics::sub_coalesced`].
    pub sub_coalesced: u64,
    /// 95th-percentile delta-push latency bucket edge (µs).
    pub delta_push_p95_us: u64,
    /// 95th-percentile plan-acquisition latency bucket edge (µs).
    pub plan_p95_us: u64,
    /// 95th-percentile plan-execution latency bucket edge (µs).
    pub execute_p95_us: u64,
    /// Median latency bucket edge (µs).
    pub p50_us: u64,
    /// 95th-percentile latency bucket edge (µs).
    pub p95_us: u64,
    /// 99th-percentile latency bucket edge (µs).
    pub p99_us: u64,
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
            "health: worker panics {}, quarantine refusals {}, late events {}, dup crossings {}",
            self.shard_panics, self.quarantine_refusals, self.late_dropped, self.dup_crossings
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
            "supervision: respawns {}, escalations {}, wal replayed {}, redo replayed {}, \
             lost events {}, skipped unhealthy {}, recovering {}",
            self.shard_respawns,
            self.escalations,
            self.wal_replayed,
            self.redo_replayed,
            self.lost_events,
            self.skipped_unhealthy,
            self.recovering
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
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = Histogram::default();
        for us in [1u64, 2, 3, 100, 200, 100_000] {
            h.record(us);
        }
        assert_eq!(h.len(), 6);
        // p50 of {1,2,3,100,200,100000}: 3rd sample = 3 → bucket edge 4.
        assert_eq!(h.quantile_us(0.5), 4);
        // p99 lands in the largest sample's bucket: 2^17 = 131072 ≥ 100000.
        assert_eq!(h.quantile_us(0.99), 131_072);
        assert!(h.quantile_us(0.0) >= 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let m = Metrics::new();
        for i in 0..(TRACE_CAP as u64 + 50) {
            m.trace(QueryTrace {
                query_id: i,
                shards: 1,
                retries: 0,
                coverage: 1.0,
                latency_us: 10,
                plan_us: 2,
                plan_cache_hit: false,
                degraded: false,
                miss: false,
                strategy: "none",
                brownout: 0,
                expired: false,
            });
        }
        let traces = m.recent_traces();
        assert_eq!(traces.len(), TRACE_CAP);
        assert_eq!(traces[0].query_id, 50, "oldest entries evicted first");
    }

    #[test]
    fn histogram_top_bucket_saturates() {
        let h = Histogram::default();
        // Everything at or beyond 2^63 µs lands in (and never overflows)
        // the final bucket; the quantile reports that bucket's edge.
        for us in [u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) - 1] {
            h.record(us);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.quantile_us(1.0), 1u64 << 63);
        assert_eq!(h.quantile_us(0.0), 1u64 << 63);
    }

    #[test]
    fn histogram_zero_sample_and_monotone_quantiles() {
        let h = Histogram::default();
        h.record(0); // 0 leading-zero trick: 0 → bucket 0, edge 0
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 7, 500, 1 << 40] {
            h.record(us);
        }
        let qs: Vec<u64> =
            [0.0, 0.25, 0.5, 0.75, 0.9, 1.0].iter().map(|&q| h.quantile_us(q)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be monotone: {qs:?}");
        // Out-of-range q is clamped, not panicked on.
        assert_eq!(h.quantile_us(-3.0), h.quantile_us(0.0));
        assert_eq!(h.quantile_us(42.0), h.quantile_us(1.0));
    }

    #[test]
    fn trace_ring_wraps_exactly_at_capacity() {
        let mk = |id: u64| QueryTrace {
            query_id: id,
            shards: 1,
            retries: 0,
            coverage: 1.0,
            latency_us: 10,
            plan_us: 2,
            plan_cache_hit: id % 2 == 0,
            degraded: false,
            miss: false,
            strategy: "none",
            brownout: 0,
            expired: false,
        };
        let m = Metrics::new();
        for i in 0..TRACE_CAP as u64 {
            m.trace(mk(i));
        }
        // Exactly full: nothing evicted yet.
        let t = m.recent_traces();
        assert_eq!(t.len(), TRACE_CAP);
        assert_eq!(t[0].query_id, 0);
        // One more evicts exactly the oldest.
        m.trace(mk(TRACE_CAP as u64));
        let t = m.recent_traces();
        assert_eq!(t.len(), TRACE_CAP);
        assert_eq!(t[0].query_id, 1);
        assert_eq!(t[TRACE_CAP - 1].query_id, TRACE_CAP as u64);
    }

    #[test]
    fn durability_counters_round_trip_report() {
        let m = Metrics::new();
        Metrics::add(&m.ingested, 100);
        Metrics::add(&m.wal_appends, 100);
        Metrics::bump(&m.snapshots_taken);
        Metrics::bump(&m.shard_respawns);
        Metrics::add(&m.wal_replayed, 40);
        Metrics::add(&m.redo_replayed, 5);
        m.recovery_us.record(800);
        let r = m.report();
        assert_eq!(r.ingested, 100);
        assert_eq!(r.snapshots_taken, 1);
        assert_eq!(r.shard_respawns, 1);
        let text = r.to_string();
        assert!(text.contains("wal appends 100"));
        assert!(text.contains("respawns 1"));
        // Pre-existing lines keep their shape (additive change only).
        assert!(text.contains("latency p50"));
    }

    #[test]
    fn engine_counters_round_trip_report() {
        let m = Metrics::new();
        Metrics::add(&m.plan_cache_hits, 7);
        Metrics::add(&m.plan_cache_misses, 3);
        Metrics::bump(&m.plan_invalidations);
        m.plan_latency.record(12);
        m.execute_latency.record(700);
        let r = m.report();
        assert_eq!(r.plan_cache_hits, 7);
        assert_eq!(r.plan_cache_misses, 3);
        assert_eq!(r.plan_invalidations, 1);
        assert!(r.plan_p95_us >= 12);
        assert!(r.execute_p95_us >= 700);
        let text = r.to_string();
        assert!(text.contains("plan hits 7 misses 3 invalidations 1"));
        // Pre-existing lines keep their shape (additive change only).
        assert!(text.contains("latency p50"));
        assert!(text.contains("queries 0"));
    }

    #[test]
    fn subscription_counters_round_trip_report() {
        let m = Metrics::new();
        m.subscriptions.store(3, Ordering::Relaxed);
        Metrics::add(&m.deltas_pushed, 41);
        Metrics::add(&m.sub_resnapshots, 6);
        m.sub_epoch.store(2, Ordering::Relaxed);
        m.delta_push_latency.record(9);
        let r = m.report();
        assert_eq!(r.subscriptions, 3);
        assert_eq!(r.deltas_pushed, 41);
        assert_eq!(r.sub_resnapshots, 6);
        assert_eq!(r.sub_epoch, 2);
        assert!(r.delta_push_p95_us >= 9);
        let text = r.to_string();
        assert!(text.contains("subscriptions 3"));
        assert!(text.contains("deltas pushed 41"));
        assert!(text.contains("resnapshots 6"));
        // Pre-existing lines keep their shape (additive change only).
        assert!(text.contains("latency p50"));
        assert!(text.contains("plan hits"));
    }

    #[test]
    fn subscription_trace_ring_is_bounded() {
        let m = Metrics::new();
        for i in 0..(TRACE_CAP as u64 + 10) {
            m.trace_subscription(SubscriptionTrace {
                subscription: i,
                epoch: 0,
                value: 1.0,
                lower: 1.0,
                upper: 1.0,
                cause: "registered",
            });
        }
        let traces = m.recent_subscription_traces();
        assert_eq!(traces.len(), TRACE_CAP);
        assert_eq!(traces[0].subscription, 10, "oldest entries evicted first");
        assert_eq!(traces.last().unwrap().cause, "registered");
    }

    #[test]
    fn degraded_mode_counters_round_trip_report() {
        let m = Metrics::new();
        m.quarantined_edges.store(14, Ordering::Relaxed);
        Metrics::bump(&m.degraded_demoted);
        Metrics::add(&m.degraded_detour, 2);
        Metrics::add(&m.degraded_imputed, 5);
        Metrics::bump(&m.degraded_learned);
        m.degraded_width.record(6);
        let r = m.report();
        assert_eq!(r.quarantined_edges, 14);
        assert_eq!(r.degraded_demoted, 1);
        assert_eq!(r.degraded_detour, 2);
        assert_eq!(r.degraded_imputed, 5);
        assert_eq!(r.degraded_learned, 1);
        assert!(r.degraded_width_p95 >= 6);
        let text = r.to_string();
        assert!(text.contains("quarantined edges 14"));
        assert!(text.contains("imputed 5"));
        // Pre-existing lines keep their shape (additive change only).
        assert!(text.contains("latency p50"));
        assert!(text.contains("queries 0"));
    }

    #[test]
    fn overload_counters_round_trip_report_at_saturation() {
        // The counter mix a saturated runtime produces: a deep queue,
        // admission rejections, expired deadlines, brownout downgrades and
        // full sheds, breaker churn, and coalesced subscription pushes.
        let m = Metrics::new();
        m.queue_depth.store(61, Ordering::Relaxed);
        Metrics::add(&m.admission_rejected, 40);
        Metrics::add(&m.deadline_expired, 9);
        Metrics::add(&m.shard_deadline_skips, 5);
        Metrics::add(&m.downgraded, 17);
        Metrics::add(&m.shed, 4);
        m.brownout_level.store(2, Ordering::Relaxed);
        Metrics::add(&m.brownout_shifts, 3);
        Metrics::add(&m.breaker_opened, 2);
        Metrics::bump(&m.breaker_half_open);
        Metrics::bump(&m.breaker_closed);
        Metrics::add(&m.breaker_skipped, 11);
        Metrics::add(&m.sub_coalesced, 6);
        let r = m.report();
        assert_eq!(r.queue_depth, 61);
        assert_eq!(r.admission_rejected, 40);
        assert_eq!(r.deadline_expired, 9);
        assert_eq!(r.shard_deadline_skips, 5);
        assert_eq!(r.downgraded, 17);
        assert_eq!(r.shed, 4);
        assert_eq!(r.brownout_level, 2);
        assert_eq!(r.brownout_shifts, 3);
        assert_eq!(r.breaker_opened, 2);
        assert_eq!(r.breaker_half_open, 1);
        assert_eq!(r.breaker_closed, 1);
        assert_eq!(r.breaker_skipped, 11);
        assert_eq!(r.sub_coalesced, 6);
        let text = r.to_string();
        assert!(text.contains("queue depth 61"));
        assert!(text.contains("rejected 40"));
        assert!(text.contains("downgraded 17"));
        assert!(text.contains("shed 4"));
        assert!(text.contains("brownout level 2 (shifts 3)"));
        assert!(text.contains("breakers: opened 2, half-open 1, closed 1, skipped 11"));
        assert!(text.contains("pushes coalesced 6"));
        // Pre-existing lines keep their shape (additive change only).
        assert!(text.contains("latency p50"));
        assert!(text.contains("queries 0"));
        assert!(text.contains("plan hits"));
    }

    #[test]
    fn query_trace_records_brownout_and_expiry() {
        let m = Metrics::new();
        m.trace(QueryTrace {
            query_id: 7,
            shards: 0,
            retries: 0,
            coverage: 0.0,
            latency_us: 40,
            plan_us: 2,
            plan_cache_hit: true,
            degraded: true,
            miss: false,
            strategy: "none",
            brownout: 3,
            expired: true,
        });
        let t = m.recent_traces();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].brownout, 3);
        assert!(t[0].expired);
    }

    #[test]
    fn stream_stats_are_absorbed() {
        let m = Metrics::new();
        let s = stq_core::streaming::StreamStats {
            accepted: 5,
            late_dropped: 2,
            duplicates_suppressed: 3,
        };
        m.absorb_stream(&s);
        m.absorb_stream(&s);
        let r = m.report();
        assert_eq!(r.late_dropped, 4);
        assert_eq!(r.dup_crossings, 6);
        assert!(r.to_string().contains("late events 4"));
    }

    #[test]
    fn report_snapshot_and_display() {
        let m = Metrics::new();
        Metrics::bump(&m.queries);
        Metrics::add(&m.shard_requests, 4);
        m.latency.record(900);
        let r = m.report();
        assert_eq!(r.queries, 1);
        assert_eq!(r.shard_requests, 4);
        assert_eq!(r.p50_us, 1024);
        let text = r.to_string();
        assert!(text.contains("queries 1"));
        assert!(text.contains("p50 1024us"));
    }
}
