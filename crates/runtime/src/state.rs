//! The state the runtime's threads share: [`Shared`] between the server,
//! the supervisor and every shard worker; [`ServerState`] between the
//! submitting threads and the dispatchers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use stq_core::degraded::{DegradedAnswerer, DegradedPolicy};
use stq_core::engine::QueryEngine;
use stq_core::query::QueryRegion;
use stq_core::sampled::SampledGraph;
use stq_core::sensing::SensingGraph;
use stq_durability::ShardDurability;
use stq_forms::FormStore;
use stq_net::{DurabilityFaultPlan, FaultPlan};
use stq_subscribe::SubscriptionRegistry;

use crate::lifecycle::{IngestLane, NO_LOG};
use crate::metrics::Metrics;
use crate::overload::OverloadState;
use crate::server::RuntimeConfig;
use crate::shard::ShardMsg;
use crate::shardmap::ShardMap;

/// What the server, the supervisor and every shard worker share. It holds
/// no shard `Sender` on purpose: workers keep an `Arc<Shared>`, and shutdown
/// works by the senders' owners ([`ServerState`], the supervisor) dropping
/// them so each worker sees its channel disconnect.
pub(crate) struct Shared {
    /// Per-shard ingest sequence counter and redo buffer (of lanes).
    pub lanes: Vec<Mutex<IngestLane>>,
    /// Per-shard health: down from a worker's death until its respawn.
    pub health: Vec<AtomicBool>,
    /// Per-shard durable floor: the highest sequence the WAL has synced, or [`NO_LOG`].
    pub durable_seq: Vec<AtomicU64>,
    /// Fault injection applied to shard traffic.
    pub fault: FaultPlan,
    /// Seeded ingest-time crash injection (none without durability).
    pub dfaults: DurabilityFaultPlan,
    pub metrics: Arc<Metrics>,
    /// Shared plan cache: dispatchers and `subscribe` compile and reuse
    /// region plans here. It serves [`ServerState`]'s one graph pair for the
    /// runtime's life: recovery and migration change neither graph, so no
    /// plan is dropped but by LRU eviction.
    pub engine: Arc<QueryEngine>,
    /// Standing-query registry: every ingested event routes through it
    /// (delta-push), and the supervisor re-snapshots it on every recovery
    /// *before* the health flip, so a delta arriving mid-recovery can never
    /// survive into a pre-crash bracket. It also owns the per-edge lifetime
    /// crossing totals — the degradation bounds for silent shards — and
    /// bumps them inside its lock, so standing brackets and totals can
    /// never observe each other half-updated — and the per-edge quarantine
    /// flags, shared out like the totals, set under the same lock and never
    /// cleared: the shard workers refuse by them, the aggregator and the
    /// standing fold widen by them. Boxed: its lock word and
    /// counters are written on every ingest and must not share a cache line
    /// with the pointers beside it here, which every thread reads.
    pub subs: Box<SubscriptionRegistry>,
    /// The edge→shard routing map every layer shares: dispatchers and
    /// ingest read it, the supervisor commits migrations into it. Its epoch
    /// is what a routed ingest and a dispatcher's groups table re-check
    /// after a migration.
    pub map: ShardMap,
    /// The road network's dual: what every region is resolved on.
    pub sensing: SensingGraph,
    /// The one sampled graph the runtime serves for its life: `engine`'s
    /// plans, the subscriptions' and the degraded ladder's fine-graph plans
    /// are all compiled on it.
    pub sampled: SampledGraph,
    /// With [`RuntimeConfig::degraded`] set, the degraded answerer of the
    /// quarantine column's current generation; `None` without it. Only the
    /// supervisor writes it ([`Shared::follow_quarantine`]); a consult clones
    /// the `Arc` out and answers without the lock.
    pub ladder: Option<Mutex<Ladder>>,
}

/// The degraded answerer built from the quarantine column's flagged edges,
/// and how many there were. Flags are never cleared, so that count names
/// the column's generation.
pub(crate) struct Ladder {
    flagged: usize,
    pub answerer: Arc<DegradedAnswerer>,
}

impl Ladder {
    /// The answerer over the column's `flagged` edges: one build path for the
    /// start-up quarantine and every later generation.
    fn build(sensing: &SensingGraph, sampled: &SampledGraph, flagged: &[usize]) -> Self {
        let answerer = DegradedAnswerer::new(sensing, sampled, flagged, DegradedPolicy::default());
        Ladder { flagged: flagged.len(), answerer: Arc::new(answerer) }
    }
}

/// The edges `subs`' quarantine column flags, ascending.
fn flagged_edges(subs: &SubscriptionRegistry) -> Vec<usize> {
    let column = subs.quarantined();
    (0..column.len()).filter(|&e| column[e].load(Ordering::Acquire)).collect()
}

impl Shared {
    pub(crate) fn new(
        sensing: SensingGraph,
        sampled: SampledGraph,
        store: &FormStore,
        cfg: &RuntimeConfig,
        quarantined: &[usize],
    ) -> Self {
        let ns = cfg.num_shards;
        let metrics = Arc::new(Metrics::new());
        // The registry derives the lifetime totals, the applied-count mirror
        // and the per-direction watermarks from the same store the shards
        // start on.
        let engine = Arc::new(QueryEngine::new(cfg.plan_cache));
        let subs = Box::new(SubscriptionRegistry::new(
            Arc::clone(&engine),
            store,
            quarantined.iter().copied(),
        ));
        // The shard map starts with the modulo assignment either way, so a
        // fresh runtime is bit-identical with and without rebalancing, which
        // reuses the registry's lifetime totals as its crossing-rate feed.
        let map = ShardMap::new(ns, subs.totals(), cfg.rebalance);
        let floor = if cfg.durability.is_some() { 0 } else { NO_LOG };
        // Generation 0: the start-up quarantine, empty or not.
        let ladder = cfg
            .degraded
            .then(|| Mutex::new(Ladder::build(&sensing, &sampled, &flagged_edges(&subs))));
        let shared = Shared {
            lanes: (0..ns).map(|_| Mutex::default()).collect(),
            health: (0..ns).map(|_| AtomicBool::new(true)).collect(),
            durable_seq: (0..ns).map(|_| AtomicU64::new(floor)).collect(),
            fault: cfg.fault.clone(),
            dfaults: cfg
                .durability
                .as_ref()
                .map_or_else(DurabilityFaultPlan::none, |d| d.faults.clone()),
            metrics,
            engine,
            subs,
            map,
            sensing,
            sampled,
            ladder,
        };
        shared.refresh_quarantine_gauge();
        shared
    }

    /// Builds the degraded answerer of the column's current generation if
    /// the column grew past the one in the slot, and swaps it in. Runs on
    /// the supervisor after a recovery extended the column (and nowhere
    /// else), so the build happens outside the slot's lock: consults keep
    /// answering over the previous generation meanwhile.
    pub(crate) fn follow_quarantine(&self) {
        let Some(slot) = self.ladder.as_ref() else { return };
        let flagged = flagged_edges(&self.subs);
        if slot.lock().flagged == flagged.len() {
            return;
        }
        let next = Ladder::build(&self.sensing, &self.sampled, &flagged);
        *slot.lock() = next;
    }

    /// Sets the `quarantined_edges` gauge to what the registry's column
    /// holds; called after every write of the column.
    fn refresh_quarantine_gauge(&self) {
        let flagged = self.subs.quarantined().iter().filter(|q| q.load(Ordering::Acquire)).count();
        self.metrics.quarantined_edges.store(flagged as u64, Ordering::Relaxed);
    }

    pub(crate) fn healthy(&self, shard: usize) -> bool {
        self.health[shard].load(Ordering::Acquire)
    }

    /// Runs one write on `shard`'s log, if it keeps one. A failed write, anywhere, drops the
    /// log and publishes [`NO_LOG`]; the forms are whole (a write follows what it logs).
    pub(crate) fn log_io<T>(
        &self,
        shard: usize,
        log: &mut Option<ShardDurability>,
        write: impl FnOnce(&mut ShardDurability) -> std::io::Result<T>,
    ) -> Option<T> {
        let written = write(log.as_mut()?);
        if written.is_err() {
            *log = None;
            self.publish_floor(shard, NO_LOG);
            Metrics::bump(&self.metrics.logs_lost);
        }
        written.ok()
    }

    /// Syncs `shard`'s log and publishes its floor: [`NO_LOG`] without one.
    pub(crate) fn sync(&self, shard: usize, log: &mut Option<ShardDurability>) {
        let floor = self.log_io(shard, log, ShardDurability::sync).unwrap_or(NO_LOG);
        self.publish_floor(shard, floor);
    }

    /// Publishes `shard`'s durable floor, what its log has synced or [`NO_LOG`]:
    /// the one writer of `durable_seq`, for worker, recovery, cut and log loss.
    pub(crate) fn publish_floor(&self, shard: usize, floor: u64) {
        self.durable_seq[shard].store(floor, Ordering::Release);
    }

    /// Starts a new subscription epoch, absorbing `extra_quarantine` into
    /// the registry's column (the one place the runtime extends quarantine),
    /// and counts the re-snapshots and the subscribers left (the epoch drops
    /// one whose receiver is gone). Returns the new epoch.
    pub(crate) fn resnapshot(&self, extra_quarantine: impl IntoIterator<Item = usize>) -> u64 {
        let updates = self.subs.advance_epoch(extra_quarantine);
        self.refresh_quarantine_gauge();
        Metrics::add(&self.metrics.sub_resnapshots, updates.len() as u64);
        self.refresh_subscription_gauge();
        let epoch = self.subs.epoch();
        self.metrics.sub_epoch.store(epoch, Ordering::Relaxed);
        epoch
    }

    /// Stores the registry's live-subscription count in its gauge. Every
    /// path that can add or drop a subscriber calls this, or (an ingest
    /// batch) stores the count the registry read under its own lock.
    pub(crate) fn refresh_subscription_gauge(&self) {
        self.metrics.subscriptions.store(self.subs.len() as u64, Ordering::Relaxed);
    }
}

/// Everything the submitting threads and the dispatchers read. No counts:
/// those live in the shards' forms and the registry's mirror.
pub(crate) struct ServerState {
    pub shared: Arc<Shared>,
    pub cfg: RuntimeConfig,
    pub to_shards: Vec<Sender<ShardMsg>>,
    /// Overload control (admission gate, brownout controller, breakers);
    /// `None` when [`RuntimeConfig::overload`] is unset.
    pub overload: Option<OverloadState>,
    /// Capacity of each dispatcher's reply channel, which lives as long as
    /// its thread: `queue_capacity × 2 × num_shards × (max_retries + 2)`,
    /// saturating. A batch is at most `queue_capacity` queries, and each
    /// accounts for `2 × num_shards × (max_retries + 1)` — every awaited
    /// shard answers once per attempt plus one injected duplicate — while
    /// `fan_out` empties the channel before the batch's first send. The
    /// other `2 × num_shards` a query are for what a per-query channel never
    /// saw: the answers, one per shard and its duplicate, that were still
    /// being computed for the batch before when the dispatcher gave up on
    /// it; `fan_out` discards them by `query_id`. Answers to requests
    /// abandoned longer ago, coming out back to back from a shard that had
    /// stalled while the dispatcher is off the CPU, can still fill the
    /// channel; shards `try_send`, so whatever does not fit is dropped — a
    /// late answer like one to a receiver that is gone, or a current one that
    /// then counts as a silent shard for one attempt (retried, or degraded
    /// soundly) — never a blocked worker. The channel shim allocates at most
    /// 64 slots up front, whatever the bound.
    pub resp_capacity: usize,
}

impl ServerState {
    pub(crate) fn new(
        shared: Arc<Shared>,
        cfg: RuntimeConfig,
        to_shards: Vec<Sender<ShardMsg>>,
    ) -> Self {
        let ns = cfg.num_shards;
        let overload = cfg
            .overload
            .as_ref()
            .map(|oc| OverloadState::new(oc.clone(), &shared.sensing, &shared.sampled, ns));
        ServerState {
            shared,
            resp_capacity: [2, ns, (cfg.max_retries as usize).saturating_add(2)]
                .into_iter()
                .fold(cfg.queue_capacity.max(1), usize::saturating_mul),
            cfg,
            to_shards,
            overload,
        }
    }

    /// `region` names a junction this city does not have: it was built on
    /// another graph and must be refused before any plan is made. Its
    /// junctions are strictly increasing, so the last one decides.
    pub(crate) fn foreign(&self, region: &QueryRegion) -> bool {
        region.junctions().last().is_some_and(|&j| j >= self.shared.sensing.road().num_junctions())
    }
}
