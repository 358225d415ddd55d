//! The sharded query-serving runtime: configuration, the [`Runtime`]
//! lifecycle, query submission and the standing-subscription API. The write
//! path lives in `crate::ingest`, the fan-out / retry / breaker loop in
//! `crate::dispatch`, and the slots → bracket → answer step in
//! `crate::aggregate`.
//!
//! ## Dataflow
//!
//! ```text
//! submit() ─▶ bounded job queue ─▶ dispatcher threads: a batch = the job
//!                                  woken for + every job queued behind it
//!                                     │ engine.plan each (cached region plan)
//!                                     ├─▶ shard 0 ─┐ every query's requests
//!                                     ├─▶ shard 1 ─┤ in one round; per-edge
//!                                     └─▶ shard k ─┘ counts on one reply channel
//!                                     ▼ per query, once its edges reported:
//!                                       re-fold in boundary order
//!                                 ServedAnswer
//!
//! ingest() ─▶ per-shard lane (seq + redo buffer) ─▶ shard worker
//!                                                    ├─ apply to forms
//!                                                    └─ WAL append/snapshot
//! supervisor ◀─ dead workers: rebuilt from snapshot + WAL + redo buffer,
//!               respawned, re-admitted
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use stq_core::degraded::DegradedPolicy;
use stq_core::query::{Approximation, QueryKind, QueryRegion};
use stq_core::sampled::SampledGraph;
use stq_core::sensing::SensingGraph;
use stq_forms::{FormStore, ShardForms};
use stq_net::{DurabilityFaultPlan, FaultPlan};
use stq_subscribe::{
    BracketUpdate, RegistryStats, StandingBracket, SubscribeError, SubscriptionId,
};

pub use crate::aggregate::ServedAnswer;
use crate::aggregate::{answer_batch, answer_expired, Batch};
use crate::dispatch::Dispatcher;
pub use crate::ingest::{IngestError, IngestReport};
use crate::metrics::Metrics;
use crate::overload::{OverloadConfig, Rejected};
use crate::shard::{ShardHealth, ShardMsg};
use crate::shardmap::RebalanceConfig;
use crate::state::{ServerState, Shared};
use crate::supervisor::{Supervisor, SupervisorMsg};

/// Write-ahead-log + snapshot settings for the runtime.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory; shard `i` persists under `wal-dir/shard-<i>/`.
    /// Initialized fresh (base snapshot + empty WAL) at runtime startup.
    pub wal_dir: PathBuf,
    /// Appends between snapshot rollovers (snapshot installed atomically,
    /// WAL truncated). Bounds recovery replay cost. A snapshot costs
    /// O(shard state) plus an fsync while WAL records are 33 bytes each,
    /// so this should stay large: replaying even 64 K records is ~2 MB of
    /// sequential reads, far cheaper than snapshotting often.
    pub snapshot_every: u64,
    /// Events appended between WAL syncs, checked after every WAL frame (one
    /// per lane a worker is sent; `ingest` sends lanes of one): a lane of
    /// `sync_every` events or more syncs on its own, a shorter one once the
    /// events since the last sync reach it. A sync publishes the shard's
    /// durable floor and lets the server trim its redo buffer, which holds
    /// every lane until then.
    pub sync_every: u64,
    /// Seeded ingest-time crash injection (kill -9 with torn-tail cut).
    pub faults: DurabilityFaultPlan,
}

impl DurabilityConfig {
    /// Defaults: snapshot every 65536 appends, sync every 32, no faults.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            wal_dir: wal_dir.into(),
            snapshot_every: 65_536,
            sync_every: 32,
            faults: DurabilityFaultPlan::none(),
        }
    }
}

/// Tuning knobs of the runtime.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads owning disjoint slices of the edge stores (≥ 1).
    pub num_shards: usize,
    /// Threads resolving regions and aggregating shard answers (≥ 1).
    pub dispatchers: usize,
    /// Capacity of the submission queue; `submit` blocks when it is full
    /// (backpressure instead of unbounded buffering).
    pub queue_capacity: usize,
    /// How long the aggregator waits for shards on the first attempt; each
    /// retry doubles the window (exponential backoff).
    pub shard_timeout: Duration,
    /// Retry rounds after the first attempt before degrading.
    pub max_retries: u32,
    /// Fault injection applied to shard traffic.
    pub fault: FaultPlan,
    /// WAL + snapshot persistence; `None` keeps state memory-only (no
    /// worker can then be killed, so the ingest lanes retain nothing).
    pub durability: Option<DurabilityConfig>,
    /// Capacity of the dispatchers' shared query-plan cache (0 disables
    /// caching: every query re-resolves its region and re-walks the
    /// boundary). Invalidated wholesale on supervisor-driven recovery.
    pub plan_cache: usize,
    /// Degraded-mode answering over the quarantined deployment (multi-face
    /// detours → conservation-interval imputation → learned fallback; see
    /// `stq_core::degraded`). `None` (the default) keeps the classic
    /// worst-case-totals degradation, which stays **bitwise identical** to
    /// the standing-subscription fold — turning this on trades that
    /// equivalence for far tighter brackets on quarantine-degraded answers.
    /// The ladder reads live counts, before and after ingest alike: each
    /// consult asks every shard for its counts at the query's instants (one
    /// cut of the ingest stream) and stands down — the ordinary bracket
    /// answers — when a shard is unhealthy or silent, or when the ladder
    /// reads an edge no shard serves (quarantined, at start-up or on a lost
    /// history). The learned fallback's models stay fitted to the start-up
    /// logs: a point value inside a certified bracket, never a bound.
    pub degraded: Option<DegradedPolicy>,
    /// Overload control: deadline budgets, cost-based admission, brownout
    /// precision shedding, and per-shard circuit breakers (see
    /// [`crate::overload`]). `None` (the default) keeps the classic
    /// behavior: `submit` blocks on a full queue and serves at full
    /// precision regardless of load.
    pub overload: Option<OverloadConfig>,
    /// Load-aware shard rebalancing (see [`crate::shardmap`]). `None` (the
    /// default) keeps the static modulo edge→shard assignment; with
    /// `Some` the [`crate::ShardMap`] tracks per-edge crossing rates and
    /// migrates hot edge ranges between shards when the imbalance trigger
    /// fires.
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_shards: 4,
            dispatchers: 2,
            queue_capacity: 64,
            shard_timeout: Duration::from_millis(20),
            max_retries: 2,
            fault: FaultPlan::none(),
            durability: None,
            plan_cache: 256,
            degraded: None,
            overload: None,
            rebalance: None,
        }
    }
}

/// One query to serve.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The spatial region.
    pub region: QueryRegion,
    /// Snapshot / Static / Transient and its time arguments.
    pub kind: QueryKind,
    /// Lower (`R₂`) or upper (`R₁`) region resolution.
    pub approx: Approximation,
    /// Wall-clock deadline the answer is worthless after. It propagates
    /// submit → dispatcher → shard fan-out, and every hop short-circuits a
    /// query that is already past it (the answer then carries
    /// `expired == true` and a sound worst-case bracket instead of work
    /// nobody wants). `None` (the default) serves without a budget —
    /// unless [`OverloadConfig::default_deadline`] stamps one at submit.
    pub deadline: Option<Instant>,
}

impl QuerySpec {
    /// A spec with no deadline (the common case; all fields stay public
    /// for struct-literal construction).
    pub fn new(region: QueryRegion, kind: QueryKind, approx: Approximation) -> Self {
        QuerySpec { region, kind, approx, deadline: None }
    }

    /// Returns the spec with a deadline `budget` from now.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }
}

/// A live standing subscription: its identity, baseline bracket, and the
/// channel on which every later [`BracketUpdate`] (deltas and epoch
/// re-snapshots) is pushed. Dropping the receiver auto-unsubscribes on the
/// next failed push.
pub struct SubscriptionHandle {
    /// The registry-assigned subscription id.
    pub id: SubscriptionId,
    /// The bracket at registration time (also the first pushed update).
    pub baseline: StandingBracket,
    /// Whether the region's plan was served from the engine's cache.
    pub plan_cache_hit: bool,
    /// Boundary edges the subscription listens on.
    pub boundary_edges: usize,
    /// Pushed bracket updates, in order.
    pub updates: Receiver<BracketUpdate>,
}

/// A handle to an in-flight query.
pub struct PendingAnswer(Receiver<ServedAnswer>);

impl PendingAnswer {
    /// Blocks until the answer is served.
    ///
    /// # Panics
    /// If the runtime was shut down before serving the query.
    pub fn wait(self) -> ServedAnswer {
        self.0.recv().expect("runtime shut down with query in flight")
    }
}

pub(crate) struct Job {
    pub id: u64,
    pub spec: QuerySpec,
    /// Admission-gate reservation (milli cost units) to release once the
    /// answer is out; 0 for jobs that never passed the gate.
    pub cost_milli: u64,
    pub reply: Sender<ServedAnswer>,
}

/// What a live runtime owns and `stop` tears down in order.
pub(crate) struct Running {
    pub st: Arc<ServerState>,
    jobs: Sender<Job>,
    pub supervisor: Sender<SupervisorMsg>,
}

/// A running sharded query server over one deployment.
pub struct Runtime {
    metrics: Arc<Metrics>,
    running: Option<Running>,
    dispatcher_threads: Vec<JoinHandle<()>>,
    supervisor_thread: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Runtime {
    /// Builds the runtime: partitions `store`'s per-edge tracking forms
    /// across `cfg.num_shards` worker threads per the shard map (initially
    /// edge `e` lives on shard `e % num_shards`; with
    /// [`RuntimeConfig::rebalance`] set, hot edges migrate later), starts
    /// the dispatcher pool, and puts every worker under supervision.
    pub fn new(
        sensing: SensingGraph,
        sampled: SampledGraph,
        store: &FormStore,
        cfg: RuntimeConfig,
    ) -> Self {
        Self::with_quarantine(sensing, sampled, store, cfg, &[])
    }

    /// Like [`Runtime::new`], but starts with the edges the integrity
    /// auditor quarantined flagged in the registry's quarantine column (the
    /// one copy; flags are never cleared and follow their edge across
    /// migrations and respawns). The owning shard keeps the (corrupted) forms
    /// yet refuses to serve them, so every answer touching a quarantined
    /// edge comes back with reduced coverage and widened bounds instead of
    /// silently folding bad data.
    pub fn with_quarantine(
        sensing: SensingGraph,
        sampled: SampledGraph,
        store: &FormStore,
        cfg: RuntimeConfig,
        quarantined: &[usize],
    ) -> Self {
        assert!(cfg.num_shards >= 1, "need at least one shard");
        assert!(cfg.dispatchers >= 1, "need at least one dispatcher");
        let ns = cfg.num_shards;
        let shared = Arc::new(Shared::new(store, &cfg, quarantined));
        let parts: Vec<ShardForms> =
            (0..ns).map(|s| ShardForms::cut_from(store, |e| shared.map.shard_of(e) == s)).collect();
        let (to_shards, receivers): (Vec<_>, Vec<_>) =
            (0..ns).map(|_| channel::unbounded::<ShardMsg>()).unzip();

        // Bounded supervisor inbox: each shard has at most one unprocessed
        // death report at a time (the supervisor respawns a worker before
        // draining the next event, so a shard cannot enqueue a second one
        // until its first was handled), plus one shutdown message and a
        // couple of in-flight migration requests — 2×ns+4 leaves slack for
        // all of them without ever blocking a dying worker.
        let (events_tx, events_rx) = channel::bounded::<SupervisorMsg>(2 * ns + 4);
        let supervisor = Supervisor::start(
            Arc::clone(&shared),
            &cfg,
            parts,
            receivers,
            to_shards.clone(),
            events_tx.clone(),
        );
        let supervisor_thread = std::thread::Builder::new()
            .name("stq-supervisor".into())
            .spawn(move || supervisor.run(events_rx))
            .expect("spawn supervisor");

        let metrics = Arc::clone(&shared.metrics);
        let (jobs_tx, jobs_rx) = channel::bounded::<Job>(cfg.queue_capacity.max(1));
        let dispatchers = cfg.dispatchers;
        let st = Arc::new(ServerState::new(
            shared,
            sensing,
            sampled,
            store,
            cfg,
            quarantined,
            to_shards,
        ));
        let dispatcher_threads = (0..dispatchers)
            .map(|d| {
                let st = Arc::clone(&st);
                let rx = jobs_rx.clone();
                std::thread::Builder::new()
                    .name(format!("stq-dispatch-{d}"))
                    .spawn(move || {
                        let mut own = Dispatcher::new(&st);
                        let mut batch = Batch::default();
                        while let Ok(job) = rx.recv() {
                            // Whatever is queued behind the job joins it: at
                            // most `queue_capacity` jobs.
                            let backlog = rx.len();
                            batch.jobs.push(job);
                            batch.jobs.extend((0..backlog).map_while(|_| rx.try_recv().ok()));
                            answer_batch(&st, &mut own, &mut batch);
                        }
                    })
                    .expect("spawn dispatcher")
            })
            .collect();

        Runtime {
            metrics,
            running: Some(Running { st, jobs: jobs_tx, supervisor: events_tx }),
            dispatcher_threads,
            supervisor_thread: Some(supervisor_thread),
            next_id: AtomicU64::new(0),
        }
    }

    pub(crate) fn running(&self) -> &Running {
        self.running.as_ref().expect("runtime is running")
    }

    pub(crate) fn st(&self) -> &ServerState {
        &self.running().st
    }

    /// The live metric registry (valid before and after shutdown).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cache accounting of the dispatchers' shared query-plan engine.
    pub fn engine_stats(&self) -> stq_core::engine::EngineStats {
        self.st().shared.engine.stats()
    }

    /// Registers a standing subscription on `region`: the region is
    /// compiled once through the shared plan engine (LRU-cached), its
    /// boundary edges are indexed in the registry's routing table, and from
    /// here on every ingested crossing on those edges moves the
    /// subscription's `[lower, upper]` bracket by a count delta — no
    /// re-execution. Returns [`SubscribeError::Unresolvable`] when the
    /// sampled graph cannot cover the region (the miss case of `query`),
    /// or when the region was built on another city's graph.
    pub fn subscribe(
        &self,
        region: QueryRegion,
        approx: Approximation,
    ) -> Result<SubscriptionHandle, SubscribeError> {
        let st = self.st();
        if st.foreign(&region) {
            return Err(SubscribeError::Unresolvable);
        }
        let (subs, metrics) = (&st.shared.subs, &st.shared.metrics);
        let (tx, rx) = channel::unbounded::<BracketUpdate>();
        let reg = subs.subscribe(&st.sensing, &st.sampled, &region, approx, Some(tx))?;
        metrics.subscriptions.store(subs.len() as u64, Ordering::Relaxed);
        st.shared.trace_subscription(reg.id, &reg.bracket, "registered");
        Ok(SubscriptionHandle {
            id: reg.id,
            baseline: reg.bracket,
            plan_cache_hit: reg.plan_cache_hit,
            boundary_edges: reg.boundary_edges,
            updates: rx,
        })
    }

    /// Deregisters a standing subscription. Returns whether it existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let (subs, metrics) = (&self.st().shared.subs, &self.st().shared.metrics);
        let existed = subs.unsubscribe(id);
        metrics.subscriptions.store(subs.len() as u64, Ordering::Relaxed);
        if existed {
            let gone = StandingBracket {
                value: 0.0,
                lower: 0.0,
                upper: 0.0,
                epoch: subs.epoch(),
                deltas: 0,
            };
            self.st().shared.trace_subscription(id, &gone, "unsubscribed");
        }
        existed
    }

    /// The current delta-maintained bracket of one subscription.
    pub fn standing_bracket(&self, id: SubscriptionId) -> Option<StandingBracket> {
        self.st().shared.subs.bracket(id)
    }

    /// All live `(id, bracket)` pairs, sorted by id.
    pub fn standing_brackets(&self) -> Vec<(SubscriptionId, StandingBracket)> {
        self.st().shared.subs.brackets()
    }

    /// Registry accounting (subscriptions, epoch, deltas, re-snapshots).
    pub fn subscription_stats(&self) -> RegistryStats {
        self.st().shared.subs.stats()
    }

    /// Forces a new subscription epoch: every standing bracket is
    /// recomputed from the registry's mirror through its compiled plan and
    /// re-pushed (`cause == Resnapshot`) — the same sound hand-off the
    /// supervisor performs on crash recovery, callable directly for
    /// repair-driven topology changes and for differential testing of the
    /// epoch protocol. Returns the new epoch.
    pub fn resnapshot_subscriptions(&self) -> u64 {
        self.st().shared.resnapshot_and_trace([])
    }

    /// Certifies quarantined-edge flow intervals into the subscription
    /// registry from the degraded-mode imputer, then re-snapshots so every
    /// standing bracket tightens at once. The registry evaluates the imputer
    /// under its lock over its mirror of the accepted counts
    /// ([`SubscriptionRegistry::certify_imputed`](stq_subscribe::SubscriptionRegistry::certify_imputed)):
    /// those are the counts at any `t` at or past every edge-direction
    /// watermark, where net flow at `t` is the lifetime net flow the registry
    /// folds — so it refuses any other `t`. Works before and after ingest
    /// alike. Returns how many edges were certified; 0 when degraded mode is
    /// off, `t` is behind a watermark, or the imputer found no finite
    /// interval.
    pub fn certify_standing_brackets(&self, t: f64) -> usize {
        let st = self.st();
        let Some(imp) = st.degraded.as_ref().and_then(|deg| deg.imputer()) else { return 0 };
        let installed = st.shared.subs.certify_imputed(imp, t);
        if installed > 0 {
            self.resnapshot_subscriptions();
        }
        installed
    }

    /// Cumulative events routed to each shard by the shard map — the
    /// imbalance witness benchmarks compute `max/mean − 1` from.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.st().shared.map.loads()
    }

    /// The shard map's migration epoch: 0 until the first committed
    /// migration, then incremented once per commit. Every layer (ingest,
    /// dispatch, recovery, subscription re-snapshot) observes a commit at
    /// the same point in its event order.
    pub fn map_epoch(&self) -> u64 {
        self.st().shared.map.epoch()
    }

    /// Sends every shard one request built by `ask` and collects the
    /// replies in shard order.
    pub(crate) fn ask_shards<T>(&self, ask: impl Fn(Sender<T>) -> ShardMsg, what: &str) -> Vec<T> {
        let waits: Vec<Receiver<T>> = self
            .st()
            .to_shards
            .iter()
            .map(|tx| {
                let (ack_tx, ack_rx) = channel::bounded(1);
                let _ = tx.send(ask(ack_tx));
                ack_rx
            })
            .collect();
        waits.into_iter().map(|rx| rx.recv_timeout(Duration::from_secs(30)).expect(what)).collect()
    }

    /// State digest per shard (see `stq_durability::state_digest`) — the
    /// byte-identity witness recovery tests compare across runs.
    pub fn shard_digests(&self) -> Vec<u64> {
        self.ask_shards(ShardMsg::Digest, "shard digest").into_iter().map(|(_, d)| d).collect()
    }

    /// Current health of every shard.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let health = &self.st().shared.health;
        let of = |up| if up { ShardHealth::Healthy } else { ShardHealth::Recovering };
        health.iter().map(|h| of(h.load(Ordering::Acquire))).collect()
    }

    /// Wraps a spec into a job with a fresh id and its reply channel,
    /// stamping the configured default deadline on specs without one.
    fn job(&self, mut spec: QuerySpec, cost_milli: u64) -> (Job, PendingAnswer) {
        if spec.deadline.is_none() {
            let default = self.st().overload.as_ref().and_then(|ov| ov.cfg.default_deadline);
            spec.deadline = default.map(|d| Instant::now() + d);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        (Job { id, spec, cost_milli, reply: tx }, PendingAnswer(rx))
    }

    /// Enqueues a query; blocks only when the submission queue is full.
    ///
    /// A spec with a deadline never blocks past it: if the queue stays full
    /// until the deadline, the query is answered immediately with
    /// `expired == true` and a sound worst-case bracket instead of
    /// stalling the caller indefinitely.
    pub fn submit(&self, spec: QuerySpec) -> PendingAnswer {
        let Running { st, jobs, .. } = self.running();
        let (job, pending) = self.job(spec, 0);
        match job.spec.deadline {
            None => assert!(jobs.send(job).is_ok(), "dispatcher pool alive"),
            // Already past the deadline, or the queue stays full until it:
            // the expired answer — a sound worst-case bracket from the
            // (cached) plan and the lifetime totals, without any shard
            // traffic.
            Some(dl) => {
                let now = Instant::now();
                if dl <= now {
                    answer_expired(st, job);
                    return pending;
                }
                match jobs.send_timeout(job, dl - now) {
                    Ok(()) => {}
                    Err(channel::SendTimeoutError::Timeout(job)) => {
                        answer_expired(st, job);
                        return pending;
                    }
                    Err(channel::SendTimeoutError::Disconnected(_)) => {
                        unreachable!("dispatcher pool alive")
                    }
                }
            }
        }
        self.metrics.queue_depth.store(jobs.len() as u64, Ordering::Relaxed);
        pending
    }

    /// Non-blocking submission: where [`Runtime::submit`] queues, this
    /// rejects. The query is refused with a [`Rejected`] `retry_after`
    /// hint when the admission gate's estimated-cost capacity is exhausted
    /// (overload control on) or the submission queue is full — in both
    /// cases before any plan, queue slot, or shard traffic is spent on it.
    pub fn try_submit(&self, spec: QuerySpec) -> Result<PendingAnswer, Rejected> {
        let Running { st, jobs, .. } = self.running();
        let metrics = &st.shared.metrics;
        let mut cost_milli = 0u64;
        if let Some(ov) = st.overload.as_ref() {
            match ov.try_admit(ov.price(spec.region.junctions().len())) {
                Ok(milli) => cost_milli = milli,
                Err(retry_after) => {
                    Metrics::bump(&metrics.admission_rejected);
                    return Err(Rejected { retry_after });
                }
            }
        }
        let (job, pending) = self.job(spec, cost_milli);
        if job.spec.deadline.is_some_and(|dl| dl <= Instant::now()) {
            // Expired on arrival: answer straight away, no queue slot.
            answer_expired(st, job);
            return Ok(pending);
        }
        match jobs.try_send(job) {
            Ok(()) => {
                metrics.queue_depth.store(jobs.len() as u64, Ordering::Relaxed);
                Ok(pending)
            }
            Err(channel::TrySendError::Full(job)) => {
                if let Some(ov) = st.overload.as_ref() {
                    ov.release(job.cost_milli);
                }
                Metrics::bump(&metrics.admission_rejected);
                // Rough drain hint: one full backoff schedule, saturating
                // (both factors are the caller's numbers).
                let (timeout, retries) = (st.cfg.shard_timeout, st.cfg.max_retries);
                let schedule = || timeout.checked_mul(retries.saturating_add(1));
                let hint = st.overload.as_ref().map(|ov| ov.queue_retry_after());
                let retry_after = hint.or_else(schedule).unwrap_or(Duration::MAX);
                Err(Rejected { retry_after })
            }
            Err(channel::TrySendError::Disconnected(_)) => {
                unreachable!("dispatcher pool alive")
            }
        }
    }

    /// Serves one query synchronously.
    pub fn query(&self, spec: QuerySpec) -> ServedAnswer {
        self.submit(spec).wait()
    }

    /// Drains in-flight work and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(Running { st, jobs, supervisor }) = self.running.take() else { return };
        // 1. Close the submission queue: dispatchers drain and exit.
        drop(jobs);
        for h in self.dispatcher_threads.drain(..) {
            let _ = h.join();
        }
        // 2. Drop the last owner of the shard senders: shards drain and exit.
        drop(st);
        // 3. Tell the supervisor to stop respawning; it joins every worker
        //    thread it ever spawned before returning.
        let _ = supervisor.send(SupervisorMsg::Shutdown);
        if let Some(h) = self.supervisor_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop();
    }
}
