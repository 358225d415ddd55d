//! The sharded query-serving runtime: submission queue, dispatchers,
//! fan-out/aggregation, timeouts, retries, graceful degradation, live
//! ingestion, and supervised crash recovery.
//!
//! ## Dataflow
//!
//! ```text
//! submit() ─▶ bounded job queue ─▶ dispatcher threads
//!                                     │ engine.plan (cached region plan)
//!                                     ├─▶ shard 0 ─┐ per-edge counts
//!                                     ├─▶ shard 1 ─┤ (crossbeam channels)
//!                                     └─▶ shard k ─┘
//!                                     ▼ re-fold in boundary order
//!                                 ServedAnswer
//!
//! ingest() ─▶ per-shard lane (seq + redo buffer) ─▶ shard worker
//!                                                    ├─ apply to forms
//!                                                    └─ WAL append/snapshot
//! supervisor ◀─ worker exits (kill / escalation); replays snapshot + WAL +
//!               redo buffer, respawns, re-admits
//! ```
//!
//! ## Exactness and degradation
//!
//! Shards return per-edge contributions tagged with their position in the
//! boundary chain; the aggregator folds them **in boundary order**, so with
//! full coverage the result is bit-identical to the synchronous
//! `stq_core::query::evaluate` fold (floating-point addition happens in the
//! same order on the same terms). When shards stay silent past the retry
//! budget — or are skipped because their health slot reads unhealthy or
//! recovering — each missing edge's contribution is replaced by its
//! worst-case interval `[−total_outward, +total_inward]` (per-edge lifetime
//! crossing totals, maintained atomically as events are ingested), which
//! provably brackets the synchronous value; the answer then carries
//! `lower`/`upper` bounds, a `coverage < 1`, and the `degraded` flag.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use stq_core::degraded::{DegradedAnswer, DegradedAnswerer, DegradedPolicy, DegradedStrategy};
use stq_core::engine::QueryEngine;
use stq_core::query::{Approximation, QueryKind, QueryRegion};
use stq_core::sampled::SampledGraph;
use stq_core::sensing::SensingGraph;
use stq_core::tracker::Crossing;
use stq_forms::{BoundaryEdge, ColumnarBatch, FormStore, TrackingForm};
use stq_net::{DurabilityFaultPlan, FaultPlan};
use stq_subscribe::{
    BracketUpdate, RegistryStats, StandingBracket, SubscribeError, SubscriptionId,
    SubscriptionRegistry,
};

use crate::metrics::{Metrics, QueryTrace, SubscriptionTrace};
use crate::overload::{stride_for, Gate, OverloadConfig, OverloadState, Rejected, Transition};
use crate::shard::{EdgeCounts, ShardHealth, ShardMsg, ShardRequest, ShardResponse, HEALTHY};
use crate::shardmap::{LoadAwareMap, ModuloMap, RebalanceConfig, ShardMap};
use crate::supervisor::{IngestLane, Supervisor, SupervisorMsg};

/// How often a waiting aggregator re-checks shard health, so a worker dying
/// mid-attempt shortens the wait to one slice instead of the full timeout.
const HEALTH_RECHECK: Duration = Duration::from_millis(5);

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
    /// Appends between WAL syncs; a sync publishes the shard's durable
    /// floor and lets the server trim its redo buffer.
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
    /// Consecutive panicked requests before a worker escalates to the
    /// supervisor instead of serving on (0 disables escalation).
    pub panic_threshold: u32,
    /// WAL + snapshot persistence; `None` keeps state memory-only (the
    /// redo buffer then retains every ingested event for exact respawns).
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
    /// Only consulted while no event has been ingested since startup: the
    /// certified brackets are computed against the construction-time store.
    pub degraded: Option<DegradedPolicy>,
    /// Overload control: deadline budgets, cost-based admission, brownout
    /// precision shedding, and per-shard circuit breakers (see
    /// [`crate::overload`]). `None` (the default) keeps the classic
    /// behavior: `submit` blocks on a full queue and serves at full
    /// precision regardless of load.
    pub overload: Option<OverloadConfig>,
    /// Load-aware shard rebalancing (see [`crate::shardmap`]). `None` (the
    /// default) keeps the static modulo edge→shard assignment; `Some`
    /// installs a [`LoadAwareMap`] that tracks per-edge crossing rates and
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
            panic_threshold: 3,
            durability: None,
            plan_cache: 256,
            degraded: None,
            overload: None,
            rebalance: None,
        }
    }
}

/// Why [`Runtime::ingest`] refused an event. Rejections are counted in
/// [`crate::metrics::Metrics::ingest_rejected`] and never reach a shard,
/// the WAL, or the subscription registry — a malformed event from one
/// client must not poison shared state or kill the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IngestError {
    /// The edge index is outside the deployment (`edge >= num_edges`).
    UnknownEdge {
        /// The offending edge index.
        edge: usize,
        /// The deployment's edge count.
        num_edges: usize,
    },
    /// The crossing timestamp is NaN or infinite.
    NonFiniteTime {
        /// The edge the malformed event addressed.
        edge: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IngestError::UnknownEdge { edge, num_edges } => {
                write!(f, "ingest for unknown edge {edge} (deployment has {num_edges})")
            }
            IngestError::NonFiniteTime { edge } => {
                write!(f, "crossing time on edge {edge} must be finite")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// What [`Runtime::ingest_batch`] did with a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events validated and dispatched to their shards.
    pub accepted: usize,
    /// Events refused by validation (counted in `ingest_rejected`).
    pub rejected: usize,
    /// Distinct shard lanes the batch fanned out to.
    pub lanes: usize,
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

/// The runtime's answer to one query.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    /// Runtime-assigned query id (matches the metrics trace).
    pub query_id: u64,
    /// The count estimate. With `coverage == 1.0` this equals the
    /// synchronous `evaluate` fold exactly; degraded answers fill missing
    /// edges with 0 and are bracketed by `lower`/`upper`.
    pub value: f64,
    /// Sound lower bound on the synchronous value.
    pub lower: f64,
    /// Sound upper bound on the synchronous value.
    pub upper: f64,
    /// Fraction of boundary edges that reported (1.0 = complete).
    pub coverage: f64,
    /// The sampled graph could not cover the region (value is 0).
    pub miss: bool,
    /// True when served from partial data (`coverage < 1.0`).
    pub degraded: bool,
    /// Boundary edges whose shard refused to serve them because the
    /// integrity auditor quarantined the sensor (each counts against
    /// `coverage` and widens the bounds by its worst case).
    pub quarantined: usize,
    /// Shards the query fanned out to.
    pub shards: usize,
    /// Retry rounds that were needed.
    pub retries: u32,
    /// Which degraded-mode repair strategy produced the final bracket
    /// ([`DegradedStrategy::None`] whenever the ordinary shard fold
    /// answered — including classic worst-case degradation with
    /// [`RuntimeConfig::degraded`] unset).
    pub strategy: DegradedStrategy,
    /// Confidence in `[0, 1]`: the boundary-report fraction for ordinary
    /// answers, the certifying strategy's structural coverage for
    /// degraded-mode answers (halved for learned fallbacks).
    pub confidence: f64,
    /// Whether the query's plan was served from the engine's cache (false
    /// for misses compiled on demand — and always false right after a
    /// recovery-driven invalidation).
    pub plan_cache_hit: bool,
    /// Time spent obtaining the plan (cache lookup + compile on a miss).
    pub plan_latency: Duration,
    /// End-to-end latency.
    pub latency: Duration,
    /// The query's deadline elapsed before it finished: the answer was
    /// short-circuited (no fan-out) or clamped mid-fan-out. The bracket is
    /// still sound — built from worst-case totals for whatever did not
    /// report — but the client asked for it by the deadline and should
    /// treat it as degraded-by-budget.
    pub expired: bool,
    /// Brownout precision level the answer was served at: 0 = full
    /// precision, 1–2 = strided boundary (every 2nd / 4th edge served, the
    /// rest widened by worst-case totals), 3 = fully shed (no fan-out).
    pub brownout: u8,
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

struct Job {
    id: u64,
    spec: QuerySpec,
    /// Admission-gate reservation (milli cost units) to release once the
    /// answer is out; 0 for jobs that never passed the gate.
    cost_milli: u64,
    reply: Sender<ServedAnswer>,
}

struct ServerState {
    sensing: SensingGraph,
    sampled: SampledGraph,
    /// Per-edge lifetime crossing counts `[forward, backward]` — the
    /// degradation bounds for silent shards. Atomic because `ingest` grows
    /// them while queries read them; owned by the subscription registry,
    /// which bumps them inside its lock so standing brackets and totals
    /// can never observe each other half-updated.
    totals: Arc<Vec<[AtomicU64; 2]>>,
    cfg: RuntimeConfig,
    /// The edge→shard routing map every layer shares: dispatchers and
    /// ingest read it, the supervisor commits migrations into it. Its epoch
    /// is the witness all layers agree on after a migration.
    map: Arc<dyn ShardMap>,
    to_shards: Vec<Sender<ShardMsg>>,
    lanes: Arc<Vec<Mutex<IngestLane>>>,
    health: Arc<Vec<AtomicU8>>,
    durable_seq: Arc<Vec<AtomicU64>>,
    metrics: Arc<Metrics>,
    /// Shared plan cache: dispatchers compile and reuse region plans here;
    /// the supervisor invalidates it on every recovery.
    engine: Arc<QueryEngine>,
    /// Standing-query registry: every ingested event routes through it
    /// (delta-push), and the supervisor re-snapshots it on every recovery.
    subs: Arc<SubscriptionRegistry>,
    /// Degraded-mode answering over the quarantined deployment (built only
    /// when [`RuntimeConfig::degraded`] is set and something is
    /// quarantined).
    degraded: Option<DegradedAnswerer>,
    /// Construction-time store snapshot the degraded answerer certifies
    /// its brackets against.
    deg_store: Option<FormStore>,
    /// Flipped by the first `ingest` after startup: the snapshot-certified
    /// brackets no longer describe the live store, so degraded-mode
    /// consults stop.
    deg_dirty: AtomicBool,
    /// Overload control (admission gate, brownout controller, breakers);
    /// `None` when [`RuntimeConfig::overload`] is unset.
    overload: Option<OverloadState>,
    /// Capacity of each query's aggregator response channel: every awaited
    /// shard can answer once per attempt plus one injected duplicate, so
    /// `2 × num_shards × (max_retries + 1)` bounds the messages a query
    /// can ever receive — late answers beyond it are dropped by the
    /// shard's `try_send`, exactly like answers after the receiver is gone.
    resp_capacity: usize,
}

/// A running sharded query server over one deployment.
pub struct Runtime {
    metrics: Arc<Metrics>,
    state: Option<Arc<ServerState>>,
    jobs: Option<Sender<Job>>,
    dispatcher_threads: Vec<JoinHandle<()>>,
    supervisor_thread: Option<JoinHandle<()>>,
    supervisor_tx: Option<Sender<SupervisorMsg>>,
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

    /// Like [`Runtime::new`], but hands each shard the set of its edges the
    /// integrity auditor quarantined. The shard keeps the (corrupted) forms
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
        let metrics = Arc::new(Metrics::new());
        metrics.quarantined_edges.store(quarantined.len() as u64, Ordering::Relaxed);
        let (degraded, deg_store) = match cfg.degraded {
            Some(policy) if !quarantined.is_empty() => (
                Some(DegradedAnswerer::new(&sensing, &sampled, quarantined, store, policy)),
                Some(store.clone()),
            ),
            _ => (None, None),
        };

        let ns = cfg.num_shards;
        // The registry derives the lifetime totals (shared here for the
        // aggregator's degradation bounds), the applied-count mirror and the
        // per-direction watermarks from the same store the shards start on.
        let engine = Arc::new(QueryEngine::new(cfg.plan_cache));
        let subs = Arc::new(SubscriptionRegistry::new(
            Arc::clone(&engine),
            store,
            quarantined.iter().copied(),
        ));
        let totals = Arc::clone(subs.totals());

        // The shard map starts with the modulo assignment either way, so a
        // fresh runtime is bit-identical under both; the load-aware variant
        // reuses the registry's lifetime totals as its crossing-rate feed.
        let map: Arc<dyn ShardMap> = match cfg.rebalance.clone() {
            Some(rc) => Arc::new(LoadAwareMap::new(ns, Arc::clone(&totals), rc)),
            None => Arc::new(ModuloMap::new(ns)),
        };
        let mut parts: Vec<HashMap<usize, TrackingForm>> =
            (0..ns).map(|_| HashMap::new()).collect();
        let mut bad: Vec<HashSet<usize>> = (0..ns).map(|_| HashSet::new()).collect();
        for &e in quarantined {
            bad[map.shard_of(e)].insert(e);
        }
        for e in 0..store.num_edges() {
            parts[map.shard_of(e)].insert(e, store.form(e).clone());
        }

        let mut to_shards = Vec::with_capacity(ns);
        let mut receivers = Vec::with_capacity(ns);
        for _ in 0..ns {
            let (tx, rx) = channel::unbounded::<ShardMsg>();
            to_shards.push(tx);
            receivers.push(rx);
        }
        let lanes: Arc<Vec<Mutex<IngestLane>>> = Arc::new(
            (0..ns).map(|_| Mutex::new(IngestLane { next_seq: 0, buf: VecDeque::new() })).collect(),
        );
        let health: Arc<Vec<AtomicU8>> =
            Arc::new((0..ns).map(|_| AtomicU8::new(HEALTHY)).collect());
        let durable_seq: Arc<Vec<AtomicU64>> =
            Arc::new((0..ns).map(|_| AtomicU64::new(0)).collect());

        // Bounded supervisor inbox: each shard has at most one unprocessed
        // exit event at a time (the supervisor respawns a worker before
        // draining the next event, so a shard cannot enqueue a second exit
        // until its first was handled), plus one shutdown message and a
        // couple of in-flight migration requests — 2×ns+4 leaves slack for
        // all of them without ever blocking a dying worker.
        let (events_tx, events_rx) = channel::bounded::<SupervisorMsg>(2 * ns + 4);
        let supervisor = Supervisor::start(
            parts,
            bad,
            cfg.fault.clone(),
            cfg.durability.clone(),
            cfg.panic_threshold,
            receivers,
            Arc::clone(&lanes),
            Arc::clone(&health),
            Arc::clone(&durable_seq),
            Arc::clone(&metrics),
            Arc::clone(&engine),
            Arc::clone(&subs),
            Arc::clone(&map),
            to_shards.clone(),
            events_tx.clone(),
        );
        let supervisor_thread = std::thread::Builder::new()
            .name("stq-supervisor".into())
            .spawn(move || supervisor.run(events_rx))
            .expect("spawn supervisor");

        let overload =
            cfg.overload.as_ref().map(|oc| OverloadState::new(oc.clone(), &sensing, &sampled, ns));
        let state = Arc::new(ServerState {
            sensing,
            sampled,
            totals,
            cfg: cfg.clone(),
            map,
            to_shards,
            lanes,
            health,
            durable_seq,
            metrics: Arc::clone(&metrics),
            engine,
            subs,
            degraded,
            deg_store,
            deg_dirty: AtomicBool::new(false),
            overload,
            resp_capacity: 2 * ns * (cfg.max_retries as usize + 1),
        });
        let (jobs_tx, jobs_rx) = channel::bounded::<Job>(cfg.queue_capacity.max(1));
        let mut dispatcher_threads = Vec::with_capacity(cfg.dispatchers);
        for d in 0..cfg.dispatchers {
            let st = Arc::clone(&state);
            let rx = jobs_rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("stq-dispatch-{d}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        st.metrics.queue_depth.store(rx.len() as u64, Ordering::Relaxed);
                        serve(&st, job);
                    }
                })
                .expect("spawn dispatcher");
            dispatcher_threads.push(handle);
        }

        Runtime {
            metrics,
            state: Some(state),
            jobs: Some(jobs_tx),
            dispatcher_threads,
            supervisor_thread: Some(supervisor_thread),
            supervisor_tx: Some(events_tx),
            next_id: AtomicU64::new(0),
        }
    }

    /// The live metric registry (valid before and after shutdown).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cache accounting of the dispatchers' shared query-plan engine.
    pub fn engine_stats(&self) -> stq_core::engine::EngineStats {
        self.state.as_ref().expect("runtime is running").engine.stats()
    }

    /// Registers a standing subscription on `region`: the region is
    /// compiled once through the shared plan engine (LRU-cached), its
    /// boundary edges are indexed in the registry's routing table, and from
    /// here on every ingested crossing on those edges moves the
    /// subscription's `[lower, upper]` bracket by a count delta — no
    /// re-execution. Returns [`SubscribeError::Unresolvable`] when the
    /// sampled graph cannot cover the region (the miss case of `query`).
    pub fn subscribe(
        &self,
        region: QueryRegion,
        approx: Approximation,
    ) -> Result<SubscriptionHandle, SubscribeError> {
        let st = self.state.as_ref().expect("runtime is running");
        let (tx, rx) = channel::unbounded::<BracketUpdate>();
        let reg = st.subs.subscribe(&st.sensing, &st.sampled, &region, approx, Some(tx))?;
        st.metrics.subscriptions.store(st.subs.len() as u64, Ordering::Relaxed);
        st.metrics.trace_subscription(SubscriptionTrace {
            subscription: reg.id.0,
            epoch: reg.bracket.epoch,
            value: reg.bracket.value,
            lower: reg.bracket.lower,
            upper: reg.bracket.upper,
            cause: "registered",
        });
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
        let st = self.state.as_ref().expect("runtime is running");
        let existed = st.subs.unsubscribe(id);
        st.metrics.subscriptions.store(st.subs.len() as u64, Ordering::Relaxed);
        if existed {
            st.metrics.trace_subscription(SubscriptionTrace {
                subscription: id.0,
                epoch: st.subs.epoch(),
                value: 0.0,
                lower: 0.0,
                upper: 0.0,
                cause: "unsubscribed",
            });
        }
        existed
    }

    /// The current delta-maintained bracket of one subscription.
    pub fn standing_bracket(&self, id: SubscriptionId) -> Option<StandingBracket> {
        self.state.as_ref().expect("runtime is running").subs.bracket(id)
    }

    /// All live `(id, bracket)` pairs, sorted by id.
    pub fn standing_brackets(&self) -> Vec<(SubscriptionId, StandingBracket)> {
        self.state.as_ref().expect("runtime is running").subs.brackets()
    }

    /// Registry accounting (subscriptions, epoch, deltas, re-snapshots).
    pub fn subscription_stats(&self) -> RegistryStats {
        self.state.as_ref().expect("runtime is running").subs.stats()
    }

    /// Forces a new subscription epoch: every standing bracket is
    /// recomputed from the registry's mirror through its compiled plan and
    /// re-pushed (`cause == Resnapshot`) — the same sound hand-off the
    /// supervisor performs on crash recovery, callable directly for
    /// repair-driven topology changes and for differential testing of the
    /// epoch protocol. Returns the new epoch.
    pub fn resnapshot_subscriptions(&self) -> u64 {
        let st = self.state.as_ref().expect("runtime is running");
        let updates = st.subs.advance_epoch([]);
        Metrics::add(&st.metrics.sub_resnapshots, updates.len() as u64);
        let epoch = st.subs.epoch();
        st.metrics.sub_epoch.store(epoch, Ordering::Relaxed);
        for u in &updates {
            st.metrics.trace_subscription(SubscriptionTrace {
                subscription: u.subscription.0,
                epoch: u.epoch,
                value: u.bracket.value,
                lower: u.bracket.lower,
                upper: u.bracket.upper,
                cause: "resnapshot",
            });
        }
        epoch
    }

    /// Certifies quarantined-edge flow intervals into the subscription
    /// registry from the degraded-mode imputer, then re-snapshots so every
    /// standing bracket tightens at once. `t` must be at or past the last
    /// event time so net-flow-at-`t` equals the lifetime net flow the
    /// registry folds. Returns how many edges were certified; 0 when
    /// degraded mode is off, the imputer found no finite interval, or an
    /// event has been ingested since the answerer was built (certificates
    /// would no longer be anchored to the mirrored counts).
    pub fn certify_standing_brackets(&self, t: f64) -> usize {
        let st = self.state.as_ref().expect("runtime is running");
        let Some(deg) = st.degraded.as_ref() else { return 0 };
        let Some(imp) = deg.imputer() else { return 0 };
        let Some(store) = st.deg_store.as_ref() else { return 0 };
        if st.deg_dirty.load(Ordering::Acquire) {
            return 0;
        }
        let mut installed = 0usize;
        for (edge, iv) in imp.intervals_at(store, t) {
            if iv.is_finite() && st.subs.certify_quarantined(edge, iv.lo, iv.hi) {
                installed += 1;
            }
        }
        if installed > 0 {
            self.resnapshot_subscriptions();
        }
        installed
    }

    /// Streams one boundary-crossing event into the owning shard. The event
    /// is sequence-stamped, retained in the redo buffer until the shard
    /// acknowledges durability, and folded into the shard's forms (and WAL)
    /// by the worker. The per-edge lifetime totals grow *before* the shard
    /// applies the event, so degradation bounds for silent shards stay
    /// sound at every instant — and the subscription registry applies the
    /// event's bracket deltas in the same step (the event-driven push path:
    /// standing answers are fresh the moment `ingest` returns, without any
    /// re-execution).
    ///
    /// A malformed event (unknown edge, non-finite timestamp) is refused
    /// with an [`IngestError`] before touching any shared state; refusals
    /// are counted in the `ingest_rejected` metric.
    pub fn ingest(&self, c: Crossing) -> Result<(), IngestError> {
        let st = self.state.as_ref().expect("runtime is running");
        check_event(st, &c)?;
        // The degraded answerer's brackets are certified against the
        // construction-time store; any new event invalidates them.
        st.deg_dirty.store(true, Ordering::Release);
        // Routes the event through the registry: bumps the lifetime totals
        // (inside the registry lock) and delta-pushes affected brackets.
        let push_t0 = Instant::now();
        let obs = st.subs.on_ingest(&c);
        if obs.deltas > 0 {
            st.metrics.delta_push_latency.record(push_t0.elapsed().as_micros() as u64);
            Metrics::add(&st.metrics.deltas_pushed, obs.deltas as u64);
        }
        dispatch_one(st, c);
        self.maybe_rebalance(st);
        Ok(())
    }

    /// Streams a batch of events, grouped into per-shard columnar lanes and
    /// WAL-appended as one group-commit frame per lane (a single sync for
    /// the whole lane instead of one per record). Semantically equivalent
    /// to calling [`Runtime::ingest`] once per event in order — shard
    /// states, recovery digests, totals, and standing brackets come out
    /// bit-identical — but malformed events are skipped (and counted)
    /// instead of failing the batch, and standing subscriptions are pushed
    /// to per call, not per event: one `Delta` update per touched
    /// subscription per `ingest_batch` call (per event for `ingest`),
    /// carrying the bracket as of the end of the batch.
    pub fn ingest_batch(&self, events: &[Crossing]) -> IngestReport {
        let st = self.state.as_ref().expect("runtime is running");
        if events.is_empty() {
            return IngestReport::default();
        }
        let mut valid: Vec<Crossing> = Vec::with_capacity(events.len());
        for &c in events {
            if check_event(st, &c).is_ok() {
                valid.push(c);
            }
        }
        let rejected = events.len() - valid.len();
        if valid.is_empty() {
            return IngestReport { accepted: 0, rejected, lanes: 0 };
        }
        st.deg_dirty.store(true, Ordering::Release);
        // One registry lock for the whole batch: totals and standing
        // brackets advance event by event in input order, exactly as the
        // sequential path would; each touched subscription is pushed its
        // final bracket once, when the batch ends.
        let push_t0 = Instant::now();
        let obs = st.subs.on_ingest_batch(&valid);
        if obs.deltas > 0 {
            st.metrics.delta_push_latency.record(push_t0.elapsed().as_micros() as u64);
            Metrics::add(&st.metrics.deltas_pushed, obs.deltas as u64);
        }
        // Ingest pressure surfaces on the read-side admission gate while
        // the batch is in flight, so a write flood degrades reads honestly
        // instead of invisibly starving them.
        let charged = st.overload.as_ref().map_or(0, |ov| ov.charge_ingest(valid.len()));
        // Group by owning shard into columnar lanes. Per-edge event order
        // is preserved: an edge maps to exactly one shard at a time, and
        // within a lane events keep input order.
        let mut lanes_by_shard = vec![ColumnarBatch::default(); st.lanes.len()];
        for &c in &valid {
            lanes_by_shard[st.map.shard_of(c.edge)].push(c.edge, c.forward, c.time);
        }
        let mut lanes_used = 0usize;
        for (shard, lane_batch) in lanes_by_shard.into_iter().enumerate() {
            if lane_batch.is_empty() {
                continue;
            }
            lanes_used += 1;
            // A migration may have re-routed some of the lane's edges
            // between grouping and the lane lock: dispatch the still-owned
            // prefix set as one batch and detour the moved rest through the
            // per-event path (which re-reads the map under the lock).
            let mut moved: Vec<Crossing> = Vec::new();
            {
                let mut lane = st.lanes[shard].lock();
                let mut own = ColumnarBatch::with_capacity(lane_batch.len());
                for (edge, forward, time) in lane_batch.iter() {
                    if st.map.shard_of(edge) == shard {
                        own.push(edge, forward, time);
                    } else {
                        moved.push(Crossing { edge, forward, time });
                    }
                }
                if !own.is_empty() {
                    let durable = st.durable_seq[shard].load(Ordering::Acquire);
                    while lane.buf.front().is_some_and(|&(s, _)| s <= durable) {
                        lane.buf.pop_front();
                    }
                    let first_seq = lane.next_seq + 1;
                    for (edge, forward, time) in own.iter() {
                        lane.next_seq += 1;
                        let seq = lane.next_seq;
                        lane.buf.push_back((seq, Crossing { edge, forward, time }));
                    }
                    st.map.record_route(shard, own.len() as u64);
                    let _ =
                        st.to_shards[shard].send(ShardMsg::IngestBatch { first_seq, lane: own });
                }
            }
            for c in moved {
                dispatch_one(st, c);
            }
        }
        Metrics::bump(&st.metrics.ingest_batches);
        if let Some(ov) = st.overload.as_ref() {
            ov.release(charged);
        }
        self.maybe_rebalance(st);
        IngestReport { accepted: valid.len(), rejected, lanes: lanes_used }
    }

    /// Fires the load-aware rebalance check after an ingest step.
    fn maybe_rebalance(&self, st: &ServerState) {
        if st.map.rebalance_due() {
            self.rebalance_now();
        }
    }

    /// Plans and executes one load-aware rebalance round through the
    /// supervisor (which serializes it against crash recoveries). Returns
    /// the number of edges migrated — 0 when the map has no rebalancing
    /// (modulo), the plan is empty, or the migration aborted.
    pub fn rebalance_now(&self) -> usize {
        let st = self.state.as_ref().expect("runtime is running");
        let moves = st.map.plan_rebalance();
        if moves.is_empty() {
            return 0;
        }
        let Some(tx) = self.supervisor_tx.as_ref() else { return 0 };
        let (done_tx, done_rx) = channel::bounded(1);
        if tx.send(SupervisorMsg::Migrate { moves, done: done_tx }).is_err() {
            return 0;
        }
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(outcome) if outcome.committed => outcome.edges_moved,
            _ => 0,
        }
    }

    /// Cumulative events routed to each shard by the shard map — the
    /// imbalance witness benchmarks compute `max/mean − 1` from.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.state.as_ref().expect("runtime is running").map.loads()
    }

    /// The shard map's migration epoch: 0 until the first committed
    /// migration, then incremented once per commit. Every layer (ingest,
    /// dispatch, recovery, subscription re-snapshot) observes a commit at
    /// the same point in its event order.
    pub fn map_epoch(&self) -> u64 {
        self.state.as_ref().expect("runtime is running").map.epoch()
    }

    /// Barrier: waits until every shard has applied all previously ingested
    /// events (and synced its WAL, when durability is on). Returns each
    /// shard's highest applied sequence number.
    pub fn flush_ingest(&self) -> Vec<u64> {
        let st = self.state.as_ref().expect("runtime is running");
        let waits: Vec<Receiver<u64>> = st
            .to_shards
            .iter()
            .map(|tx| {
                let (ack_tx, ack_rx) = channel::bounded(1);
                let _ = tx.send(ShardMsg::Flush(ack_tx));
                ack_rx
            })
            .collect();
        waits
            .into_iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(30)).expect("shard flush"))
            .collect()
    }

    /// State digest per shard (see `stq_durability::state_digest`) — the
    /// byte-identity witness recovery tests compare across runs.
    pub fn shard_digests(&self) -> Vec<u64> {
        let st = self.state.as_ref().expect("runtime is running");
        let waits: Vec<Receiver<(usize, u64)>> = st
            .to_shards
            .iter()
            .map(|tx| {
                let (ack_tx, ack_rx) = channel::bounded(1);
                let _ = tx.send(ShardMsg::Digest(ack_tx));
                ack_rx
            })
            .collect();
        waits
            .into_iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(30)).expect("shard digest").1)
            .collect()
    }

    /// Current health of every shard.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let st = self.state.as_ref().expect("runtime is running");
        st.health.iter().map(|h| ShardHealth::from_u8(h.load(Ordering::Acquire))).collect()
    }

    /// Stamps the configured default deadline on specs without one.
    fn with_default_deadline(&self, mut spec: QuerySpec) -> QuerySpec {
        if spec.deadline.is_none() {
            if let Some(d) = self
                .state
                .as_ref()
                .and_then(|st| st.overload.as_ref())
                .and_then(|ov| ov.cfg.default_deadline)
            {
                spec.deadline = Some(Instant::now() + d);
            }
        }
        spec
    }

    /// Serves an already-expired job without any shard traffic: the plan
    /// (cached) still yields a sound worst-case bracket from the lifetime
    /// totals, so even a budget-starved client gets honest bounds.
    fn reply_expired(&self, job: Job) {
        let st = self.state.as_ref().expect("runtime is running");
        let answer = expired_answer(st, job.id, &job.spec, Instant::now());
        record_served(st, &answer);
        let _ = job.reply.send(answer);
    }

    /// Enqueues a query; blocks only when the submission queue is full.
    ///
    /// A spec with a deadline never blocks past it: if the queue stays full
    /// until the deadline, the query is answered immediately with
    /// `expired == true` and a sound worst-case bracket instead of
    /// stalling the caller indefinitely.
    pub fn submit(&self, spec: QuerySpec) -> PendingAnswer {
        let spec = self.with_default_deadline(spec);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        let jobs = self.jobs.as_ref().expect("runtime is running");
        let job = Job { id, spec, cost_milli: 0, reply: tx };
        match job.spec.deadline {
            None => assert!(jobs.send(job).is_ok(), "dispatcher pool alive"),
            Some(dl) => {
                let now = Instant::now();
                if dl <= now {
                    self.reply_expired(job);
                    return PendingAnswer(rx);
                }
                match jobs.send_timeout(job, dl - now) {
                    Ok(()) => {}
                    Err(channel::SendTimeoutError::Timeout(job)) => {
                        self.reply_expired(job);
                        return PendingAnswer(rx);
                    }
                    Err(channel::SendTimeoutError::Disconnected(_)) => {
                        unreachable!("dispatcher pool alive")
                    }
                }
            }
        }
        self.metrics.queue_depth.store(jobs.len() as u64, Ordering::Relaxed);
        PendingAnswer(rx)
    }

    /// Non-blocking submission: where [`Runtime::submit`] queues, this
    /// rejects. The query is refused with a [`Rejected`] `retry_after`
    /// hint when the admission gate's estimated-cost capacity is exhausted
    /// (overload control on) or the submission queue is full — in both
    /// cases before any plan, queue slot, or shard traffic is spent on it.
    pub fn try_submit(&self, spec: QuerySpec) -> Result<PendingAnswer, Rejected> {
        let spec = self.with_default_deadline(spec);
        let st = self.state.as_ref().expect("runtime is running");
        let jobs = self.jobs.as_ref().expect("runtime is running");
        let mut cost_milli = 0u64;
        if let Some(ov) = st.overload.as_ref() {
            match ov.try_admit(ov.price(spec.region.junctions.len())) {
                Ok(milli) => cost_milli = milli,
                Err(retry_after) => {
                    Metrics::bump(&st.metrics.admission_rejected);
                    return Err(Rejected { retry_after });
                }
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        let job = Job { id, spec, cost_milli, reply: tx };
        if job.spec.deadline.is_some_and(|dl| dl <= Instant::now()) {
            // Expired on arrival: answer straight away, no queue slot.
            if let Some(ov) = st.overload.as_ref() {
                ov.release(job.cost_milli);
            }
            let job = Job { cost_milli: 0, ..job };
            self.reply_expired(job);
            return Ok(PendingAnswer(rx));
        }
        match jobs.try_send(job) {
            Ok(()) => {
                self.metrics.queue_depth.store(jobs.len() as u64, Ordering::Relaxed);
                Ok(PendingAnswer(rx))
            }
            Err(channel::TrySendError::Full(job)) => {
                if let Some(ov) = st.overload.as_ref() {
                    ov.release(job.cost_milli);
                }
                Metrics::bump(&st.metrics.admission_rejected);
                // Rough drain hint: one full backoff schedule.
                let retry_after = st
                    .overload
                    .as_ref()
                    .map(|ov| ov.queue_retry_after())
                    .unwrap_or(st.cfg.shard_timeout * (st.cfg.max_retries + 1));
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
        // 1. Close the submission queue: dispatchers drain and exit.
        self.jobs = None;
        for h in self.dispatcher_threads.drain(..) {
            let _ = h.join();
        }
        // 2. Drop the last owner of the shard senders: shards drain and exit.
        self.state = None;
        // 3. Tell the supervisor to stop respawning; it joins every worker
        //    thread it ever spawned before returning.
        if let Some(tx) = self.supervisor_tx.take() {
            let _ = tx.send(SupervisorMsg::Shutdown);
        }
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

/// Validates one event against the deployment; refusals bump the
/// `ingest_rejected` counter so operators can see malformed traffic.
fn check_event(st: &ServerState, c: &Crossing) -> Result<(), IngestError> {
    let err = if c.edge >= st.totals.len() {
        IngestError::UnknownEdge { edge: c.edge, num_edges: st.totals.len() }
    } else if !c.time.is_finite() {
        IngestError::NonFiniteTime { edge: c.edge }
    } else {
        return Ok(());
    };
    Metrics::bump(&st.metrics.ingest_rejected);
    Err(err)
}

/// Sequence-stamps one validated event and sends it to its owning shard.
///
/// The lane lock covers the map re-read, trim, sequence assignment, redo
/// push, AND the channel send, so sequences arrive at the worker in order.
/// The re-read makes routing race-free against migrations: a migration
/// commits its new assignment while holding the involved lane locks, so a
/// map read under a lane lock that still routes here is current — on a
/// mismatch we simply retry against the new owner.
fn dispatch_one(st: &ServerState, c: Crossing) {
    loop {
        let shard = st.map.shard_of(c.edge);
        let mut lane = st.lanes[shard].lock();
        if st.map.shard_of(c.edge) != shard {
            continue; // migrated between the read and the lock; re-route
        }
        let durable = st.durable_seq[shard].load(Ordering::Acquire);
        while lane.buf.front().is_some_and(|&(s, _)| s <= durable) {
            lane.buf.pop_front();
        }
        lane.next_seq += 1;
        let seq = lane.next_seq;
        lane.buf.push_back((seq, c));
        st.map.record_route(shard, 1);
        let _ = st.to_shards[shard].send(ShardMsg::Ingest { seq, event: c });
        return;
    }
}

fn serve(st: &ServerState, job: Job) {
    let start = Instant::now();
    // Deadline short-circuit at the dispatch hop: a job whose budget ran
    // out while it sat in the queue is answered from the worst-case totals
    // without any fan-out.
    let answer = if job.spec.deadline.is_some_and(|dl| Instant::now() >= dl) {
        expired_answer(st, job.id, &job.spec, start)
    } else {
        compute(st, job.id, &job.spec, start)
    };
    if let Some(ov) = st.overload.as_ref() {
        ov.release(job.cost_milli);
    }
    record_served(st, &answer);
    // The client may have given up on the PendingAnswer; that's fine.
    let _ = job.reply.send(answer);
}

/// Folds one served answer into the metric registry and trace ring (shared
/// by the dispatcher path and the expired-at-submit short-circuit).
fn record_served(st: &ServerState, answer: &ServedAnswer) {
    let m = &st.metrics;
    m.latency.record(answer.latency.as_micros() as u64);
    Metrics::bump(&m.queries);
    if answer.miss {
        Metrics::bump(&m.misses);
    }
    if answer.degraded {
        Metrics::bump(&m.degraded);
    }
    if answer.expired {
        Metrics::bump(&m.deadline_expired);
    }
    match answer.brownout {
        0 => {}
        b if stride_for(b) == 0 => Metrics::bump(&m.shed),
        _ => Metrics::bump(&m.downgraded),
    }
    match answer.strategy {
        DegradedStrategy::None => {}
        DegradedStrategy::Demoted => Metrics::bump(&m.degraded_demoted),
        DegradedStrategy::MultiFaceDetour => Metrics::bump(&m.degraded_detour),
        DegradedStrategy::Imputation => Metrics::bump(&m.degraded_imputed),
        DegradedStrategy::LearnedFallback => Metrics::bump(&m.degraded_learned),
    }
    if answer.strategy != DegradedStrategy::None {
        let width = answer.upper - answer.lower;
        if width.is_finite() {
            m.degraded_width.record(width.round().max(0.0) as u64);
        }
    }
    m.trace(QueryTrace {
        query_id: answer.query_id,
        shards: answer.shards,
        retries: answer.retries,
        coverage: answer.coverage,
        latency_us: answer.latency.as_micros() as u64,
        plan_us: answer.plan_latency.as_micros() as u64,
        plan_cache_hit: answer.plan_cache_hit,
        degraded: answer.degraded,
        miss: answer.miss,
        strategy: answer.strategy.label(),
        brownout: answer.brownout,
        expired: answer.expired,
    });
}

/// Maps a breaker transition onto its metric counter.
fn record_transition(st: &ServerState, tr: Option<Transition>) {
    match tr {
        Some(Transition::Opened) => Metrics::bump(&st.metrics.breaker_opened),
        Some(Transition::HalfOpened) => Metrics::bump(&st.metrics.breaker_half_open),
        Some(Transition::Closed) => Metrics::bump(&st.metrics.breaker_closed),
        None => {}
    }
}

/// The all-edges-missing bracket of one plan: every boundary edge
/// contributes its lifetime worst case `[−total_out, +total_in]`, the
/// estimate is 0. The same monotone `min` / `max(0, ·)` transforms as the
/// aggregator fold keep the Static-kind bracket sound.
fn worst_case_bracket(
    st: &ServerState,
    plan: &stq_core::engine::QueryPlan,
    kind: QueryKind,
) -> (f64, f64, f64) {
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for be in &plan.boundary {
        let fwd = st.totals[be.edge][0].load(Ordering::Relaxed) as f64;
        let bwd = st.totals[be.edge][1].load(Ordering::Relaxed) as f64;
        let (total_in, total_out) = if be.inward_forward { (fwd, bwd) } else { (bwd, fwd) };
        lo -= total_out;
        hi += total_in;
    }
    match kind {
        QueryKind::Snapshot(_) | QueryKind::Transient(..) => (0.0, lo, hi),
        QueryKind::Static(..) => (0.0, lo.max(0.0), hi.max(0.0)),
    }
}

/// Serves a query whose deadline already elapsed: the (cached) plan still
/// yields a sound worst-case bracket, but no shard is contacted.
fn expired_answer(st: &ServerState, id: u64, spec: &QuerySpec, start: Instant) -> ServedAnswer {
    let plan_t0 = Instant::now();
    let (plan, plan_cache_hit) =
        st.engine.plan(&st.sensing, &st.sampled, &spec.region, spec.approx);
    let plan_latency = plan_t0.elapsed();
    if plan.miss {
        return ServedAnswer {
            query_id: id,
            value: 0.0,
            lower: 0.0,
            upper: 0.0,
            coverage: 0.0,
            miss: true,
            degraded: false,
            strategy: DegradedStrategy::None,
            confidence: 0.0,
            quarantined: 0,
            shards: 0,
            retries: 0,
            plan_cache_hit,
            plan_latency,
            latency: start.elapsed(),
            expired: true,
            brownout: 0,
        };
    }
    let (value, lower, upper) = worst_case_bracket(st, &plan, spec.kind);
    let coverage = if plan.boundary.is_empty() { 1.0 } else { 0.0 };
    ServedAnswer {
        query_id: id,
        value,
        lower,
        upper,
        coverage,
        miss: false,
        degraded: coverage < 1.0,
        strategy: DegradedStrategy::None,
        confidence: 0.0,
        quarantined: 0,
        shards: 0,
        retries: 0,
        plan_cache_hit,
        plan_latency,
        latency: start.elapsed(),
        expired: true,
        brownout: 0,
    }
}

fn compute(st: &ServerState, id: u64, spec: &QuerySpec, start: Instant) -> ServedAnswer {
    // Plan: resolve the region and derive the boundary chain — or reuse a
    // cached plan for a region the runtime has served before.
    let plan_t0 = Instant::now();
    let (plan, plan_cache_hit) =
        st.engine.plan(&st.sensing, &st.sampled, &spec.region, spec.approx);
    let plan_latency = plan_t0.elapsed();
    st.metrics.plan_latency.record(plan_latency.as_micros() as u64);
    Metrics::bump(if plan_cache_hit {
        &st.metrics.plan_cache_hits
    } else {
        &st.metrics.plan_cache_misses
    });
    if plan.miss {
        // The serving graph cannot cover the region — but the degraded
        // answerer's detour / imputation machinery may still certify a
        // bracket on its repaired graphs.
        if let Some(da) = consult_degraded(st, spec) {
            return ServedAnswer {
                query_id: id,
                value: da.value,
                lower: da.bracket.lower,
                upper: da.bracket.upper,
                coverage: 0.0,
                miss: false,
                degraded: true,
                strategy: da.strategy,
                confidence: da.confidence,
                quarantined: 0,
                shards: 0,
                retries: 0,
                plan_cache_hit,
                plan_latency,
                latency: start.elapsed(),
                expired: false,
                brownout: 0,
            };
        }
        return ServedAnswer {
            query_id: id,
            value: 0.0,
            lower: 0.0,
            upper: 0.0,
            coverage: 0.0,
            miss: true,
            degraded: false,
            strategy: DegradedStrategy::None,
            confidence: 0.0,
            quarantined: 0,
            shards: 0,
            retries: 0,
            plan_cache_hit,
            plan_latency,
            latency: start.elapsed(),
            expired: false,
            brownout: 0,
        };
    }
    let exec_t0 = Instant::now();
    let boundary = &plan.boundary;

    // Brownout: the current precision level picks a boundary-sampling
    // stride. Level 0 serves every edge (the classic path); higher levels
    // serve every 2nd / 4th / no edge — the skipped ones fall to the same
    // worst-case-totals degradation as silent shards, so the answer is
    // cheaper and wider but still sound.
    let level = st.overload.as_ref().map(|ov| ov.brownout.level()).unwrap_or(0);

    // Fan out: group the served boundary edges by owning shard, tagged with
    // their position in the chain so the aggregate fold preserves term
    // order.
    let mut pending: HashMap<usize, Vec<(usize, BoundaryEdge)>> = HashMap::new();
    for (idx, be) in plan.shed_boundary(stride_for(level)) {
        pending.entry(st.map.shard_of(be.edge)).or_default().push((idx, be));
    }
    let fanout = pending.len();
    let mut slots: Vec<Option<EdgeCounts>> = vec![None; boundary.len()];
    let mut refused_total = 0usize;
    // Bounded per-query response channel (see `ServerState::resp_capacity`);
    // shards `try_send`, so a late answer past the cap is dropped, never a
    // blocked worker.
    let (tx, rx) = channel::bounded::<ShardResponse>(st.resp_capacity.max(1));
    let mut retries_used = 0u32;
    let mut expired_mid = false;

    let healthy = |shard: usize| st.health[shard].load(Ordering::Acquire) == HEALTHY;
    for attempt in 0..=st.cfg.max_retries {
        // Deadline short-circuit at the fan-out hop: no further attempts
        // once the budget is gone — whatever already reported is folded,
        // the rest degrades.
        if spec.deadline.is_some_and(|dl| Instant::now() >= dl) {
            expired_mid = true;
            break;
        }
        // Unhealthy / recovering shards are skipped outright: their edges
        // degrade to worst-case bounds instead of stalling the query. A
        // shard that finishes recovery before a later attempt rejoins then.
        // Open circuit breakers skip the same way (no retry storm against a
        // repeatedly-silent shard), except for the one half-open probe.
        let mut awaiting: HashSet<usize> = HashSet::new();
        let mut skipped_unhealthy = 0u64;
        for &shard in pending.keys() {
            if !healthy(shard) {
                skipped_unhealthy += 1;
                continue;
            }
            let (gate, tr) = match st.overload.as_ref() {
                Some(ov) => ov.breakers.admit(shard),
                None => (Gate::Allow, None),
            };
            record_transition(st, tr);
            match gate {
                Gate::Allow | Gate::Probe => {
                    awaiting.insert(shard);
                }
                Gate::Skip => Metrics::bump(&st.metrics.breaker_skipped),
            }
        }
        if skipped_unhealthy > 0 {
            Metrics::add(&st.metrics.skipped_unhealthy, skipped_unhealthy);
        }
        for (&shard, edges) in pending.iter().filter(|(s, _)| awaiting.contains(s)) {
            Metrics::bump(&st.metrics.shard_requests);
            let _ = st.to_shards[shard].send(ShardMsg::Query(ShardRequest {
                query_id: id,
                attempt,
                kind: spec.kind,
                edges: edges.clone(),
                deadline: spec.deadline,
                reply: tx.clone(),
            }));
        }
        let waited = !awaiting.is_empty();
        // Shards whose worker panicked on this attempt: they answered (so
        // the channel is live) but produced nothing — once every awaited
        // shard has failed, waiting out the timeout is pointless.
        let mut panicked_now: HashSet<usize> = HashSet::new();
        // Exponential backoff: attempt k waits 2^k × the base window —
        // clamped to the query deadline, which no attempt may overshoot.
        let mut deadline = Instant::now() + st.cfg.shard_timeout * (1u32 << attempt);
        if let Some(dl) = spec.deadline {
            deadline = deadline.min(dl);
        }
        while !awaiting.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Wait in short slices so a worker dying mid-attempt (health
            // flips away from Healthy) releases the query after one slice
            // instead of the full backoff window.
            match rx.recv_timeout((deadline - now).min(HEALTH_RECHECK)) {
                Ok(resp) if resp.panicked => {
                    if awaiting.contains(&resp.shard) {
                        panicked_now.insert(resp.shard);
                        if awaiting.iter().all(|s| panicked_now.contains(s)) {
                            break; // every awaited shard failed; retry now
                        }
                    }
                }
                Ok(resp) => {
                    // First response per shard wins; duplicates and answers
                    // from superseded attempts are ignored.
                    if pending.remove(&resp.shard).is_some() {
                        awaiting.remove(&resp.shard);
                        refused_total += resp.refused.len();
                        for c in resp.counts {
                            slots[c.idx] = Some(c);
                        }
                        // Edges a migration moved away from the responding
                        // shard mid-query re-enter the fan-out keyed by
                        // their current owner; a later attempt serves them
                        // there (or they degrade soundly at exhaustion).
                        for (idx, be) in resp.moved {
                            pending.entry(st.map.shard_of(be.edge)).or_default().push((idx, be));
                        }
                        if let Some(ov) = st.overload.as_ref() {
                            record_transition(st, ov.breakers.success(resp.shard));
                        }
                    }
                }
                Err(_) => {
                    let before = awaiting.len();
                    awaiting.retain(|&s| healthy(s) || panicked_now.contains(&s));
                    if awaiting.len() != before
                        && !awaiting.is_empty()
                        && awaiting.iter().all(|s| panicked_now.contains(s))
                    {
                        break;
                    }
                }
            }
        }
        // Breaker bookkeeping: a shard that stayed silent through its
        // attempt window counts one failure. Panicked workers are excluded
        // — they answered (the supervisor's escalation path owns them) —
        // and so are workers the health check removed mid-wait.
        if let Some(ov) = st.overload.as_ref() {
            for &shard in &awaiting {
                if !panicked_now.contains(&shard) {
                    record_transition(st, ov.breakers.failure(shard));
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        if waited {
            Metrics::bump(&st.metrics.timeouts);
        }
        if attempt < st.cfg.max_retries {
            retries_used += 1;
            Metrics::bump(&st.metrics.retries);
        }
    }

    // Aggregate in boundary order. A reported edge contributes its exact
    // terms; a missing edge contributes 0 to the estimate and its lifetime
    // worst case `[−total_out, +total_in]` to the bounds.
    let mut answered = 0usize;
    let (mut est_a, mut lo_a, mut hi_a) = (0.0f64, 0.0f64, 0.0f64);
    let (mut est_b, mut lo_b, mut hi_b) = (0.0f64, 0.0f64, 0.0f64);
    for (idx, &be) in boundary.iter().enumerate() {
        match slots[idx] {
            Some(c) => {
                answered += 1;
                est_a += c.a;
                lo_a += c.a;
                hi_a += c.a;
                est_b += c.b;
                lo_b += c.b;
                hi_b += c.b;
            }
            None => {
                let fwd = st.totals[be.edge][0].load(Ordering::Relaxed) as f64;
                let bwd = st.totals[be.edge][1].load(Ordering::Relaxed) as f64;
                let (total_in, total_out) = if be.inward_forward { (fwd, bwd) } else { (bwd, fwd) };
                lo_a -= total_out;
                hi_a += total_in;
                lo_b -= total_out;
                hi_b += total_in;
            }
        }
    }
    let coverage = if boundary.is_empty() { 1.0 } else { answered as f64 / boundary.len() as f64 };
    let (mut value, mut lower, mut upper) = match spec.kind {
        QueryKind::Snapshot(_) | QueryKind::Transient(..) => (est_a, lo_a, hi_a),
        // min and max(0, ·) are monotone, so applying them to the endpoint
        // bounds keeps lower ≤ exact ≤ upper.
        QueryKind::Static(..) => {
            (est_a.min(est_b).max(0.0), lo_a.min(lo_b).max(0.0), hi_a.min(hi_b).max(0.0))
        }
    };

    // Quarantine-degraded answers escalate through the repair strategies:
    // the certified degraded-mode bracket replaces the worst-case-totals
    // one (whose quarantined-edge terms fold corrupted lifetime counts).
    let (mut strategy, mut confidence) = (DegradedStrategy::None, coverage);
    if refused_total > 0 && coverage < 1.0 {
        if let Some(da) = consult_degraded(st, spec) {
            value = da.value;
            lower = da.bracket.lower;
            upper = da.bracket.upper;
            strategy = da.strategy;
            confidence = da.confidence;
        }
    }

    let exec_us = exec_t0.elapsed().as_micros() as u64;
    st.metrics.execute_latency.record(exec_us);
    // Feed the brownout controller; on a level shift, crossing level 2
    // also toggles subscription delta-push shedding (with a coalesced
    // catch-up push on the way back down).
    if let Some(ov) = st.overload.as_ref() {
        let depth = st.metrics.queue_depth.load(Ordering::Relaxed) as usize;
        if let Some((from, to)) = ov.brownout.observe(depth, exec_us) {
            st.metrics.brownout_level.store(to as u64, Ordering::Relaxed);
            Metrics::bump(&st.metrics.brownout_shifts);
            if from < 2 && to >= 2 {
                st.subs.set_shed_pushes(true);
            } else if from >= 2 && to < 2 {
                let coalesced = st.subs.set_shed_pushes(false);
                Metrics::add(&st.metrics.sub_coalesced, coalesced.len() as u64);
            }
        }
    }
    ServedAnswer {
        query_id: id,
        value,
        lower,
        upper,
        coverage,
        miss: false,
        degraded: coverage < 1.0,
        strategy,
        confidence,
        quarantined: refused_total,
        shards: fanout,
        retries: retries_used,
        plan_cache_hit,
        plan_latency,
        latency: start.elapsed(),
        expired: expired_mid,
        brownout: level,
    }
}

/// The degraded-mode consult gate: an answerer must be configured, no event
/// may have been ingested since startup (the brackets are certified against
/// the construction-time store), and the escalation must land on a non-miss
/// bracket.
fn consult_degraded(st: &ServerState, spec: &QuerySpec) -> Option<DegradedAnswer> {
    let deg = st.degraded.as_ref()?;
    if st.deg_dirty.load(Ordering::Acquire) {
        return None;
    }
    let store = st.deg_store.as_ref()?;
    let a = deg.answer(&st.sensing, store, &spec.region, spec.kind);
    (!a.bracket.miss).then_some(a)
}
