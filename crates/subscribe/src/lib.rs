//! # stq-subscribe
//!
//! Standing spatiotemporal range subscriptions with incremental delta
//! maintenance — the continuous-query layer over the paper's boundary-chain
//! machinery (ROADMAP item 2, after "Distributed processing of continuous
//! range queries over moving objects").
//!
//! A monitoring workload asks the *same* region every tick. Re-executing the
//! prefix-sum fold per tick costs O(boundary) per query per tick; this crate
//! instead compiles each registered region into a reusable
//! [`QueryPlan`] **once** (through the shared
//! [`QueryEngine`] and its LRU cache), indexes the plan's boundary edges in a
//! routing table, and updates each subscription's running
//! `[lower, upper]` bracket by ±1 **count deltas** as crossings arrive —
//! O(affected subscriptions) per event, O(1) per tick per subscription.
//!
//! The routing table is a `Vec` indexed by edge whose entries name dense
//! slots of a subscription slab, so applying a delta hashes nothing;
//! [`SubscriptionId`]s stay never-reused `u64`s and are resolved through a
//! map only on subscribe, unsubscribe and by-id reads.
//!
//! ## Push granularity
//!
//! Brackets move event by event; subscribers hear about it once per
//! processing round: **one push per touched subscription per
//! [`SubscriptionRegistry::on_ingest_batch`] call** — so one per
//! `Runtime::ingest_batch` call, and one per event for `Runtime::ingest`,
//! which is the batch of one (`on_ingest_batch(std::slice::from_ref(&c))`
//! routes a single crossing `c`). The update carries the bracket as of the
//! end of the batch (`deltas` says how many events it folded in), so a
//! subscriber's last received update always equals the live bracket.
//!
//! ## Exactness contract
//!
//! The maintained bracket is **bit-identical** to re-executing the plan
//! against the live store at every instant between epochs:
//!
//! - The registry mirrors the shard-side accept rule exactly: an event is
//!   counted iff its timestamp is not behind that edge-direction's watermark
//!   (the same predicate as `stq_durability::apply_crossing`, which both the
//!   live ingest path and recovery replay use). A late event changes neither
//!   the forms nor the bracket value.
//! - A **trusted** boundary edge contributes its net inward count; an
//!   accepted crossing moves `value`, `lower` and `upper` together by ±1.
//! - A **quarantined** boundary edge is refused by its shard, so the
//!   re-execute path widens by the edge's lifetime totals (which grow even
//!   for late-dropped events). The registry applies the same rule as a
//!   delta: an inward event adds 1 to `upper`, an outward event subtracts 1
//!   from `lower`, and `value` stays put.
//! - A quarantined edge that carries a **certified interval** contributes
//!   the intersection of that interval — widened by the events since
//!   certification — with the lifetime worst case. Both intersection
//!   endpoints move in lockstep with the worst case under new events, so
//!   the same ±1 delta rule keeps delta-maintained and re-snapshot brackets
//!   bit-identical. Certificates are computed under the registry lock from
//!   the mirror ([`SubscriptionRegistry::certify_imputed`] runs the
//!   degraded-mode imputer over the accepted counts), so an interval and
//!   the totals it is widened from describe one instant of the stream, and
//!   certifying works as well after ingest as before it.
//!
//! All counts are integers, every intermediate is far below 2⁵³, and the
//! baseline fold visits boundary edges in plan order — so float addition is
//! exact and the delta-maintained bracket equals the re-executed fold bit
//! for bit, not merely approximately.
//!
//! ## Epochs and re-snapshots
//!
//! Quarantine extensions and supervisor crash-recovery change the serving
//! topology out from under a running bracket. [`SubscriptionRegistry::advance_epoch`]
//! makes that sound: it bumps the registry epoch, absorbs any extra
//! quarantine, recomputes every subscription's bracket from the mirror
//! (a re-snapshot through the compiled plan), and only then lets deltas
//! resume — a delta stamped with an old epoch can never survive into a new
//! one because re-snapshot overwrites the bracket wholesale. The serving
//! runtime calls this under its ingest-lane lock, atomically with the
//! shard-health flip.
//!
//! ## One quarantine column
//!
//! Which edges are quarantined is kept once: a per-edge flag vector the
//! registry owns and shares out through
//! [`SubscriptionRegistry::quarantined`], like the lifetime totals through
//! [`SubscriptionRegistry::totals`]. Flags are set under the registry lock
//! ([`SubscriptionRegistry::new`], [`SubscriptionRegistry::advance_epoch`])
//! and **never cleared**. The runtime's shard workers read the same column
//! lock-free to refuse an edge, so the aggregator's fold and the
//! standing-bracket fold widen by one definition of "refused".
//!
//! ## One writer of the shared columns
//!
//! The registry lock is the only writer of both shared columns. The totals
//! are bumped per event inside [`SubscriptionRegistry::on_ingest_batch`]'s
//! one lock acquisition, by a relaxed load and a relaxed store rather than a
//! locked read-modify-write: no second writer can interleave, and a
//! lock-free reader (the aggregator's worst-case widening, the shard map's
//! load histogram) sees either the count before an event or the one after.
//! An event on an edge no subscription listens on touches only its totals
//! and its mirror watermark and count.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use stq_core::bracket::Bracket;
use stq_core::engine::{PlanId, QueryEngine, QueryPlan};
use stq_core::impute::Imputer;
use stq_core::query::{Approximation, QueryRegion};
use stq_core::sampled::SampledGraph;
use stq_core::sensing::SensingGraph;
use stq_core::tracker::Crossing;
use stq_forms::{CountSource, FormStore, Time};

/// Stable handle of one standing subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// A subscription's live answer: the running count estimate and its sound
/// `[lower, upper]` bracket, maintained by deltas between re-snapshots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StandingBracket {
    /// The count estimate. On a fully trusted boundary this equals the
    /// re-executed plan exactly; quarantined edges contribute 0 here and
    /// widen the bounds instead (mirroring the runtime's refusal handling).
    pub value: f64,
    /// Sound lower bound on the re-executed value.
    pub lower: f64,
    /// Sound upper bound on the re-executed value.
    pub upper: f64,
    /// The registry epoch this bracket was last re-snapshot under.
    pub epoch: u64,
    /// Deltas folded in since that re-snapshot.
    pub deltas: u64,
}

impl StandingBracket {
    /// True when the bracket pins the value exactly (no quarantined
    /// widening has touched it since the last re-snapshot).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Why a [`BracketUpdate`] was pushed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateCause {
    /// The subscription was just registered; this is its baseline.
    Registered,
    /// Ingested crossings moved the bracket: one push per touched
    /// subscription per `ingest_batch` call (per event for `ingest`),
    /// carrying the bracket as of the end of that call.
    Delta,
    /// An epoch advance recomputed the bracket from the mirror.
    Resnapshot,
}

/// One pushed bracket change, delivered on the subscriber's channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BracketUpdate {
    /// Which subscription moved.
    pub subscription: SubscriptionId,
    /// The bracket after the change (its `epoch` is the registry's).
    pub bracket: StandingBracket,
    /// What triggered the push.
    pub cause: UpdateCause,
}

/// Why a subscription could not be registered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscribeError {
    /// The sampled graph cannot cover the region at all (a query miss,
    /// §5.5): there is no boundary to maintain.
    Unresolvable,
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::Unresolvable => {
                write!(f, "the sampled graph cannot resolve the region (query miss)")
            }
        }
    }
}

impl std::error::Error for SubscribeError {}

/// What [`SubscriptionRegistry::subscribe`] hands back.
#[derive(Clone, Copy, Debug)]
pub struct Registered {
    /// The new subscription's handle.
    pub id: SubscriptionId,
    /// Its baseline bracket (also pushed as the first update).
    pub bracket: StandingBracket,
    /// The compiled plan's cache identity (the subscription pins its own
    /// `Arc` of the plan, so eviction never affects a live subscription).
    pub plan_id: PlanId,
    /// Whether the region's plan came from the engine's cache.
    pub plan_cache_hit: bool,
    /// Boundary edges the subscription listens on.
    pub boundary_edges: usize,
}

/// What one ingest batch did to the registry. The registry keeps no
/// counters of its own: the serving runtime folds this into its metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestObservation {
    /// Bracket deltas applied: one per event per subscription it moved.
    pub deltas: usize,
    /// Events that arrived behind their edge direction's watermark and left
    /// trusted counts untouched (quarantined widenings still apply — totals
    /// grow anyway), exactly like the shard's accept rule.
    pub late: usize,
    /// Live subscriptions once the batch's pushes are out: a subscriber
    /// whose receiver was gone has been removed.
    pub subscriptions: usize,
}

struct Subscription {
    id: u64,
    plan: Arc<QueryPlan>,
    bracket: Bracket,
    /// The registry epoch `bracket` was last re-snapshot under.
    epoch: u64,
    /// Deltas folded into `bracket` since that re-snapshot.
    deltas: u64,
    push: Option<Sender<BracketUpdate>>,
    /// Moved by the ingest batch in progress and already listed in
    /// `Inner::touched`; cleared when the batch flushes its pushes.
    dirty: bool,
}

impl Subscription {
    fn standing(&self) -> StandingBracket {
        let Bracket { est: value, lo: lower, hi: upper } = self.bracket;
        StandingBracket { value, lower, upper, epoch: self.epoch, deltas: self.deltas }
    }

    /// The current bracket as an update (a subscription's epoch is always
    /// the registry's: epoch advances re-stamp every subscription).
    fn update(&self, cause: UpdateCause) -> BracketUpdate {
        BracketUpdate { subscription: SubscriptionId(self.id), bracket: self.standing(), cause }
    }
}

/// A certified net-flow interval for one quarantined edge, installed by
/// [`SubscriptionRegistry::certify_imputed`]: at certify time the edge's net
/// forward flow provably lay in `[lo, hi]`. `base` snapshots the lifetime
/// totals at that moment, under the same lock, so later events widen the
/// certificate soundly (each forward event can raise the net by at most 1,
/// each backward event lower it by at most 1).
struct Certificate {
    lo: f64,
    hi: f64,
    base: [u64; 2],
}

/// The registry's replica of shard count state: what the shards have
/// *applied*, not merely what was sent to them.
struct Mirror {
    /// Per-edge applied crossings `[forward, backward]`, post accept rule.
    counts: Vec<[u64; 2]>,
    /// Highest accepted timestamp per edge direction (`-inf` when empty) —
    /// the accept predicate is `time >= watermark`, the same comparison
    /// `apply_crossing` makes against the form's last timestamp.
    watermark: Vec<[f64; 2]>,
    /// Certified intervals for quarantined edges: the fold intersects each
    /// with the lifetime worst case, so certificates only ever *tighten*
    /// the widening. Both intersection endpoints move in lockstep with the
    /// worst case under new events, which keeps the ±1 delta rule bitwise
    /// exact.
    certs: HashMap<usize, Certificate>,
}

/// The mirror's accepted counts as a [`CountSource`]: each edge direction's
/// count at any instant at or past its watermark.
struct Accepted<'a>(&'a [[u64; 2]]);

impl CountSource for Accepted<'_> {
    fn count_until(&self, edge: usize, forward: bool, _t: Time) -> f64 {
        self.0[edge][usize::from(!forward)] as f64
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.0)
    }
}

struct Inner {
    epoch: u64,
    next_id: u64,
    mirror: Mirror,
    /// Per boundary edge, the slab slots of the subscriptions it affects,
    /// with the edge's inward orientation baked into each route (so delta
    /// application needs no plan lookup and no hashing).
    routes: Vec<Vec<(usize, bool)>>,
    /// Live subscriptions by slot; freed slots are reused through `free`.
    slab: Vec<Option<Subscription>>,
    free: Vec<usize>,
    /// `SubscriptionId` → slot. Ids are never reused, slots are; only
    /// subscribe, unsubscribe and by-id reads come through here, and
    /// iteration is in id order.
    by_id: BTreeMap<u64, usize>,
    /// Slots the ingest batch in progress has moved (scratch, empty between
    /// batches).
    touched: Vec<usize>,
}

impl Inner {
    /// Live subscriptions in id order.
    fn subs(&self) -> impl Iterator<Item = &Subscription> {
        self.by_id.values().filter_map(|&slot| self.slab[slot].as_ref())
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.by_id.remove(&id) else { return false };
        if let Some(sub) = self.slab[slot].take() {
            for be in &sub.plan.boundary {
                self.routes[be.edge].retain(|&(s, _)| s != slot);
            }
        }
        self.free.push(slot);
        true
    }

    /// Ends an ingest batch: one `Delta` push per touched subscription.
    /// Subscribers whose receiver is gone are removed afterwards.
    fn flush_pushes(&mut self) {
        let mut dead: Vec<u64> = Vec::new();
        for slot in self.touched.drain(..) {
            let Some(sub) = self.slab[slot].as_mut() else { continue };
            sub.dirty = false;
            if let Some(tx) = &sub.push {
                if tx.send(sub.update(UpdateCause::Delta)).is_err() {
                    dead.push(sub.id);
                }
            }
        }
        for id in dead {
            self.remove(id);
        }
    }
}

/// The standing-query registry: compiled plans, the edge→subscription
/// routing table, and the delta-maintained brackets.
///
/// All mutation happens under one internal mutex, so a subscriber's baseline
/// can never observe a half-applied event and concurrent ingest interleaves
/// with epoch advances atomically.
pub struct SubscriptionRegistry {
    engine: Arc<QueryEngine>,
    /// Per-edge lifetime crossing totals `[forward, backward]` — grown on
    /// every ingested event (late or not) *inside* the registry lock, the
    /// only writer, by a plain load and store; shared with the serving
    /// runtime, whose degradation bounds and shard map read them lock-free.
    totals: Arc<Vec<[AtomicU64; 2]>>,
    /// Per-edge quarantine flag, the only copy there is: the integrity
    /// auditor (or a recovery that lost a shard's history) quarantined the
    /// edge, so its shard refuses to serve it and brackets widen by totals.
    /// Set only while `inner` is locked, never cleared, and shared with the
    /// serving runtime, whose shard workers read it lock-free.
    quarantined: Arc<Vec<AtomicBool>>,
    inner: Mutex<Inner>,
}

impl SubscriptionRegistry {
    /// Builds a registry whose mirror starts at `store`'s current state
    /// (counts, watermarks and lifetime totals all derived from the forms),
    /// with the given initial quarantine set.
    pub fn new(
        engine: Arc<QueryEngine>,
        store: &FormStore,
        quarantined: impl IntoIterator<Item = usize>,
    ) -> Self {
        let n = store.num_edges();
        let mut totals = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut watermark = Vec::with_capacity(n);
        for e in 0..n {
            let form = store.form(e);
            let (f, b) = (form.total(true) as u64, form.total(false) as u64);
            totals.push([AtomicU64::new(f), AtomicU64::new(b)]);
            counts.push([f, b]);
            watermark.push([
                form.timestamps(true).last().copied().unwrap_or(f64::NEG_INFINITY),
                form.timestamps(false).last().copied().unwrap_or(f64::NEG_INFINITY),
            ]);
        }
        let flags: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        flag_quarantined(&flags, quarantined);
        SubscriptionRegistry {
            engine,
            totals: Arc::new(totals),
            quarantined: Arc::new(flags),
            inner: Mutex::new(Inner {
                epoch: 0,
                next_id: 0,
                mirror: Mirror { counts, watermark, certs: HashMap::new() },
                routes: vec![Vec::new(); n],
                slab: Vec::new(),
                free: Vec::new(),
                by_id: BTreeMap::new(),
                touched: Vec::new(),
            }),
        }
    }

    /// The shared lifetime totals (the runtime reads these for its
    /// worst-case degradation bounds). Written only by
    /// [`Self::on_ingest_batch`] under the registry lock, which makes it the
    /// only writer: the per-event add is a relaxed load and store, and a
    /// reader's relaxed load sees a count the stream really passed through.
    /// Nothing outside the registry may store to them.
    pub fn totals(&self) -> &Arc<Vec<[AtomicU64; 2]>> {
        &self.totals
    }

    /// The shared per-edge quarantine flags (the runtime's shard workers
    /// read these to refuse an edge). Set only by [`Self::new`] and
    /// [`Self::advance_epoch`], never cleared; load with `Acquire`.
    pub fn quarantined(&self) -> &Arc<Vec<AtomicBool>> {
        &self.quarantined
    }

    /// Registers a standing region: compiles (or cache-loads) its plan,
    /// indexes its boundary in the routing table, snapshots a baseline
    /// bracket from the mirror, and optionally attaches a push channel.
    ///
    /// The baseline is pushed as the first [`BracketUpdate`]
    /// (`cause == Registered`). A subscriber that drops its receiver is
    /// auto-unsubscribed the next time a push to it fails — at the end of
    /// the first ingest batch that touches it, or at the next epoch advance.
    pub fn subscribe(
        &self,
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        region: &QueryRegion,
        approx: Approximation,
        push: Option<Sender<BracketUpdate>>,
    ) -> Result<Registered, SubscribeError> {
        let (plan, plan_cache_hit) = self.engine.plan(sensing, sampled, region, approx);
        if plan.miss {
            return Err(SubscribeError::Unresolvable);
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let id = inner.next_id;
        inner.next_id += 1;
        let sub = Subscription {
            id,
            bracket: fold_bracket(&plan, &inner.mirror, &self.totals, &self.quarantined),
            epoch: inner.epoch,
            deltas: 0,
            plan,
            push,
            dirty: false,
        };
        let update = sub.update(UpdateCause::Registered);
        let slot = inner.free.pop().unwrap_or_else(|| {
            inner.slab.push(None);
            inner.slab.len() - 1
        });
        for be in &sub.plan.boundary {
            inner.routes[be.edge].push((slot, be.inward_forward));
        }
        let boundary_edges = sub.plan.boundary.len();
        if let Some(tx) = &sub.push {
            let _ = tx.send(update);
        }
        let plan_id = sub.plan.id;
        inner.slab[slot] = Some(sub);
        inner.by_id.insert(id, slot);
        let (id, bracket) = (update.subscription, update.bracket);
        Ok(Registered { id, bracket, plan_id, plan_cache_hit, boundary_edges })
    }

    /// Removes a subscription and its routing entries. Returns whether it
    /// existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.inner.lock().remove(id.0)
    }

    /// Routes a whole ingest batch under **one** lock acquisition: grows the
    /// lifetime totals, applies the shard accept rule to the mirror and moves
    /// every affected bracket by its delta. Totals, watermarks and brackets
    /// move event by event in input order, so every bracket (its `deltas`
    /// count included) ends where one call per event would leave it, and the
    /// batch lands atomically with respect to epoch advances. Pushes are per
    /// batch, not per event: each subscription the batch touched receives
    /// **one** `Delta` update carrying its bracket as of the end of the
    /// batch. Returns what the batch did: the deltas applied, the late
    /// events and the live subscriptions after it.
    ///
    /// The serving runtime calls this for every event *before* handing it
    /// to the owning shard's ingest lane, so totals (and therefore
    /// degradation bounds) stay ahead of shard state at every instant.
    pub fn on_ingest_batch(&self, batch: &[Crossing]) -> IngestObservation {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut obs = IngestObservation::default();
        for c in batch {
            self.apply_locked(inner, c, &mut obs);
        }
        inner.flush_pushes();
        obs.subscriptions = inner.by_id.len();
        obs
    }

    /// Applies one event to the totals, the mirror and the brackets it
    /// routes to, listing each moved subscription in `touched` once and
    /// counting its deltas and lateness into `obs`.
    fn apply_locked(&self, inner: &mut Inner, c: &Crossing, obs: &mut IngestObservation) {
        let dir = usize::from(!c.forward);
        // The registry lock is the only writer of `totals`, so the add needs
        // no locked read-modify-write: a reader sees the old or the new count.
        let total = &self.totals[c.edge][dir];
        total.store(total.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // Same predicate as `apply_crossing`: reject iff strictly behind the
        // last accepted timestamp in this direction.
        let accepted = c.time >= inner.mirror.watermark[c.edge][dir];
        if accepted {
            inner.mirror.watermark[c.edge][dir] = c.time;
            inner.mirror.counts[c.edge][dir] += 1;
        } else {
            obs.late += 1;
        }
        // No subscription listens on the edge: there is no bracket to move,
        // whatever its quarantine flag says.
        let routes = &inner.routes[c.edge];
        if routes.is_empty() {
            return;
        }
        let quarantined = self.quarantined[c.edge].load(Ordering::Acquire);
        // A late event on a trusted edge changes nothing a re-execution
        // would see; on a quarantined edge the totals still grew, so the
        // widening below must happen regardless.
        if !accepted && !quarantined {
            return;
        }
        // `routes`, `slab` and `touched` are disjoint fields, so the hot
        // path walks the route list in place — no per-event allocation.
        for &(slot, inward_forward) in routes {
            let Some(sub) = inner.slab[slot].as_mut() else { continue };
            let entered = c.forward == inward_forward;
            if quarantined {
                // Mirror of the aggregator's worst case for a refused edge.
                sub.bracket.widen(entered);
            } else {
                sub.bracket.shift(entered);
            }
            sub.deltas += 1;
            obs.deltas += 1;
            if !sub.dirty {
                sub.dirty = true;
                inner.touched.push(slot);
            }
        }
    }

    /// Starts a new epoch: absorbs `extra_quarantine` into the mirror, then
    /// re-snapshots **every** subscription's bracket from the mirror through
    /// its compiled plan, stamping it with the new epoch. Returns the
    /// re-snapshot updates, one per subscription (each also delivered on its
    /// push channel; a subscriber whose receiver is gone is removed).
    ///
    /// This is the sound hand-off around any event that invalidates running
    /// brackets — quarantine extension, repair, supervisor crash-recovery.
    /// Because the bracket is overwritten wholesale under the same lock that
    /// applies deltas, a delta from before the epoch advance can never leak
    /// into the new epoch's bracket.
    pub fn advance_epoch(
        &self,
        extra_quarantine: impl IntoIterator<Item = usize>,
    ) -> Vec<BracketUpdate> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.epoch += 1;
        flag_quarantined(&self.quarantined, extra_quarantine);
        let epoch = inner.epoch;
        let mut out = Vec::with_capacity(inner.by_id.len());
        let mut dead: Vec<u64> = Vec::new();
        for &slot in inner.by_id.values() {
            let Some(sub) = inner.slab[slot].as_mut() else { continue };
            sub.bracket = fold_bracket(&sub.plan, &inner.mirror, &self.totals, &self.quarantined);
            (sub.epoch, sub.deltas) = (epoch, 0);
            let update = sub.update(UpdateCause::Resnapshot);
            if let Some(tx) = &sub.push {
                if tx.send(update).is_err() {
                    dead.push(sub.id);
                }
            }
            out.push(update);
        }
        for id in dead {
            inner.remove(id);
        }
        out
    }

    /// Installs a certificate for every quarantined edge to which `imp`, the
    /// degraded-mode conservation-interval imputer, evaluated over the
    /// mirror's accepted counts at `t`, gives a finite net-forward-flow
    /// interval. One lock covers the evaluation and each certificate's base
    /// (the lifetime totals, so later events widen it soundly): both come
    /// from one instant of the stream. Folds intersect a certificate with the
    /// lifetime worst case — running brackets pick it up at the next
    /// [`Self::advance_epoch`]. Returns how many were installed.
    ///
    /// The mirror holds each edge direction's count up to its last accepted
    /// event, which is its count at any `t` at or past the watermark, and
    /// the lifetime net flow the fold widens. So a `t` behind any watermark
    /// (or not a number) installs nothing: the imputer would bound the flow
    /// up to `t`, not the flow the fold uses.
    pub fn certify_imputed(&self, imp: &Imputer, t: Time) -> usize {
        let mut inner = self.inner.lock();
        let mirror = &mut inner.mirror;
        if !mirror.watermark.iter().flatten().all(|&w| t >= w) {
            return 0;
        }
        let intervals = imp.intervals_at(&Accepted(&mirror.counts), t);
        let mut installed = 0;
        for (edge, iv) in intervals {
            if iv.is_finite()
                && self.quarantined.get(edge).is_some_and(|q| q.load(Ordering::Acquire))
            {
                let base = [0, 1].map(|dir| self.totals[edge][dir].load(Ordering::Relaxed));
                mirror.certs.insert(edge, Certificate { lo: iv.lo, hi: iv.hi, base });
                installed += 1;
            }
        }
        installed
    }

    /// The current bracket of one subscription.
    pub fn bracket(&self, id: SubscriptionId) -> Option<StandingBracket> {
        let inner = self.inner.lock();
        let slot = *inner.by_id.get(&id.0)?;
        inner.slab[slot].as_ref().map(Subscription::standing)
    }

    /// All live `(id, bracket)` pairs, sorted by id.
    pub fn brackets(&self) -> Vec<(SubscriptionId, StandingBracket)> {
        self.inner.lock().subs().map(|s| (SubscriptionId(s.id), s.standing())).collect()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Live subscription count.
    pub fn len(&self) -> usize {
        self.inner.lock().by_id.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sets the flags of `edges` in the quarantine column; the caller holds the
/// registry lock (or is still building the registry). Ids past the edge
/// space name no sensor a plan could reference, so they are ignored.
/// `Release` pairs with the `Acquire` load of every reader: a shard worker
/// that sees a flag refuses the edge from then on.
fn flag_quarantined(column: &[AtomicBool], edges: impl IntoIterator<Item = usize>) {
    for e in edges {
        if let Some(flag) = column.get(e) {
            flag.store(true, Ordering::Release);
        }
    }
}

/// The baseline fold: net live occupancy along the plan's boundary, in plan
/// order — term-for-term the [`Bracket`] fold the serving runtime's
/// aggregator performs for a snapshot query at a time past every ingested
/// event. Trusted edges report their net inward count; quarantined edges are
/// unknown up to their lifetime totals, intersected with a certificate when
/// one is installed.
fn fold_bracket(
    plan: &QueryPlan,
    mirror: &Mirror,
    totals: &[[AtomicU64; 2]],
    quarantined: &[AtomicBool],
) -> Bracket {
    let mut bracket = Bracket::default();
    for be in &plan.boundary {
        // `(forward, backward)` → `(entries, exits)` across this edge.
        let orient = |fwd: f64, bwd: f64| if be.inward_forward { (fwd, bwd) } else { (bwd, fwd) };
        if !quarantined[be.edge].load(Ordering::Acquire) {
            let [fwd, bwd] = mirror.counts[be.edge];
            let (entries, exits) = orient(fwd as f64, bwd as f64);
            bracket.add_exact(entries - exits);
            continue;
        }
        let fwd = totals[be.edge][0].load(Ordering::Relaxed) as f64;
        let bwd = totals[be.edge][1].load(Ordering::Relaxed) as f64;
        let (entries, exits) = orient(fwd, bwd);
        match mirror.certs.get(&be.edge) {
            None => bracket.add_unknown(entries, exits),
            Some(cert) => {
                // Certified net forward flow at certify time, oriented
                // inward and widened by the events since (an entry raises
                // the net by ≤ 1, an exit lowers it by ≤ 1). Both endpoints
                // then move in lockstep with the worst case, so
                // `Bracket::widen` stays bitwise exact for certified edges.
                let (lo, hi) =
                    if be.inward_forward { (cert.lo, cert.hi) } else { (-cert.hi, -cert.lo) };
                let (in_since, out_since) =
                    orient(fwd - cert.base[0] as f64, bwd - cert.base[1] as f64);
                bracket.add_certified(entries, exits, lo - out_since, hi + in_since);
            }
        }
    }
    bracket
}

#[cfg(test)]
mod tests {
    use stq_core::prelude::{Scenario, ScenarioConfig, WorkloadMix};

    use super::*;

    #[test]
    fn quarantine_ids_past_the_edge_space_are_ignored() {
        let store = FormStore::new(4);
        let registry =
            SubscriptionRegistry::new(Arc::new(QueryEngine::new(4)), &store, [1, 4, usize::MAX]);
        let flagged = |r: &SubscriptionRegistry| -> Vec<usize> {
            (0..4).filter(|&e| r.quarantined()[e].load(Ordering::Acquire)).collect()
        };
        assert_eq!(registry.quarantined().len(), 4);
        assert_eq!(flagged(&registry), [1], "in-range id is quarantined, others stay trusted");
        assert!(registry.advance_epoch([3, 4, 1 << 40]).is_empty());
        assert_eq!(flagged(&registry), [1, 3], "in-range extension is absorbed");
        // Ingest on every edge still indexes inside the bitmap.
        for edge in 0..4 {
            registry.on_ingest_batch(&[Crossing { time: 1.0, edge, forward: true }]);
        }
        assert_eq!(registry.epoch(), 1);
    }

    /// Four writers race `on_ingest_batch` over the same sixteen edges: six
    /// that subscriptions listen on, four more that they listen on and that
    /// are quarantined, and six that no subscription listens on. Every edge direction is first primed to a
    /// watermark of its own, so whether an event is late does not depend on
    /// the interleaving: one at the watermark is accepted, one behind it is
    /// late. A writer's totals add is a plain load and store, exact only
    /// because the registry lock is held around it.
    #[test]
    fn concurrent_writers_keep_totals_mirror_and_brackets_exact() {
        let seed: u64 =
            std::env::var("STQ_STANDING_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(11);
        let s = Scenario::build(ScenarioConfig {
            junctions: 140,
            mix: WorkloadMix { random_waypoint: 8, commuter: 6, transit: 3 },
            seed,
            ..Default::default()
        });
        let sampled = SampledGraph::unsampled(&s.sensing);
        let store = &s.tracked.store;
        let registry = SubscriptionRegistry::new(Arc::new(QueryEngine::new(64)), store, []);
        for (region, _, _) in s.make_queries(6, 0.15, 1_500.0, seed) {
            let _ = registry.subscribe(&s.sensing, &sampled, &region, Approximation::Lower, None);
        }
        let (routed, unrouted): (Vec<usize>, Vec<usize>) = {
            let inner = registry.inner.lock();
            (0..store.num_edges()).partition(|&e| !inner.routes[e].is_empty())
        };
        assert!(routed.len() >= 10 && unrouted.len() >= 6, "fixture too small");
        let edges: Vec<usize> = routed[..10].iter().chain(&unrouted[..6]).copied().collect();
        registry.advance_epoch(edges[6..10].iter().copied());

        let watermark = |e: usize| 1.0e9 + e as f64;
        let prime: Vec<Crossing> = edges
            .iter()
            .flat_map(|&edge| [true, false].map(|forward| (edge, forward)))
            .map(|(edge, forward)| Crossing { time: watermark(edge), edge, forward })
            .collect();
        assert_eq!(registry.on_ingest_batch(&prime).late, 0);
        let totals = |r: &SubscriptionRegistry| -> Vec<[u64; 2]> {
            r.totals().iter().map(|[f, b]| [f, b].map(|d| d.load(Ordering::Relaxed))).collect()
        };
        let (totals_before, counts_before) =
            (totals(&registry), registry.inner.lock().mirror.counts.clone());

        // Writer `w`'s `b`-th batch, 1 to 64 events long; every seventh event
        // is late. Short batches keep the writers taking the lock in turns.
        let batch = |w: usize, b: usize| -> Vec<Crossing> {
            (0..1 + (7 * b + w) % 64)
                .map(|j| {
                    let edge = edges[(w + 3 * j + b) % edges.len()];
                    let late = (j + b) % 7 == 3;
                    let time = watermark(edge) - if late { 1.0 } else { 0.0 };
                    Crossing { time, edge, forward: (j + w + b) % 2 == 0 }
                })
                .collect()
        };
        let (writers, batches) = (4, 20_000);
        let start = std::sync::Barrier::new(writers);
        std::thread::scope(|s| {
            for w in 0..writers {
                let (registry, batch, start) = (&registry, &batch, &start);
                s.spawn(move || {
                    start.wait();
                    for b in 0..batches {
                        registry.on_ingest_batch(&batch(w, b));
                    }
                });
            }
        });

        let (mut sent, mut accepted) = (totals_before, counts_before);
        for c in (0..writers).flat_map(|w| (0..batches).flat_map(move |b| batch(w, b))) {
            let dir = usize::from(!c.forward);
            sent[c.edge][dir] += 1;
            if c.time == watermark(c.edge) {
                accepted[c.edge][dir] += 1;
            }
        }
        assert_eq!(totals(&registry), sent, "a total lost or gained an event");
        assert_eq!(registry.inner.lock().mirror.counts, accepted, "a mirror count is off");
        let live = registry.brackets();
        assert!(live.iter().any(|(_, b)| b.deltas > 0) && live.iter().any(|(_, b)| !b.is_exact()));
        let again = registry.advance_epoch([]);
        assert_eq!(live.len(), again.len());
        for ((id, b), update) in live.iter().zip(&again) {
            assert_eq!(*id, update.subscription);
            let bits = |b: &StandingBracket| [b.value, b.lower, b.upper].map(f64::to_bits);
            assert_eq!(bits(b), bits(&update.bracket), "{id}: {b:?} vs {:?}", update.bracket);
        }
    }
}
