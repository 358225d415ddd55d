//! The fan-out / retry / breaker loop: one query's boundary edges out to
//! their owning shards and the per-edge contributions back, attempt by
//! attempt, until everything reported or the budget ran out. Also the
//! degraded ladder's one request to every shard ([`live_counts`]).
//!
//! ## What a dispatcher owns between queries
//!
//! Each dispatcher thread keeps one [`Dispatcher`] for its lifetime and
//! hands it down `serve` → `answer` → [`fan_out`] by `&mut`; nothing in it
//! is shared, so nothing in it is locked. A warm query — its plan a cache
//! hit, its groups a table hit — allocates nothing on this thread.
//!
//! - **The groups table.** Which shard owns which boundary edge is a pure
//!   function of (plan, shard-map epoch), so the per-shard grouping of a
//!   plan's full boundary is built once, as one `Arc<[(position, edge)]>`
//!   per shard, and kept in a direct-mapped table of `plan_cache` slots
//!   indexed by [`PlanId`](stq_core::engine::PlanId) (a collision
//!   overwrites; `plan_cache == 0` builds per query). The dispatcher
//!   validates a slot itself, on every use: it must have been built from
//!   this very plan allocation (`Weak` pointer identity — a recompile after
//!   `QueryEngine::invalidate` is a new allocation and misses, and a `Weak`
//!   keeps the address from being reused without keeping the plan alive)
//!   and under the current `ShardMap::epoch()`. The epoch is read *before*
//!   the edges are routed and `ShardMap::commit` bumps it *after* storing
//!   the new owners, so groups that straddle a migration carry the older
//!   epoch and miss next time. Stale groups would still be sound — a worker
//!   that no longer owns an edge reports it `moved` and the edge re-enters
//!   keyed by its current owner — they are just never the normal case. A
//!   request carries its group by `Arc`: no copy per shard, none per retry.
//! - **One reply channel.** Every request of every query this dispatcher
//!   sends is answered on the same bounded channel, so a response can
//!   outlive its query. [`ShardResponse::query_id`] names the query;
//!   `collect` drops any other, and `fan_out` drains the channel before its
//!   first send (nothing of this dispatcher's is in flight then, so all of
//!   it is stale). `ServerState::resp_capacity` says what the bound buys.
//! - **Scratch.** `slots`, `pending` and `awaiting` are indexed by boundary
//!   position or by shard and cleared per query, not reallocated; shards are
//!   asked in ascending index order on every attempt.

use std::cell::Cell;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use stq_core::engine::QueryPlan;
use stq_core::query::QueryKind;
use stq_forms::{BoundaryEdge, CountSource, Time};

use crate::metrics::Metrics;
use crate::overload::{stride_for, Gate, Transition};
use crate::server::QuerySpec;
use crate::shard::{EdgeCounts, InstantCounts, ShardMsg, ShardRequest, ShardResponse};
use crate::state::ServerState;

/// How often a waiting aggregator re-checks shard health, so a worker dying
/// mid-attempt shortens the wait to one slice instead of the full timeout.
const HEALTH_RECHECK: Duration = Duration::from_millis(5);

/// Most slots a groups table gets: `plan_cache` is the caller's number, and
/// a "never evict" `usize::MAX` must not reserve memory.
const GROUP_SLOTS_MAX: usize = 1 << 16;

/// One shard's share of a boundary: the edges it owns, each tagged with its
/// position in the chain so the aggregate fold preserves term order,
/// ascending by position.
pub(crate) type Group = Arc<[(usize, BoundaryEdge)]>;

/// A plan's full boundary grouped by owning shard — one groups-table slot.
struct Groups {
    /// The plan allocation the groups were built from (an empty slot's
    /// dangles, which no plan's address equals).
    plan: Weak<QueryPlan>,
    /// The shard-map epoch they were built under.
    epoch: u64,
    by_shard: Vec<Group>,
}

/// What one dispatcher thread keeps from query to query (module docs).
pub(crate) struct Dispatcher {
    groups: Vec<Groups>,
    /// The group of every shard that owns none of a boundary.
    empty: Group,
    /// Per shard, where a plan's edges are gathered before each group is
    /// allocated at its exact size.
    gather: Vec<Vec<(usize, BoundaryEdge)>>,
    /// Boundary edges still unanswered, by owning shard.
    pending: Vec<Group>,
    /// Shards asked on the current attempt that have not answered yet.
    awaiting: Vec<bool>,
    /// Per boundary position, the owning shard's contribution.
    slots: Vec<Option<EdgeCounts>>,
    /// The shards' end of the reply channel, cloned into every request, and
    /// this end.
    reply: Sender<ShardResponse>,
    replies: Receiver<ShardResponse>,
}

impl Dispatcher {
    pub(crate) fn new(st: &ServerState) -> Self {
        let ns = st.to_shards.len();
        let (reply, replies) = channel::bounded(st.resp_capacity.max(1));
        let empty: Group = Arc::new([]);
        Dispatcher {
            groups: (0..st.cfg.plan_cache.min(GROUP_SLOTS_MAX))
                .map(|_| Groups { plan: Weak::new(), epoch: 0, by_shard: Vec::new() })
                .collect(),
            gather: vec![Vec::new(); ns],
            pending: vec![Arc::clone(&empty); ns],
            empty,
            awaiting: vec![false; ns],
            slots: Vec::new(),
            reply,
            replies,
        }
    }

    /// Resets `pending` to `plan`'s boundary, grouped by owning shard, at
    /// brownout `stride` (every `stride`-th position; 0 = none).
    fn route(&mut self, st: &ServerState, plan: &Arc<QueryPlan>, stride: usize) {
        let map = &st.shared.map;
        let epoch = map.epoch(); // before any `shard_of`: see the module docs
        let slot = match self.groups.len() {
            0 => None,
            n => Some(plan.id.0 as usize % n),
        };
        let cached = slot
            .map(|s| &self.groups[s])
            .filter(|g| g.epoch == epoch && std::ptr::eq(g.plan.as_ptr(), Arc::as_ptr(plan)));
        if let Some(g) = cached {
            self.pending.clone_from(&g.by_shard);
        } else {
            self.gather.iter_mut().for_each(Vec::clear);
            for (idx, &be) in plan.boundary.iter().enumerate() {
                self.gather[map.shard_of(be.edge)].push((idx, be));
            }
            for (group, edges) in self.pending.iter_mut().zip(&self.gather) {
                *group = if edges.is_empty() { Arc::clone(&self.empty) } else { edges[..].into() };
            }
            if let Some(s) = slot {
                // A collision overwrites, reusing the slot's vector.
                let g = &mut self.groups[s];
                (g.plan, g.epoch) = (Arc::downgrade(plan), epoch);
                g.by_shard.clone_from(&self.pending);
            }
        }
        // Only the full-precision groups are kept; a brownout stride keeps
        // of each the positions `QueryPlan::shed_boundary` keeps.
        match stride {
            1 => {}
            0 => self.pending.fill(Arc::clone(&self.empty)),
            _ => {
                for group in self.pending.iter_mut().filter(|g| !g.is_empty()) {
                    *group = group.iter().filter(|(idx, _)| idx % stride == 0).copied().collect();
                }
            }
        }
    }
}

/// What the fan-out brought back for the aggregator to fold.
pub(crate) struct Collected<'d> {
    /// Per boundary position, the owning shard's contribution — `None` for
    /// every edge that never reported (silent, skipped, refused or shed).
    pub slots: &'d [Option<EdgeCounts>],
    /// Boundary edges a shard refused because they are quarantined.
    pub refused: usize,
    /// Shards the query fanned out to.
    pub fanout: usize,
    /// Retry rounds that were needed.
    pub retries: u32,
    /// The query's deadline elapsed between attempts.
    pub expired: bool,
}

/// Maps a breaker transition onto its metric counter.
fn record_transition(st: &ServerState, tr: Option<Transition>) {
    let m = &st.shared.metrics;
    match tr {
        Some(Transition::Opened) => Metrics::bump(&m.breaker_opened),
        Some(Transition::HalfOpened) => Metrics::bump(&m.breaker_half_open),
        Some(Transition::Closed) => Metrics::bump(&m.breaker_closed),
        None => {}
    }
}

/// When attempt `attempt`'s window closes: attempt k waits 2^k × the base
/// window (exponential backoff), clamped to the query deadline, which no
/// attempt may overshoot. `None` waits for the shards alone. Both factors
/// are the caller's numbers (`RuntimeConfig::shard_timeout`, `max_retries`),
/// so every step saturates: a window too long to express is the deadline's,
/// or nobody's.
fn window_end(st: &ServerState, deadline: Option<Instant>, attempt: u32) -> Option<Instant> {
    let window = st.cfg.shard_timeout.checked_mul(1 << attempt.min(31));
    let end = window.and_then(|w| Instant::now().checked_add(w));
    match (end, deadline) {
        (Some(end), Some(dl)) => Some(end.min(dl)),
        (end, dl) => end.or(dl),
    }
}

/// One query's fan-out in flight.
struct Fanout<'a, 'd> {
    st: &'a ServerState,
    id: u64,
    spec: &'a QuerySpec,
    d: &'d mut Dispatcher,
    refused: usize,
    retries: u32,
    expired: bool,
}

/// Fans `plan`'s boundary out at brownout precision `level` and collects
/// what the shards return within the retry budget and the query deadline.
///
/// Level 0 serves every edge; higher levels serve every 2nd / 4th / no edge
/// — the skipped ones fall to the same worst-case-totals degradation as
/// silent shards, so the answer is cheaper and wider but still sound.
pub(crate) fn fan_out<'d>(
    st: &ServerState,
    d: &'d mut Dispatcher,
    id: u64,
    spec: &QuerySpec,
    plan: &Arc<QueryPlan>,
    level: u8,
) -> Collected<'d> {
    d.route(st, plan, stride_for(level));
    d.slots.clear();
    d.slots.resize(plan.boundary.len(), None);
    // Nothing of this dispatcher's is in flight, so whatever is queued
    // answers a query it has already given up on.
    while d.replies.try_recv().is_ok() {}
    let fanout = d.pending.iter().filter(|edges| !edges.is_empty()).count();
    let mut q = Fanout { st, id, spec, d, refused: 0, retries: 0, expired: false };
    for attempt in 0..=st.cfg.max_retries {
        // Deadline short-circuit at the fan-out hop: no further attempts
        // once the budget is gone — whatever already reported is folded,
        // the rest degrades.
        if spec.deadline.is_some_and(|dl| Instant::now() >= dl) {
            q.expired = true;
            break;
        }
        let waited = q.send(attempt);
        q.collect(attempt);
        if q.d.pending.iter().all(|edges| edges.is_empty()) {
            break;
        }
        if waited {
            Metrics::bump(&st.shared.metrics.timeouts);
        }
        if attempt < st.cfg.max_retries {
            q.retries += 1;
            Metrics::bump(&st.shared.metrics.retries);
        }
    }
    let Fanout { d, refused, retries, expired, .. } = q;
    Collected { slots: &d.slots, refused, fanout, retries, expired }
}

impl Fanout<'_, '_> {
    /// Sends this attempt's requests, in ascending shard order. Unhealthy /
    /// recovering shards are skipped outright: their edges degrade to
    /// worst-case bounds instead of stalling the query, and a shard that
    /// finishes recovery before a later attempt rejoins then. Open circuit
    /// breakers skip the same way (no retry storm against a
    /// repeatedly-silent shard), except for the one half-open probe.
    /// Returns whether any shard was asked.
    fn send(&mut self, attempt: u32) -> bool {
        let st = self.st;
        let d = &mut *self.d;
        let metrics = &st.shared.metrics;
        d.awaiting.fill(false);
        let mut skipped_unhealthy = 0u64;
        for (shard, edges) in d.pending.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
            if !st.shared.healthy(shard) {
                skipped_unhealthy += 1;
                continue;
            }
            let (gate, tr) = match st.overload.as_ref() {
                Some(ov) => ov.breakers.admit(shard),
                None => (Gate::Allow, None),
            };
            record_transition(st, tr);
            if matches!(gate, Gate::Skip) {
                Metrics::bump(&metrics.breaker_skipped);
                continue;
            }
            d.awaiting[shard] = true;
            Metrics::bump(&metrics.shard_requests);
            let _ = st.to_shards[shard].send(ShardMsg::Query(ShardRequest {
                query_id: self.id,
                attempt,
                kind: self.spec.kind,
                edges: Arc::clone(edges),
                deadline: self.spec.deadline,
                reply: d.reply.clone(),
            }));
        }
        if skipped_unhealthy > 0 {
            Metrics::add(&metrics.skipped_unhealthy, skipped_unhealthy);
        }
        d.awaiting.contains(&true)
    }

    /// Waits out this attempt's window for the awaited shards, then charges
    /// the breakers of those that stayed silent.
    fn collect(&mut self, attempt: u32) {
        let st = self.st;
        let end = window_end(st, self.spec.deadline, attempt);
        while self.d.awaiting.contains(&true) {
            let now = Instant::now();
            if end.is_some_and(|end| now >= end) {
                break;
            }
            // Wait in short slices so a worker dying mid-attempt (health
            // flips away from Healthy) releases the query after one slice
            // instead of the full backoff window.
            let slice = end.map_or(HEALTH_RECHECK, |end| (end - now).min(HEALTH_RECHECK));
            match self.d.replies.recv_timeout(slice) {
                // The channel outlives a query: this answers an earlier one.
                Ok(resp) if resp.query_id != self.id => {}
                // A panicked shard answered with nothing: it is no longer
                // awaited, and its edges stay pending for the next attempt.
                Ok(resp) if resp.panicked => self.d.awaiting[resp.shard] = false,
                Ok(resp) => self.accept(resp),
                Err(_) => {
                    for (shard, awaited) in self.d.awaiting.iter_mut().enumerate() {
                        *awaited &= st.shared.healthy(shard);
                    }
                }
            }
        }
        // Breaker bookkeeping: a shard that stayed silent through its
        // attempt window counts one failure. Panicked workers answered and
        // are no longer awaited, nor are workers the health check removed
        // mid-wait.
        if let Some(ov) = st.overload.as_ref() {
            for shard in 0..self.d.awaiting.len() {
                if self.d.awaiting[shard] {
                    record_transition(st, ov.breakers.failure(shard));
                }
            }
        }
    }

    /// Takes one shard's answer. First response per shard wins; duplicates
    /// and answers from superseded attempts are ignored.
    fn accept(&mut self, resp: ShardResponse) {
        let d = &mut *self.d;
        if d.pending[resp.shard].is_empty() {
            return;
        }
        d.pending[resp.shard] = Arc::clone(&d.empty);
        d.awaiting[resp.shard] = false;
        self.refused += resp.refused.len();
        for c in resp.counts {
            d.slots[c.idx] = Some(c);
        }
        // Edges a migration moved away from the responding shard mid-query
        // re-enter the fan-out keyed by their current owner; a later
        // attempt serves them there (or they degrade soundly at
        // exhaustion). Rare enough to pay for a fresh slice each.
        for moved in resp.moved {
            let owner = &mut d.pending[self.st.shared.map.shard_of(moved.1.edge)];
            *owner = owner.iter().copied().chain([moved]).collect();
        }
        if let Some(ov) = self.st.overload.as_ref() {
            record_transition(self.st, ov.breakers.success(resp.shard));
        }
    }
}

/// The counts the degraded ladder answers over: every edge a shard serves,
/// at the one or two instants of a query of `kind`. An edge or instant the
/// table does not hold reads as 0 and marks the table `missed`; an answer
/// computed from such a read certifies nothing.
pub(crate) struct LiveCounts {
    at: [Time; 2],
    /// Per edge, `None` when no shard reported it.
    table: Vec<Option<InstantCounts>>,
    missed: Cell<bool>,
}

impl LiveCounts {
    /// Whether anything read a count the table does not hold.
    pub(crate) fn missed(&self) -> bool {
        self.missed.get()
    }
}

impl CountSource for LiveCounts {
    fn count_until(&self, edge: usize, forward: bool, t: Time) -> f64 {
        let instant = self.at.iter().position(|&at| at == t);
        match (instant, self.table.get(edge).copied().flatten()) {
            (Some(i), Some(counts)) => counts[i][usize::from(!forward)],
            _ => {
                self.missed.set(true);
                0.0
            }
        }
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(&self.table[..])
    }
}

/// Asks every shard for its counts at `kind`'s instants. Every lane lock is
/// held, ascending (the supervisor's order), while the requests go out; an
/// ingest sends under its lanes' locks, so the replies form one cut of the
/// ingest stream. Waits one attempt window, clamped to `deadline`. `None`
/// when a shard is not `Healthy` or does not answer in time.
pub(crate) fn live_counts(
    st: &ServerState,
    kind: QueryKind,
    deadline: Option<Instant>,
) -> Option<LiveCounts> {
    let at = match kind {
        QueryKind::Snapshot(t) => [t, t],
        QueryKind::Transient(t0, t1) | QueryKind::Static(t0, t1) => [t0, t1],
    };
    let shards = 0..st.to_shards.len();
    let all_healthy = || shards.clone().all(|shard| st.shared.healthy(shard));
    let (reply, replies) = channel::bounded(shards.len());
    {
        let _cut: Vec<_> = st.shared.lanes.iter().map(|lane| lane.lock()).collect();
        if !all_healthy() {
            return None;
        }
        for to in &st.to_shards {
            let _ = to.send(ShardMsg::Counts { at, reply: reply.clone() });
        }
    }
    let end = window_end(st, deadline, 0);
    let mut table = vec![None; st.shared.subs.totals().len()];
    for _ in shards.clone() {
        // In slices, like `Fanout::collect`: a shard that leaves `Healthy`
        // ends the wait.
        let rows = loop {
            let now = Instant::now();
            if end.is_some_and(|end| now >= end) {
                return None;
            }
            let slice = end.map_or(HEALTH_RECHECK, |end| (end - now).min(HEALTH_RECHECK));
            match replies.recv_timeout(slice) {
                Ok(rows) => break rows,
                Err(_) if !all_healthy() => return None,
                Err(_) => {}
            }
        };
        // An id past the edge space (read from a damaged disk) names no
        // sensor a plan could reference.
        for (edge, counts) in rows {
            if let Some(slot) = table.get_mut(edge) {
                *slot = Some(counts);
            }
        }
    }
    Some(LiveCounts { at, table, missed: Cell::new(false) })
}

#[cfg(test)]
mod tests {
    use stq_core::prelude::*;

    use super::*;
    use crate::server::RuntimeConfig;
    use crate::state::Shared;

    /// A five-shard server state over a small deployment in which one
    /// channel stands in for every shard and nobody answers, so the order the
    /// requests were sent in is observable — plus queries to fan out.
    fn silent_shards(
        cfg: RuntimeConfig,
    ) -> (ServerState, Receiver<ShardMsg>, Vec<(QueryRegion, f64, f64)>) {
        let scenario = Scenario::build(ScenarioConfig {
            junctions: 160,
            mix: WorkloadMix { random_waypoint: 10, commuter: 6, transit: 4 },
            seed: 19,
            ..Default::default()
        });
        let cands = scenario.sensing.sensor_candidates();
        let ids = stq_sampling::sample(
            stq_sampling::SamplingMethod::QuadTree,
            &cands,
            cands.len() / 3,
            7,
        );
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let sampled =
            SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
        let cfg = RuntimeConfig { num_shards: 5, ..cfg };
        let store = &scenario.tracked.store;
        let shared = Arc::new(Shared::new(store, &cfg, &[]));
        let (tx, rx) = channel::unbounded();
        let to_shards = vec![tx; cfg.num_shards];
        let sensing = scenario.sensing.clone();
        let st = ServerState::new(shared, sensing, sampled, store, cfg, &[], to_shards);
        (st, rx, scenario.make_queries(12, 0.25, 1_500.0, 3))
    }

    fn compile(st: &ServerState, spec: &QuerySpec) -> Arc<QueryPlan> {
        Arc::new(QueryPlan::compile(&st.sensing, &st.sampled, &spec.region, spec.approx))
    }

    #[test]
    fn healthy_shards_are_asked_in_ascending_order() {
        let (st, rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: Duration::from_millis(1),
            max_retries: 0,
            ..RuntimeConfig::default()
        });
        let mut d = Dispatcher::new(&st);
        let mut widest = 0;
        for (region, t0, _) in queries {
            let spec = QuerySpec::new(region, QueryKind::Snapshot(t0), Approximation::Lower);
            let fanout = fan_out(&st, &mut d, 0, &spec, &compile(&st, &spec), 0).fanout;
            let mut asked = Vec::new();
            while let Ok(ShardMsg::Query(req)) = rx.try_recv() {
                let owners: Vec<usize> =
                    req.edges.iter().map(|(_, be)| st.shared.map.shard_of(be.edge)).collect();
                assert!(owners.windows(2).all(|w| w[0] == w[1]), "one owner per request");
                asked.push(owners[0]);
            }
            assert_eq!(asked.len(), fanout);
            assert!(asked.windows(2).all(|w| w[0] < w[1]), "not ascending: {asked:?}");
            widest = widest.max(asked.len());
        }
        assert!(widest >= 3, "some query must fan out to several shards");
    }

    /// What `route` left pending, back in boundary order, having checked that
    /// each group is ascending and holds only its own shard's edges.
    fn routed(st: &ServerState, d: &Dispatcher) -> Vec<(usize, BoundaryEdge)> {
        for (shard, group) in d.pending.iter().enumerate() {
            assert!(group.windows(2).all(|w| w[0].0 < w[1].0), "group not ascending");
            assert!(group.iter().all(|(_, be)| st.shared.map.shard_of(be.edge) == shard));
        }
        let mut all: Vec<_> = d.pending.iter().flat_map(|group| group.iter().copied()).collect();
        all.sort_unstable_by_key(|&(idx, _)| idx);
        all
    }

    fn same_allocations(a: &[Group], b: &[Group]) -> bool {
        a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b))
    }

    #[test]
    fn groups_are_kept_per_plan_allocation_and_map_epoch() {
        let (st, _rx, queries) = silent_shards(RuntimeConfig::default());
        let mut d = Dispatcher::new(&st);
        for (region, t0, _) in queries {
            let spec = QuerySpec::new(region, QueryKind::Snapshot(t0), Approximation::Lower);
            let plan = compile(&st, &spec);
            if plan.boundary.len() < 2 {
                continue;
            }
            // Built once, then the very same slices at every precision: a
            // stride keeps of them what `shed_boundary` keeps of the chain.
            d.route(&st, &plan, 1);
            let built = d.pending.clone();
            for level in 0..=crate::overload::MAX_BROWNOUT_LEVEL {
                let stride = stride_for(level);
                d.route(&st, &plan, stride);
                assert_eq!(routed(&st, &d), plan.shed_boundary(stride), "stride {stride}");
                assert_eq!(same_allocations(&built, &d.pending), stride == 1);
            }
            // The same region compiled again — what `QueryEngine::invalidate`
            // leads to — has the same `PlanId` and misses all the same.
            let again = compile(&st, &spec);
            assert_eq!(again.id, plan.id);
            d.route(&st, &again, 1);
            assert_eq!(routed(&st, &d), plan.shed_boundary(1));
            assert!(!d.pending.iter().zip(&built).any(|(a, b)| !a.is_empty() && Arc::ptr_eq(a, b)));
            // A committed migration bumps the epoch: the groups follow the map.
            let moved = again.boundary[0].edge;
            let from = st.shared.map.shard_of(moved);
            let to = (from + 1) % st.to_shards.len();
            let before = d.pending[to].len();
            st.shared.map.commit(&[crate::shardmap::Migration { edge: moved, from, to }]);
            d.route(&st, &again, 1);
            assert_eq!(routed(&st, &d), plan.shed_boundary(1));
            assert_eq!(d.pending[to].len(), before + 1);
        }
    }

    /// The first query of `queries` that reaches a shard, fanned out once.
    fn fan_out_one(
        st: &ServerState,
        queries: Vec<(QueryRegion, f64, f64)>,
        budget: Option<Duration>,
    ) -> (usize, u32, bool) {
        let mut d = Dispatcher::new(st);
        for (region, t0, _) in queries {
            let mut spec = QuerySpec::new(region, QueryKind::Snapshot(t0), Approximation::Lower);
            let plan = compile(st, &spec);
            if plan.boundary.is_empty() {
                continue;
            }
            if let Some(budget) = budget {
                spec = spec.with_budget(budget);
            }
            let got = fan_out(st, &mut d, 0, &spec, &plan, 0);
            assert!(got.slots.iter().all(Option::is_none), "nobody answers");
            return (got.fanout, got.retries, got.expired);
        }
        panic!("no query with a boundary");
    }

    #[test]
    fn more_retries_than_a_shift_has_bits_all_run() {
        let (st, rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: Duration::ZERO,
            max_retries: 40,
            ..RuntimeConfig::default()
        });
        let (fanout, retries, expired) = fan_out_one(&st, queries, None);
        assert_eq!((retries, expired), (40, false));
        assert_eq!(rx.len(), 41 * fanout, "every shard asked on each of the 41 attempts");
    }

    #[test]
    fn an_endless_shard_timeout_still_ends_at_the_query_deadline() {
        let (st, _rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: Duration::MAX,
            max_retries: 1,
            ..RuntimeConfig::default()
        });
        let (_, retries, expired) = fan_out_one(&st, queries, Some(Duration::from_millis(1)));
        assert_eq!(retries, 1, "the first attempt's window closed at the deadline");
        assert!(expired, "and the second was not made");
    }

    #[test]
    fn a_panicked_reply_ends_the_wait_before_the_good_ones() {
        // The window is long enough that waiting it out shows.
        let window = Duration::from_millis(1_500);
        let (st, rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: window,
            max_retries: 0,
            ..RuntimeConfig::default()
        });
        let mut d = Dispatcher::new(&st);
        let (spec, plan, asked) = queries
            .into_iter()
            .find_map(|(region, t0, _)| {
                let spec = QuerySpec::new(region, QueryKind::Snapshot(t0), Approximation::Lower);
                let plan = compile(&st, &spec);
                d.route(&st, &plan, 1);
                let asked = d.pending.iter().filter(|edges| !edges.is_empty()).count();
                (asked >= 2).then_some((spec, plan, asked))
            })
            .expect("some query fans out to several shards");
        let start = Instant::now();
        let panicked = std::thread::scope(|s| {
            // The first shard asked panics; every other answers after it.
            let answerer = s.spawn(|| {
                let requests: Vec<ShardRequest> = (0..asked)
                    .map(|_| match rx.recv() {
                        Ok(ShardMsg::Query(req)) => req,
                        _ => panic!("a query request"),
                    })
                    .collect();
                let shard_of = |req: &ShardRequest| st.shared.map.shard_of(req.edges[0].1.edge);
                for (i, req) in requests.iter().enumerate() {
                    let _ = req.reply.send(ShardResponse {
                        query_id: req.query_id,
                        shard: shard_of(req),
                        counts: Vec::new(),
                        refused: Vec::new(),
                        moved: Vec::new(),
                        panicked: i == 0,
                    });
                }
                shard_of(&requests[0])
            });
            fan_out(&st, &mut d, 0, &spec, &plan, 0);
            answerer.join().unwrap()
        });
        let took = start.elapsed();
        assert!(took < window / 3, "the attempt waited {took:?} on a shard that had answered");
        let left: Vec<usize> = (0..d.pending.len()).filter(|&s| !d.pending[s].is_empty()).collect();
        assert_eq!(left, [panicked], "only the panicked shard's edges stay pending");
    }
}
