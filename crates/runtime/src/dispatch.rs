//! The fan-out / retry / breaker loop: a batch of queries' boundary edges
//! out to their owning shards and the per-edge contributions back, attempt
//! by attempt, until each query's edges all reported or its budget ran out.
//! Also the degraded ladder's one request to every shard ([`live_counts`]).
//!
//! ## The core and the loop
//!
//! What a query's fan-out has asked, awaits and settled is
//! [`crate::flight`]'s state machine: no clock, no channel, no
//! [`ServerState`]. [`fan_out`] is the one loop around it. It feeds the
//! batch's flights the time, each reply (with the current owner of any edge
//! reported moved) and, when a wait times out, the health verdicts, and it
//! carries out what they emit: sends, breaker calls, metric bumps, answers.
//! The core being pure, its tests walk every order replies can arrive in.
//!
//! ## What a dispatcher owns between batches
//!
//! Each dispatcher thread keeps one [`Dispatcher`] for its lifetime and
//! hands it down `answer_batch` → [`fan_out`] by `&mut`; nothing in it is
//! shared, so nothing in it is locked. A batch is the job the thread woke
//! for plus every job already queued behind it (at most `queue_capacity`):
//! one round per attempt, queries in batch order, each answered as soon as
//! nothing more can come for it. A warm batch — its plans cache hits, its
//! groups table hits — allocates nothing on this thread.
//!
//! - **The groups table.** Which shard owns which boundary edge is a pure
//!   function of (plan, shard-map epoch), so the per-shard grouping of a
//!   plan's full boundary is built once, as one `Arc<[(position, edge)]>`
//!   per shard, and kept in a direct-mapped table of `plan_cache` slots
//!   indexed by [`PlanId`](stq_core::engine::PlanId) (a collision
//!   overwrites; `plan_cache == 0` builds per query). A slot is valid for
//!   the very plan allocation it was built from (`Weak` pointer identity: a
//!   recompile after the plan's LRU eviction misses, and no plan is kept
//!   alive) under the current `ShardMap::epoch()`, read *before* the edges
//!   are routed — `ShardMap::commit` bumps it *after* storing the owners, so
//!   groups that straddle a migration miss next time. Stale groups would
//!   still be sound: a worker reports an edge it no longer owns `moved`.
//! - **One reply channel.** Every request this dispatcher sends is answered
//!   on the same bounded channel, so a response can outlive its query:
//!   [`ShardResponse::query_id`] and `attempt` name the query and request it
//!   answers, a response naming no query of the batch is dropped, and the
//!   channel is drained before a batch's first send.
//!   `ServerState::resp_capacity` says what the bound buys.
//! - **The flight pool.** One [`Flight`] per query of the batch, reused from
//!   batch to batch: the pool grows only for a batch larger than any before
//!   it, and every flight keeps room for the widest boundary routed, so
//!   which flight a query lands on never decides whether it allocates.

use std::cell::Cell;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use crossbeam::clock;
use stq_core::engine::QueryPlan;
use stq_core::query::QueryKind;
use stq_forms::{BoundaryEdge, CountSource, Time};

use crate::flight::{self, Flight, Next, Out};
use crate::metrics::Metrics;
use crate::overload::{stride_for, Gate, Transition};
use crate::server::QuerySpec;
use crate::shard::{InstantCounts, ShardMsg, ShardRequest, ShardResponse};
use crate::state::ServerState;

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

/// The groups table and what routing a plan needs beside it.
struct Routes {
    groups: Vec<Groups>,
    /// The group of every shard that owns none of a boundary.
    empty: Group,
    /// Per shard, where a plan's edges are gathered before each group is
    /// allocated at its exact size.
    gather: Vec<Vec<(usize, BoundaryEdge)>>,
}

/// What one dispatcher thread keeps from batch to batch (module docs).
pub(crate) struct Dispatcher {
    routes: Routes,
    /// The pool; the batch being formed or fanned out is `flights[..batch]`.
    flights: Vec<Flight>,
    batch: usize,
    /// The longest boundary enlisted so far: what every flight has room for.
    widest: usize,
    /// The shards' end of the reply channel, cloned into every request, and
    /// this end.
    reply: Sender<ShardResponse>,
    replies: Receiver<ShardResponse>,
}

impl Dispatcher {
    pub(crate) fn new(st: &ServerState) -> Self {
        let (reply, replies) = channel::bounded(st.resp_capacity.max(1));
        Dispatcher {
            routes: Routes {
                groups: (0..st.cfg.plan_cache.min(GROUP_SLOTS_MAX))
                    .map(|_| Groups { plan: Weak::new(), epoch: 0, by_shard: Vec::new() })
                    .collect(),
                empty: Arc::new([]),
                gather: vec![Vec::new(); st.to_shards.len()],
            },
            flights: Vec::new(),
            batch: 0,
            widest: 0,
            reply,
            replies,
        }
    }

    /// Adds a query to the next batch, `plan`'s boundary routed at brownout
    /// precision `level`. [`fan_out`] reports the batch's queries by the
    /// order they were enlisted in.
    ///
    /// Level 0 serves every edge; higher levels serve every 2nd / 4th / no
    /// edge — the skipped ones fall to the same worst-case-totals
    /// degradation as silent shards, so the answer is cheaper and wider but
    /// still sound.
    pub(crate) fn enlist(
        &mut self,
        st: &ServerState,
        id: u64,
        spec: &QuerySpec,
        plan: &Arc<QueryPlan>,
        level: u8,
    ) {
        let n = plan.boundary.len();
        if n > self.widest {
            self.widest = n;
            for f in &mut self.flights {
                f.make_room(n);
            }
        }
        if self.batch == self.flights.len() {
            let (ns, empty) = (st.to_shards.len(), &self.routes.empty);
            self.flights.push(Flight::new(spec.kind, ns, empty, self.widest));
        }
        let f = &mut self.flights[self.batch];
        self.batch += 1;
        self.routes.route(st, plan, stride_for(level), &mut f.pending);
        f.start(id, spec.kind, spec.deadline, n);
    }
}

impl Routes {
    /// Sets `pending` to `plan`'s boundary, grouped by owning shard, at
    /// brownout `stride` (every `stride`-th position; 0 = none).
    fn route(
        &mut self,
        st: &ServerState,
        plan: &Arc<QueryPlan>,
        stride: usize,
        pending: &mut [Group],
    ) {
        let map = &st.shared.map;
        let epoch = map.epoch(); // before any `shard_of`: see the module docs
        let slot = (!self.groups.is_empty()).then(|| plan.id.0 as usize % self.groups.len());
        let cached = slot
            .map(|s| &self.groups[s])
            .filter(|g| g.epoch == epoch && std::ptr::eq(g.plan.as_ptr(), Arc::as_ptr(plan)));
        if let Some(g) = cached {
            pending.clone_from_slice(&g.by_shard);
        } else {
            self.gather.iter_mut().for_each(Vec::clear);
            for (idx, &be) in plan.boundary.iter().enumerate() {
                self.gather[map.shard_of(be.edge)].push((idx, be));
            }
            for (group, edges) in pending.iter_mut().zip(&self.gather) {
                *group = if edges.is_empty() { Arc::clone(&self.empty) } else { edges[..].into() };
            }
            if let Some(s) = slot {
                // A collision overwrites, reusing the slot's vector.
                let g = &mut self.groups[s];
                (g.plan, g.epoch) = (Arc::downgrade(plan), epoch);
                g.by_shard.clear();
                g.by_shard.extend_from_slice(pending);
            }
        }
        // Only the full-precision groups are kept; a brownout stride keeps
        // of each the positions `QueryPlan::shed_boundary` keeps.
        match stride {
            1 => {}
            0 => pending.fill(Arc::clone(&self.empty)),
            _ => {
                for group in pending.iter_mut().filter(|g| !g.is_empty()) {
                    *group = group.iter().filter(|(idx, _)| idx % stride == 0).copied().collect();
                }
            }
        }
    }
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

/// Until when to block for a reply at `now` when the wait ends at `end`
/// (`None`: never): in 5 ms slices, so a worker that leaves `Healthy`
/// mid-wait releases its waiter after one slice instead of the full window.
fn slice(now: Instant, end: Option<Instant>) -> Instant {
    let slice = now + Duration::from_millis(5);
    end.map_or(slice, |end| end.min(slice))
}

/// The next reply on `rx`, waited for in slices until `end` (`None`: no end),
/// or `None` once `end` passes or a slice that times out finds `up` false.
pub(crate) fn recv_while_up<T>(
    rx: &Receiver<T>,
    end: Option<Instant>,
    up: impl Fn() -> bool,
) -> Option<T> {
    loop {
        let now = clock::now();
        if end.is_some_and(|end| now >= end) {
            return None;
        }
        match rx.recv_deadline(slice(now, end)) {
            Ok(reply) => return Some(reply),
            Err(RecvTimeoutError::Timeout) if up() => {}
            Err(_) => return None,
        }
    }
}

/// Fans out every query enlisted since the last batch, each within the
/// retry budget and its own deadline (module docs), and hands each query's
/// flight to `done`, with its index in the batch, as soon as nothing more
/// can come for it.
pub(crate) fn fan_out(st: &ServerState, d: &mut Dispatcher, mut done: impl FnMut(usize, &Flight)) {
    let n = std::mem::take(&mut d.batch);
    // Nothing of this dispatcher's is in flight, so whatever is queued
    // answers a query it has already given up on.
    while d.replies.try_recv().is_ok() {}
    let (batch, replies) = (&mut d.flights[..n], &d.replies);
    let owner_of = |edge| st.shared.map.shard_of(edge);
    loop {
        let now = clock::now();
        let mut out = |out: Out<'_>| carry(st, &d.reply, now, out, &mut done);
        match flight::tick(batch, now, &st.cfg, &mut out) {
            Next::Wait(end) => match replies.recv_deadline(slice(now, end)) {
                Ok(resp) => flight::reply(batch, resp, owner_of, &mut out),
                Err(_) => flight::timeout(batch, clock::now(), |s| !st.shared.healthy(s)),
            },
            Next::Done => return,
        }
    }
}

/// Carries one of the flights' outputs out at the tick's `now`; for an ask,
/// says whether the shard was asked. Shards whose worker is down are
/// skipped outright — their edges degrade to worst-case bounds, and a
/// recovered shard rejoins on a later attempt — and so are shards behind an
/// open circuit breaker (no retry storm), except for the one half-open probe.
fn carry(
    st: &ServerState,
    reply: &Sender<ShardResponse>,
    now: Instant,
    out: Out<'_>,
    done: &mut impl FnMut(usize, &Flight),
) -> bool {
    let m = &st.shared.metrics;
    let breakers = st.overload.as_ref().map(|ov| &ov.breakers);
    match out {
        Out::Ask(shard, f) => {
            if !st.shared.healthy(shard) {
                Metrics::bump(&m.skipped_unhealthy);
                return false;
            }
            let (gate, tr) = breakers.map_or((Gate::Allow, None), |b| b.admit(shard, now));
            record_transition(st, tr);
            if gate == Gate::Skip {
                Metrics::bump(&m.breaker_skipped);
                return false;
            }
            Metrics::bump(&m.shard_requests);
            let _ = st.to_shards[shard].send(ShardMsg::Query(ShardRequest {
                query_id: f.id,
                attempt: f.retries,
                kind: f.kind,
                edges: Arc::clone(&f.pending[shard]),
                deadline: f.deadline,
                reply: reply.clone(),
            }));
            return true;
        }
        Out::Answered(shard) => record_transition(st, breakers.and_then(|b| b.success(shard))),
        Out::Closed(f) => {
            f.awaited()
                .for_each(|s| record_transition(st, breakers.and_then(|b| b.failure(s, now))));
            if f.timed_out() {
                Metrics::bump(&m.timeouts);
            }
        }
        Out::Answer(i, f) => {
            Metrics::add(&m.retries, u64::from(f.retries));
            done(i, f);
        }
    }
    false
}

/// The counts the degraded ladder answers over: every edge a shard serves,
/// at the one or two instants of a query of `kind`. An edge or instant the
/// table does not hold reads as 0 and marks the table `missed`; an answer
/// computed from such a read certifies nothing.
pub(crate) struct LiveCounts {
    at: [Time; 2],
    /// Per edge, `None` when no shard reported it.
    table: Vec<Option<InstantCounts>>,
    /// Whether anything read a count the table does not hold.
    pub missed: Cell<bool>,
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
    let end = flight::window_end(clock::now(), st.cfg.shard_timeout, 0, deadline);
    let mut table = vec![None; st.shared.subs.totals().len()];
    for _ in shards.clone() {
        let rows = recv_while_up(&replies, end, all_healthy)?;
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
    use crate::shard::EdgeCounts;
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
        let sensing = scenario.sensing.clone();
        let shared = Arc::new(Shared::new(sensing, sampled, store, &cfg, &[]));
        let (tx, rx) = channel::unbounded();
        let to_shards = vec![tx; cfg.num_shards];
        let st = ServerState::new(shared, cfg, to_shards);
        (st, rx, scenario.make_queries(12, 0.25, 1_500.0, 3))
    }

    fn compile(st: &ServerState, spec: &QuerySpec) -> Arc<QueryPlan> {
        let shared = &st.shared;
        Arc::new(QueryPlan::compile(&shared.sensing, &shared.sampled, &spec.region, spec.approx))
    }

    /// `plan`'s groups at `stride`, routed as `enlist` routes them.
    fn route(
        st: &ServerState,
        d: &mut Dispatcher,
        plan: &Arc<QueryPlan>,
        stride: usize,
    ) -> Vec<Group> {
        let mut pending = vec![Arc::clone(&d.routes.empty); st.to_shards.len()];
        d.routes.route(st, plan, stride, &mut pending);
        pending
    }

    /// The shards a query of `groups` asks, in the order it asks them.
    fn shards_asked(groups: &[Group]) -> Vec<usize> {
        (0..groups.len()).filter(|&s| !groups[s].is_empty()).collect()
    }

    /// What `fan_out` handed over for one query, kept.
    struct Outcome {
        slots: Vec<Option<EdgeCounts>>,
        fanout: usize,
        retries: u32,
        expired: bool,
    }

    /// Fans `plan` out as a batch of its own.
    fn fan_out_alone(
        st: &ServerState,
        d: &mut Dispatcher,
        spec: &QuerySpec,
        plan: &Arc<QueryPlan>,
    ) -> Outcome {
        d.enlist(st, 0, spec, plan, 0);
        let mut out = None;
        fan_out(st, d, |i, got| {
            assert_eq!(i, 0);
            let (fanout, retries, expired) = (got.fanout, got.retries, got.expired);
            out = Some(Outcome { slots: got.slots.to_vec(), fanout, retries, expired });
        });
        out.expect("the query was handed over")
    }

    /// A shard's answer to `req` with a count for every edge it carries.
    fn counted(req: &ShardRequest, shard: usize) -> ShardResponse {
        ShardResponse {
            query_id: req.query_id,
            attempt: req.attempt,
            shard,
            counts: req.edges.iter().map(|&(idx, _)| EdgeCounts { idx, a: 1.0, b: 0.0 }).collect(),
            refused: Vec::new(),
            moved: Vec::new(),
            panicked: false,
        }
    }

    /// The next request the stand-in shards were sent, within `wait`.
    fn next_request(rx: &Receiver<ShardMsg>, wait: Duration) -> Option<ShardRequest> {
        match rx.recv_timeout(wait) {
            Ok(ShardMsg::Query(req)) => Some(req),
            Ok(_) => panic!("a query request"),
            Err(_) => None,
        }
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
            let fanout = fan_out_alone(&st, &mut d, &spec, &compile(&st, &spec)).fanout;
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

    /// What `route` returned, back in boundary order, having checked that
    /// each group is ascending and holds only its own shard's edges.
    fn routed(st: &ServerState, pending: &[Group]) -> Vec<(usize, BoundaryEdge)> {
        for (shard, group) in pending.iter().enumerate() {
            assert!(group.windows(2).all(|w| w[0].0 < w[1].0), "group not ascending");
            assert!(group.iter().all(|(_, be)| st.shared.map.shard_of(be.edge) == shard));
        }
        let mut all: Vec<_> = pending.iter().flat_map(|group| group.iter().copied()).collect();
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
            let built = route(&st, &mut d, &plan, 1);
            for level in 0..=crate::overload::MAX_BROWNOUT_LEVEL {
                let stride = stride_for(level);
                let pending = route(&st, &mut d, &plan, stride);
                assert_eq!(routed(&st, &pending), plan.shed_boundary(stride), "stride {stride}");
                assert_eq!(same_allocations(&built, &pending), stride == 1);
            }
            // The same region compiled again — what an LRU eviction leads
            // to — has the same `PlanId` and misses all the same.
            let again = compile(&st, &spec);
            assert_eq!(again.id, plan.id);
            let pending = route(&st, &mut d, &again, 1);
            assert_eq!(routed(&st, &pending), plan.shed_boundary(1));
            assert!(!pending.iter().zip(&built).any(|(a, b)| !a.is_empty() && Arc::ptr_eq(a, b)));
            // A committed migration bumps the epoch: the groups follow the map.
            let moved = again.boundary[0].edge;
            let from = st.shared.map.shard_of(moved);
            let to = (from + 1) % st.to_shards.len();
            let before = pending[to].len();
            st.shared.map.commit(&[crate::shardmap::Migration { edge: moved, from, to }]);
            let pending = route(&st, &mut d, &again, 1);
            assert_eq!(routed(&st, &pending), plan.shed_boundary(1));
            assert_eq!(pending[to].len(), before + 1);
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
            let got = fan_out_alone(st, &mut d, &spec, &plan);
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
        let _virtual = clock::virtual_time();
        let (st, _rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: Duration::MAX,
            max_retries: 1,
            ..RuntimeConfig::default()
        });
        let t0 = clock::now();
        let (_, retries, expired) = fan_out_one(&st, queries, Some(Duration::from_millis(1)));
        assert_eq!(retries, 1, "the first attempt's window closed at the deadline");
        assert!(expired, "and the second was not made");
        assert_eq!(clock::since(t0), Duration::from_millis(1), "the wait ended at the deadline");
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
                let asked = shards_asked(&route(&st, &mut d, &plan, 1)).len();
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
                        attempt: req.attempt,
                        shard: shard_of(req),
                        counts: Vec::new(),
                        refused: Vec::new(),
                        moved: Vec::new(),
                        panicked: i == 0,
                    });
                }
                shard_of(&requests[0])
            });
            fan_out_alone(&st, &mut d, &spec, &plan);
            answerer.join().unwrap()
        });
        let took = start.elapsed();
        assert!(took < window / 3, "the attempt waited {took:?} on a shard that had answered");
        let left = shards_asked(&d.flights[0].pending);
        assert_eq!(left, [panicked], "only the panicked shard's edges stay pending");
    }

    /// The first query of `queries` that asks two shards or more: its spec,
    /// plan and the shards it asks. Leaves the plan's groups in `d`'s table.
    fn spread_query(
        st: &ServerState,
        d: &mut Dispatcher,
        queries: Vec<(QueryRegion, f64, f64)>,
    ) -> (QuerySpec, Arc<QueryPlan>, Vec<usize>) {
        queries
            .into_iter()
            .find_map(|(region, t0, _)| {
                let spec = QuerySpec::new(region, QueryKind::Snapshot(t0), Approximation::Lower);
                let plan = compile(st, &spec);
                let shards = shards_asked(&route(st, d, &plan, 1));
                (shards.len() >= 2).then_some((spec, plan, shards))
            })
            .expect("some query fans out to several shards")
    }

    #[test]
    fn an_edge_moved_in_mid_attempt_is_asked_for_on_the_next() {
        let (st, rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: Duration::from_secs(2),
            max_retries: 1,
            ..RuntimeConfig::default()
        });
        let mut d = Dispatcher::new(&st);
        let (spec, plan, shards) = spread_query(&st, &mut d, queries);
        // Shard B's first edge is committed to shard A after the query was
        // routed: B reports it moved before A answers its own group.
        let (a, b) = (shards[0], shards[1]);
        let moved = route(&st, &mut d, &plan, 1)[b][0];
        d.enlist(&st, 0, &spec, &plan, 0);
        st.shared.map.commit(&[crate::shardmap::Migration { edge: moved.1.edge, from: b, to: a }]);
        let mut got = None;
        let again = std::thread::scope(|s| {
            let answerer = s.spawn(|| {
                let wait = Duration::from_secs(1);
                let requests: Vec<ShardRequest> =
                    shards.iter().map(|_| next_request(&rx, wait).expect("asked")).collect();
                let mut from_b = counted(&requests[1], b);
                from_b.counts.retain(|c| c.idx != moved.0);
                from_b.moved.push(moved);
                let _ = requests[1].reply.send(from_b);
                for (req, &shard) in requests.iter().zip(&shards).filter(|(_, &s)| s != b) {
                    let _ = req.reply.send(counted(req, shard));
                }
                let again = next_request(&rx, wait).expect("the moved edge is asked for again");
                let _ = again.reply.send(counted(&again, a));
                (again.attempt, again.edges.to_vec())
            });
            fan_out(&st, &mut d, |_, c| got = Some((c.slots.to_vec(), c.retries)));
            answerer.join().unwrap()
        });
        assert_eq!(again, (1, vec![moved]), "attempt 1 asks the new owner for the moved edge");
        let (slots, retries) = got.expect("handed over");
        assert!(slots.iter().all(Option::is_some), "every edge reported");
        assert_eq!(retries, 1);
    }

    #[test]
    fn a_panicked_reply_to_an_earlier_attempt_leaves_the_current_one_waiting() {
        let window = Duration::from_millis(100);
        let (st, rx, queries) = silent_shards(RuntimeConfig {
            shard_timeout: window,
            max_retries: 1,
            ..RuntimeConfig::default()
        });
        let mut d = Dispatcher::new(&st);
        let (spec, plan, shards) = spread_query(&st, &mut d, queries);
        let got = std::thread::scope(|s| {
            // Silent through attempt 0's window; on attempt 1 every other
            // shard answers, then shard X's attempt-0 request panics late,
            // then X answers attempt 1.
            s.spawn(|| {
                let ask = |attempt| -> Vec<ShardRequest> {
                    let reqs: Vec<ShardRequest> = (shards.iter())
                        .map(|_| next_request(&rx, 20 * window).expect("asked"))
                        .collect();
                    assert!(reqs.iter().all(|req| req.attempt == attempt));
                    reqs
                };
                let (first, second) = (ask(0), ask(1));
                let x = shards[0];
                for (req, &shard) in second.iter().zip(&shards).skip(1) {
                    let _ = req.reply.send(counted(req, shard));
                }
                let late =
                    ShardResponse { panicked: true, counts: Vec::new(), ..counted(&first[0], x) };
                let _ = second[0].reply.send(late);
                let _ = second[0].reply.send(counted(&second[0], x));
            });
            fan_out_alone(&st, &mut d, &spec, &plan)
        });
        assert_eq!(got.retries, 1);
        assert!(got.slots.iter().all(Option::is_some), "shard X's attempt-1 answer was taken");
    }
}
