//! The fan-out core: one query's flight from its routed groups to its
//! answer, a state machine with no clock, no channel and no server state. A
//! batch is a slice of flights; `dispatch::fan_out` feeds it the time
//! ([`tick`]), each reply ([`reply`]) and, when a wait times out, the time
//! and the health verdicts ([`timeout`]), and carries out what it emits
//! ([`Out`]). Its tests walk every order replies can arrive in.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stq_core::query::QueryKind;

use crate::dispatch::Group;
use crate::server::RuntimeConfig;
use crate::shard::{EdgeCounts, ShardResponse};

/// The owner of a boundary position that is pending at no shard: it
/// reported, was refused, or was never asked (shed by a brownout stride).
const SETTLED: usize = usize::MAX;

/// Where a flight is in its current attempt.
#[derive(Clone, Copy, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash))]
enum Phase {
    /// Asks at the batch's next attempt.
    Ready,
    /// Waiting for replies until the instant (`None`: no end) and then
    /// until nothing is queued: its window closes on a wait that times out.
    Waiting(Option<Instant>),
    /// Nothing more to wait for on this attempt; `true` if it asked anyone.
    Idle(bool),
    /// Answered.
    Done,
}

/// What the core hands the loop to carry out.
pub(crate) enum Out<'a> {
    /// Ask `shard` for what the flight has pending there, on its current
    /// attempt, if the shard's health and breaker verdicts allow: the loop
    /// sends the request and says whether it did.
    Ask(usize, &'a Flight),
    /// `shard` answered: a breaker success.
    Answered(usize),
    /// The flight's attempt is over: each shard it still [`Flight::awaited`]
    /// stayed silent through its window (a breaker failure), and it
    /// [`Flight::timed_out`] or not.
    Closed(&'a Flight),
    /// The batch's query `i` is answered: fold it.
    Answer(usize, &'a Flight),
}

/// What the loop does before the batch's next tick.
#[derive(Clone, Copy)]
pub(crate) enum Next {
    /// Wait for one reply until the instant (`None`: no end); not at all
    /// once it has passed, but take a reply already queued.
    Wait(Option<Instant>),
    /// Every query of the batch is answered.
    Done,
}

/// One query's fan-out, from its routing to its fold: a flight-pool entry.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Flight {
    pub id: u64,
    pub kind: QueryKind,
    pub deadline: Option<Instant>,
    phase: Phase,
    /// Boundary edges still unanswered, by owning shard.
    pub pending: Vec<Group>,
    /// Per shard asked on the current attempt that has not answered yet,
    /// the group its request carried.
    awaiting: Vec<Option<Group>>,
    /// Per boundary position, the shard it is pending at, or [`SETTLED`].
    owner: Vec<usize>,
    /// Per boundary position, the owning shard's contribution — `None` for
    /// every edge that never reported (silent, skipped, refused or shed).
    pub slots: Vec<Option<EdgeCounts>>,
    /// Boundary edges a shard refused because they are quarantined.
    pub refused: usize,
    /// Shards the query fanned out to.
    pub fanout: usize,
    /// Retry rounds that were needed: the current attempt's number.
    pub retries: u32,
    /// The query's deadline elapsed between attempts.
    pub expired: bool,
    /// The group of a shard with nothing pending.
    empty: Group,
}

/// When attempt `attempt`'s window, opened at `now`, closes: 2^attempt ×
/// `window` (exponential backoff), saturating — the caller's numbers — and
/// clamped to the `deadline`, which no attempt may overshoot.
pub(crate) fn window_end(
    now: Instant,
    window: Duration,
    attempt: u32,
    deadline: Option<Instant>,
) -> Option<Instant> {
    let end = window.checked_mul(1 << attempt.min(31)).and_then(|w| now.checked_add(w));
    end.into_iter().chain(deadline).min()
}

/// Moves the batch on at `now`, one tick per flight in batch order: a
/// query that awaits a shard waits for it until its window closes, and a
/// query nothing more can come for (all of its edges reported, or, on its
/// last attempt, nobody awaited or its window closed) is answered. When
/// nobody waits any more, every query left ends its attempt and the next
/// starts: a query whose deadline passed is answered as it stands, the rest
/// ask again.
pub(crate) fn tick(
    batch: &mut [Flight],
    now: Instant,
    cfg: &RuntimeConfig,
    out: &mut impl FnMut(Out<'_>) -> bool,
) -> Next {
    loop {
        let (mut waiting, mut until) = (false, None);
        for (i, f) in batch.iter_mut().enumerate() {
            match f.phase {
                Phase::Waiting(end) if f.awaited().next().is_some() => {
                    (waiting, until) = (true, end.into_iter().chain(until).min());
                    continue;
                }
                Phase::Waiting(_) => f.phase = Phase::Idle(true),
                Phase::Idle(_) => {}
                Phase::Ready | Phase::Done => continue,
            }
            if f.retries == cfg.max_retries || f.answered() {
                out(Out::Closed(f));
                f.phase = Phase::Done;
                out(Out::Answer(i, f));
            }
        }
        if waiting {
            return Next::Wait(until);
        }
        // What is still in flight has edges pending and attempts left.
        for f in batch.iter_mut().filter(|f| matches!(f.phase, Phase::Idle(_))) {
            out(Out::Closed(f));
            (f.phase, f.retries) = (Phase::Ready, f.retries + 1);
        }
        for (i, f) in batch.iter_mut().enumerate() {
            // Deadline short-circuit at the fan-out hop: no further attempts
            // once the budget is gone — whatever already reported is folded,
            // the rest degrades.
            if f.phase == Phase::Ready && f.deadline.is_some_and(|dl| now >= dl) {
                (f.expired, f.phase) = (true, Phase::Done);
                out(Out::Answer(i, f));
            } else if f.phase == Phase::Ready {
                f.ask(window_end(now, cfg.shard_timeout, f.retries, f.deadline), out);
            }
        }
        if batch.iter().all(|f| f.phase == Phase::Done) {
            return Next::Done;
        }
    }
}

/// Hands one response to the query of the batch it names, if any: the
/// channel outlives a batch. The query takes each position the response
/// settles that is still pending at its shard — for the current attempt
/// what its request carried (a position it leaves out was answered without
/// data), for an earlier one only what it lists — and ignores a response
/// that settles nothing. Edges reported moved re-enter keyed by `owner_of`,
/// the loop's look-up of their current owner.
pub(crate) fn reply(
    batch: &mut [Flight],
    resp: ShardResponse,
    owner_of: impl Fn(usize) -> usize,
    out: &mut impl FnMut(Out<'_>) -> bool,
) {
    let live = |f: &&mut Flight| f.phase != Phase::Done && f.id == resp.query_id;
    let Some(f) = batch.iter_mut().find(live) else { return };
    let shard = resp.shard;
    if resp.panicked {
        // A panicked shard answered with nothing: it is no longer awaited,
        // and its edges stay pending for the next attempt. One that panicked
        // on an earlier attempt says nothing about the request this attempt
        // sent it.
        if resp.attempt == f.retries {
            f.awaiting[shard] = None;
        }
        return;
    }
    let asked = if resp.attempt == f.retries { f.awaiting[shard].take() } else { None };
    let ours = |owner: &[usize], idx: usize| owner.get(idx) == Some(&shard);
    let mut settles = (resp.counts.iter().map(|c| c.idx))
        .chain(resp.refused.iter().copied())
        .chain(resp.moved.iter().map(|&(idx, _)| idx))
        .chain(asked.iter().flat_map(|group| group.iter().map(|&(idx, _)| idx)));
    if !settles.any(|idx| ours(&f.owner, idx)) {
        return;
    }
    for c in resp.counts {
        if ours(&f.owner, c.idx) {
            f.owner[c.idx] = SETTLED;
            f.slots[c.idx] = Some(c);
        }
    }
    for idx in resp.refused {
        if ours(&f.owner, idx) {
            f.owner[idx] = SETTLED;
            f.refused += 1;
        }
    }
    for &(idx, _) in asked.iter().flat_map(|group| group.iter()) {
        if ours(&f.owner, idx) && !resp.moved.iter().any(|m| m.0 == idx) {
            f.owner[idx] = SETTLED;
        }
    }
    // Edges a migration moved away from the responding shard mid-query
    // re-enter the fan-out keyed by their current owner; a later attempt
    // serves them there (or they degrade soundly at exhaustion). Rare enough
    // to pay for a fresh slice each.
    for (idx, be) in resp.moved {
        let to = owner_of(be.edge);
        if ours(&f.owner, idx) && to != shard {
            f.owner[idx] = to;
            let group = &mut f.pending[to];
            *group = group.iter().copied().chain([(idx, be)]).collect();
        }
    }
    let (owner, group) = (&f.owner, &mut f.pending[shard]);
    let left = group.iter().filter(|&&(idx, _)| owner[idx] == shard).count();
    if left == 0 {
        *group = Arc::clone(&f.empty);
        // A late answer that settled everything the current request
        // carries answered it too.
        f.awaiting[shard] = None;
    } else if left < group.len() {
        *group = group.iter().filter(|&&(idx, _)| owner[idx] == shard).copied().collect();
    }
    out(Out::Answered(shard));
}

/// A wait timed out at `now`, nothing queued: a window that has closed
/// closes on the shards it still awaits, and no query awaits a shard `down`
/// says left `Healthy` — a worker dying mid-attempt releases it after one
/// wait instead of the full window.
pub(crate) fn timeout(batch: &mut [Flight], now: Instant, down: impl Fn(usize) -> bool) {
    for f in batch {
        if matches!(f.phase, Phase::Waiting(Some(end)) if now >= end) {
            f.phase = Phase::Idle(true);
        }
        let awaiting = f.awaiting.iter_mut().enumerate();
        awaiting.filter(|(shard, _)| down(*shard)).for_each(|(_, awaited)| *awaited = None);
    }
}

impl Flight {
    /// A pool entry for `ns` shards with room for `widest` positions;
    /// `start` starts a query on it.
    pub(crate) fn new(kind: QueryKind, ns: usize, empty: &Group, widest: usize) -> Self {
        Flight {
            id: 0,
            kind,
            deadline: None,
            phase: Phase::Done,
            pending: vec![Arc::clone(empty); ns],
            awaiting: vec![None; ns],
            owner: Vec::with_capacity(widest),
            slots: Vec::with_capacity(widest),
            refused: 0,
            fanout: 0,
            retries: 0,
            expired: false,
            empty: Arc::clone(empty),
        }
    }

    /// Room for a boundary of `n` positions, so a start allocates nothing.
    pub(crate) fn make_room(&mut self, n: usize) {
        self.owner.reserve(n.saturating_sub(self.owner.len()));
        self.slots.reserve(n.saturating_sub(self.slots.len()));
    }

    /// Starts query `id` of `n` boundary positions on this flight, its
    /// groups — routed at its brownout stride — already in `pending`.
    pub(crate) fn start(&mut self, id: u64, kind: QueryKind, deadline: Option<Instant>, n: usize) {
        (self.id, self.kind, self.deadline, self.phase) = (id, kind, deadline, Phase::Ready);
        self.owner.clear();
        self.owner.resize(n, SETTLED);
        for (shard, group) in self.pending.iter().enumerate() {
            for &(idx, _) in group.iter() {
                self.owner[idx] = shard;
            }
        }
        self.slots.clear();
        self.slots.resize(n, None);
        self.fanout = self.pending.iter().filter(|edges| !edges.is_empty()).count();
        (self.refused, self.retries, self.expired) = (0, 0, false);
    }

    /// Every edge asked for has reported (or was refused).
    fn answered(&self) -> bool {
        self.pending.iter().all(|edges| edges.is_empty())
    }

    /// Asks, in ascending shard order, every shard with edges pending:
    /// those the loop's verdicts let through are awaited until `end`.
    fn ask(&mut self, end: Option<Instant>, out: &mut impl FnMut(Out<'_>) -> bool) {
        self.awaiting.fill(None);
        for shard in (0..self.pending.len()).filter(|&s| !self.pending[s].is_empty()) {
            if out(Out::Ask(shard, self)) {
                self.awaiting[shard] = Some(Arc::clone(&self.pending[shard]));
            }
        }
        let asked = self.awaited().next().is_some();
        self.phase = if asked { Phase::Waiting(end) } else { Phase::Idle(false) };
    }

    /// The shards asked on the current attempt that have not answered yet
    /// (a panicked worker has answered, and a worker that died mid-wait is
    /// no longer awaited): at the attempt's close, those that stayed silent.
    pub(crate) fn awaited(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.awaiting.len()).filter(|&s| self.awaiting[s].is_some())
    }

    /// The current attempt asked someone, yet left edges pending.
    pub(crate) fn timed_out(&self) -> bool {
        self.phase == Phase::Idle(true) && !self.answered()
    }
}

#[cfg(test)]
mod tests {
    //! The walk: every order in which replies can reach a small batch,
    //! explored depth-first over the world's states with a seen-set.
    //!
    //! The world has three shards, one retry, a batch of one or two queries
    //! over one four-edge boundary, and one edge that migrates at most once.
    //! A step is one of:
    //! - a shard serves the request at the head of its queue — good, with the
    //!   migrated edge reported `moved` and the quarantined one refused — or
    //!   the request panics, or is lost;
    //! - the edge migrates;
    //! - time runs to the end of the wait;
    //! - the mortal shard dies and a wait slice times out.
    //!
    //! Requests outlive their attempt (a late reply from attempt k − 1) and
    //! their query (a reply for the other query, or for a query of an earlier
    //! batch). A shard serves its queue in order and the reply channel is
    //! FIFO, so what a reply says is fixed by the world when it is served.
    //!
    //! Checked on every step, and at every leaf:
    //! - each position settles at most once, by a reply for its query to a
    //!   request that carried it, and a stale reply never changes a settled
    //!   slot;
    //! - the call trace is the fan-out's: each attempt asks every shard with
    //!   edges pending, ascending, for exactly those edges; a shard answered
    //!   exactly when its reply settled something; an attempt ends with the
    //!   shards asked that neither replied nor died reported silent, and
    //!   timed out exactly when it asked someone and left edges pending;
    //! - no query is answered before its last awaited reply or the end of its
    //!   window, none waits past its window, and none waits for a shard that
    //!   has answered;
    //! - at a leaf, the fold brackets `QueryPlan::execute` on the same counts,
    //!   and coverage is 1 exactly when every edge got a good reply.

    use std::collections::{HashSet, VecDeque};
    use std::hash::{DefaultHasher, Hash, Hasher};
    use std::sync::atomic::AtomicU64;

    use stq_core::engine::{PlanId, QueryPlan};
    use stq_forms::{snapshot_count, transient_count, BoundaryEdge, CountSource, Time};

    use super::*;
    use crate::aggregate::fold;

    const SHARDS: usize = 3;
    /// Boundary position `p` is edge `p`, owned by shard `p % SHARDS`...
    const EDGES: usize = 4;
    /// ... except this one once it has migrated, to shard `MOVED_TO`.
    const MOVER: usize = 3;
    const MOVED_TO: usize = 1;
    /// A query of an earlier batch.
    const STALE: u64 = 7;
    /// Attempt 0's window, in model milliseconds.
    const WINDOW: u64 = 10;

    /// Every edge's crossings: `2e + 3` forward and `e + 1` backward per unit
    /// of time, until time 4 — so each (edge, query) pair counts differently.
    struct Crossings;

    impl CountSource for Crossings {
        fn count_until(&self, edge: usize, forward: bool, t: Time) -> f64 {
            let rate = if forward { 2 * edge + 3 } else { edge + 1 };
            rate as f64 * t.clamp(0.0, 4.0)
        }

        fn storage_bytes(&self) -> usize {
            0
        }
    }

    fn kind(query: u64) -> QueryKind {
        match query {
            0 => QueryKind::Snapshot(1.0),
            1 => QueryKind::Transient(1.0, 3.0),
            _ => QueryKind::Snapshot(3.0),
        }
    }

    /// Boundary position `p`, at edge `p`.
    fn edge(p: usize) -> BoundaryEdge {
        BoundaryEdge::new(p, p % 2 == 0)
    }

    /// The shard that owns `edge`, once `MOVER` has `migrated` or before.
    fn owner_of(migrated: bool, edge: usize) -> usize {
        if edge == MOVER && migrated {
            MOVED_TO
        } else {
            edge % SHARDS
        }
    }

    /// What a shard serves for position `idx`, as `ShardWorker` computes it.
    fn contribution(idx: usize, be: BoundaryEdge, kind: QueryKind) -> EdgeCounts {
        let net_at = |t| snapshot_count(&Crossings, &[be], t);
        match kind {
            QueryKind::Snapshot(t) => EdgeCounts { idx, a: net_at(t), b: 0.0 },
            QueryKind::Transient(t0, t1) => {
                EdgeCounts { idx, a: transient_count(&Crossings, &[be], t0, t1), b: 0.0 }
            }
            QueryKind::Static(t0, t1) => EdgeCounts { idx, a: net_at(t0), b: net_at(t1) },
        }
    }

    #[derive(Clone, Copy)]
    struct Config {
        /// The batch, one query per entry: its deadline in model ms.
        deadlines: &'static [Option<u64>],
        /// The edge every shard refuses.
        quarantined: Option<usize>,
        /// The shard that may die.
        mortal: Option<usize>,
        /// A (shard, attempt) the breaker skips.
        skip: Option<(usize, u32)>,
        /// A request of query `STALE` is queued at shard 1 when the batch
        /// starts.
        stale: bool,
        /// Whether edge `MOVER` may migrate.
        migrates: bool,
    }

    #[derive(Clone, Hash)]
    struct Request {
        query: u64,
        attempt: u32,
        positions: Vec<usize>,
    }

    /// What the world knows of one query, kept beside its flight.
    #[derive(Clone, Default, Hash)]
    struct Model {
        /// The attempt under way, once one has asked or ended.
        attempt: Option<u32>,
        /// When its window closes.
        end: u64,
        /// The shards it asked (in order), those that replied to it, and
        /// those that died under it.
        asked: Vec<usize>,
        replied: [bool; SHARDS],
        removed: [bool; SHARDS],
        /// The shards with edges pending when it asked.
        due: Vec<usize>,
        /// Positions a good reply for this query reached it for.
        good: [bool; EDGES],
        /// A wait timed out after its window closed.
        closed: bool,
        answered: bool,
    }

    /// One output of the core, as the walk keeps it.
    enum Event {
        Ask {
            query: u64,
            shard: usize,
            attempt: u32,
            edges: Vec<usize>,
            due: Vec<usize>,
            asked: bool,
        },
        Closed {
            query: u64,
            attempt: u32,
            silent: Vec<usize>,
            timed_out: bool,
            unsettled: bool,
        },
        Answer {
            i: usize,
            query: u64,
            expired: bool,
            unsettled: bool,
            last: bool,
        },
    }

    #[derive(Clone)]
    struct World {
        cfg: Config,
        t0: Instant,
        batch: Vec<Flight>,
        models: Vec<Model>,
        now: u64,
        queues: [VecDeque<Request>; SHARDS],
        migrated: bool,
        dead: Option<usize>,
        next: Next,
        /// How the walk got here, for a failure's message.
        path: Vec<(&'static str, u64)>,
    }

    fn runtime() -> &'static RuntimeConfig {
        static CFG: std::sync::OnceLock<RuntimeConfig> = std::sync::OnceLock::new();
        CFG.get_or_init(|| RuntimeConfig {
            shard_timeout: Duration::from_millis(WINDOW),
            max_retries: 1,
            ..RuntimeConfig::default()
        })
    }

    fn pending_at(f: &Flight, shard: usize) -> Vec<usize> {
        (0..f.owner.len()).filter(|&p| f.owner[p] == shard).collect()
    }

    fn unsettled(f: &Flight) -> bool {
        f.owner.iter().any(|&o| o != SETTLED)
    }

    impl World {
        fn new(cfg: Config, t0: Instant) -> Self {
            let empty: Group = Arc::new([]);
            let routed: Vec<Group> = (0..SHARDS)
                .map(|s| (0..EDGES).filter(|e| e % SHARDS == s).map(|e| (e, edge(e))).collect())
                .collect();
            let batch = (cfg.deadlines.iter().enumerate())
                .map(|(q, deadline)| {
                    let q = q as u64;
                    let mut f = Flight::new(kind(q), SHARDS, &empty, EDGES);
                    f.pending.clone_from_slice(&routed);
                    let deadline = deadline.map(|ms| t0 + Duration::from_millis(ms));
                    f.start(q, kind(q), deadline, EDGES);
                    f
                })
                .collect();
            let mut queues: [VecDeque<Request>; SHARDS] = Default::default();
            if cfg.stale {
                queues[1].push_back(Request { query: STALE, attempt: 0, positions: vec![1] });
            }
            let models = vec![Model::default(); cfg.deadlines.len()];
            let (now, migrated, dead, next, path) = (0, false, None, Next::Done, Vec::new());
            let mut w = World { cfg, t0, batch, models, now, queues, migrated, dead, next, path };
            w.tick();
            w
        }

        fn instant(&self, ms: u64) -> Instant {
            self.t0 + Duration::from_millis(ms)
        }

        fn fail(&self, what: &str) -> ! {
            panic!("{what}\n  after {:?}", self.path)
        }

        /// The shards `q` still waits for on its attempt, by the world's
        /// account: asked, and neither answered nor died.
        fn awaited(&self, q: usize) -> Vec<usize> {
            let m = &self.models[q];
            m.asked.iter().copied().filter(|&s| !m.replied[s] && !m.removed[s]).collect()
        }

        /// Feeds the core one input, recording what it emits.
        fn feed(&mut self, input: impl FnOnce(&mut Self, &mut dyn FnMut(Out<'_>) -> bool)) {
            let mut events = Vec::new();
            let (dead, skip) = (self.dead, self.cfg.skip);
            let mut out = |out: Out<'_>| match out {
                Out::Ask(shard, f) => {
                    let due = (0..SHARDS).filter(|&s| !pending_at(f, s).is_empty()).collect();
                    let (query, attempt) = (f.id, f.retries);
                    let edges = f.pending[shard].iter().map(|&(p, _)| p).collect();
                    let asked = dead != Some(shard) && skip != Some((shard, attempt));
                    events.push(Event::Ask { query, shard, attempt, edges, due, asked });
                    asked
                }
                Out::Answered(_) => false,
                Out::Closed(f) => {
                    let (query, attempt, silent) = (f.id, f.retries, f.awaited().collect());
                    let (timed_out, unsettled) = (f.timed_out(), unsettled(f));
                    events.push(Event::Closed { query, attempt, silent, timed_out, unsettled });
                    false
                }
                Out::Answer(i, f) => {
                    let (query, expired, unsettled) = (f.id, f.expired, unsettled(f));
                    let last = f.retries == runtime().max_retries;
                    events.push(Event::Answer { i, query, expired, unsettled, last });
                    false
                }
            };
            input(self, &mut out);
            for event in events {
                self.check(event);
            }
        }

        /// Holds one output to the call trace and the timing rules.
        fn check(&mut self, event: Event) {
            match event {
                Event::Ask { query, shard, attempt, edges, due, asked } => {
                    let (now, q) = (self.now, query as usize);
                    let deadline = self.cfg.deadlines[q];
                    let m = &mut self.models[q];
                    if m.attempt != Some(attempt) {
                        if attempt != m.attempt.map_or(0, |a| a + 1) {
                            self.fail("an attempt was skipped");
                        }
                        let end = now + (WINDOW << attempt);
                        *m = Model {
                            attempt: Some(attempt),
                            end: deadline.map_or(end, |dl| end.min(dl)),
                            due,
                            good: m.good,
                            ..Model::default()
                        };
                    }
                    let m = &mut self.models[q];
                    let before = m.asked.last().is_some_and(|&last| last >= shard);
                    if before || !m.due.contains(&shard) {
                        self.fail("asks go to the shards with edges pending, ascending");
                    }
                    if edges != pending_at(&self.batch[q], shard) {
                        self.fail("a request carries exactly its shard's pending edges");
                    }
                    if asked {
                        m.asked.push(shard);
                        let positions = edges;
                        self.queues[shard].push_back(Request { query, attempt, positions });
                    } else {
                        m.due.retain(|&s| s != shard);
                    }
                }
                Event::Closed { query, attempt, silent, timed_out, unsettled } => {
                    let q = query as usize;
                    let awaited = self.awaited(q);
                    let m = &mut self.models[q];
                    let asked_any = !m.asked.is_empty();
                    if m.attempt.is_some_and(|a| a != attempt) {
                        self.fail("an attempt closed that was not under way");
                    }
                    if m.attempt.is_none() && attempt != 0 {
                        self.fail("an attempt was skipped");
                    }
                    m.attempt = Some(attempt);
                    let m = &self.models[q];
                    if m.asked.len() + m.due.len() > 0 && m.due.len() != m.asked.len() {
                        self.fail("an attempt asks every shard with edges pending");
                    }
                    if silent != awaited {
                        self.fail("an attempt ends with the shards still awaited reported silent");
                    }
                    if !awaited.is_empty() && self.now < m.end {
                        self.fail("an attempt ended before its last awaited reply or window end");
                    }
                    if timed_out != (asked_any && unsettled) {
                        self.fail("an attempt times out when it asked someone and left edges");
                    }
                }
                Event::Answer { i, query, expired, unsettled, last } => {
                    let q = query as usize;
                    if i != q || self.models[q].answered {
                        self.fail("each query is answered once");
                    }
                    self.models[q].answered = true;
                    let deadline = self.cfg.deadlines[q];
                    if expired && !deadline.is_some_and(|dl| self.now >= dl) {
                        self.fail("a query expired before its deadline");
                    }
                    if !expired && unsettled && !last {
                        self.fail("a query with edges pending was answered with attempts left");
                    }
                }
            }
        }

        fn tick(&mut self) {
            let now = self.instant(self.now);
            self.feed(|w, mut out| w.next = tick(&mut w.batch, now, runtime(), &mut out));
            // Of the queries that still wait for a shard, the earliest window.
            let waiting = |q: &usize| !self.models[*q].closed && !self.awaited(*q).is_empty();
            let live = (0..self.batch.len()).filter(|&q| !self.models[q].answered);
            let until = live.clone().filter(waiting).map(|q| self.models[q].end).min();
            match self.next {
                Next::Wait(end) if until.is_none() || end != until.map(|ms| self.instant(ms)) => {
                    self.fail("a wait lasts until the earliest window of a query still awaiting")
                }
                Next::Done if live.clone().count() > 0 => {
                    self.fail("the batch ended with a query unanswered")
                }
                Next::Done => self.leaf(),
                Next::Wait(_) => {}
            }
        }

        /// The shard at the head of whose queue a request waits serves it.
        fn serve(&mut self, shard: usize, how: &'static str) {
            let req = self.queues[shard].pop_front().expect("a queued request");
            if how == "lost" {
                return;
            }
            let mut resp = ShardResponse {
                query_id: req.query,
                attempt: req.attempt,
                shard,
                counts: Vec::new(),
                refused: Vec::new(),
                moved: Vec::new(),
                panicked: how == "panicked",
            };
            for &p in req.positions.iter().filter(|_| !resp.panicked) {
                if self.cfg.quarantined == Some(p) {
                    resp.refused.push(p);
                } else if owner_of(self.migrated, p) != shard {
                    resp.moved.push((p, edge(p)));
                } else {
                    resp.counts.push(contribution(p, edge(p), kind(req.query)));
                }
            }
            let before: Vec<(Vec<usize>, Vec<Option<EdgeCounts>>, bool)> = (self.batch.iter())
                .map(|f| (f.owner.clone(), f.slots.clone(), f.phase == Phase::Done))
                .collect();
            // The reply reaches the query it names, if that is still in flight.
            let reached = (0..self.batch.len())
                .find(|&q| self.batch[q].id == req.query && !self.models[q].answered);
            let (panicked, counted) =
                (resp.panicked, resp.counts.iter().map(|c| c.idx).collect::<Vec<_>>());
            let mut answered = false;
            let migrated = self.migrated;
            self.feed(|w, out| {
                let mut out = |o: Out<'_>| {
                    answered |= matches!(o, Out::Answered(s) if s == shard);
                    out(o)
                };
                reply(&mut w.batch, resp, |edge| owner_of(migrated, edge), &mut out)
            });
            if let Some(q) = reached {
                // A shard has answered the current request when it replied to
                // it, or when a reply of its left nothing pending there.
                let current = self.models[q].attempt == Some(req.attempt);
                let cleared = !panicked && pending_at(&self.batch[q], shard).is_empty();
                let m = &mut self.models[q];
                m.replied[shard] |= current || cleared;
                counted.iter().for_each(|&p| m.good[p] = true);
            }
            let mut changed = false;
            for (f, (owner, slots, done)) in self.batch.iter().zip(&before) {
                for p in 0..EDGES {
                    let was = (owner[p], slots[p].map(|c| (c.a.to_bits(), c.b.to_bits())));
                    let is = (f.owner[p], f.slots[p].map(|c| (c.a.to_bits(), c.b.to_bits())));
                    if was == is {
                        continue;
                    }
                    changed = true;
                    if was.0 == SETTLED || *done {
                        self.fail("a stale reply changed a settled slot");
                    }
                    if f.id != req.query || !req.positions.contains(&p) {
                        self.fail("a position settled by a reply whose request did not carry it");
                    }
                    let served = contribution(p, edge(p), kind(f.id));
                    if f.slots[p].is_some_and(|c| (c.a, c.b) != (served.a, served.b)) {
                        self.fail("a slot holds another query's count");
                    }
                }
            }
            if answered != changed {
                self.fail("a shard answered exactly when its reply settled something");
            }
        }

        /// A wait timed out with nothing queued: the loop feeds the time and
        /// the health verdicts.
        fn timeout(&mut self) {
            let (now, dead) = (self.now, self.dead);
            for m in self.models.iter_mut().filter(|m| !m.answered) {
                m.closed |= now >= m.end;
                if let Some(s) = dead {
                    m.removed[s] = true;
                }
            }
            let at = self.instant(now);
            self.feed(|w, _| timeout(&mut w.batch, at, |s| dead == Some(s)));
        }

        /// Every query is answered: its fold against the truth.
        fn leaf(&self) {
            let totals: Vec<[AtomicU64; 2]> = (0..EDGES)
                .map(|e| {
                    [true, false]
                        .map(|fwd| AtomicU64::new(Crossings.count_until(e, fwd, 4.0) as u64))
                })
                .collect();
            let plan = QueryPlan {
                id: PlanId(0),
                interior: Vec::new(),
                boundary: (0..EDGES).map(edge).collect(),
                nodes_accessed: 0,
                miss: false,
            };
            for (f, m) in self.batch.iter().zip(&self.models) {
                let (bracket, coverage) = fold(&totals, &plan, &f.slots, f.kind);
                let truth = plan.execute(&Crossings, f.kind).value;
                if !(bracket.lo <= truth && truth <= bracket.hi) {
                    self.fail("the fold does not bracket `QueryPlan::execute`");
                }
                if (coverage == 1.0) != m.good.iter().all(|&g| g) {
                    self.fail("coverage is 1 exactly when every edge got a good reply");
                }
                if coverage == 1.0 && bracket.est.to_bits() != truth.to_bits() {
                    self.fail("a full-coverage fold is `QueryPlan::execute` bit for bit");
                }
            }
        }

        /// Everything that can happen next, each in a world of its own.
        fn successors(&self) -> Vec<World> {
            let mut next = Vec::new();
            let mut step = |step: (&'static str, u64), go: &dyn Fn(&mut World)| {
                let mut w = self.clone();
                w.path.push(step);
                go(&mut w);
                next.push(w);
            };
            let Next::Wait(until) = self.next else { return next };
            for s in (0..SHARDS).filter(|&s| !self.queues[s].is_empty()) {
                for how in ["good", "panicked", "lost"] {
                    step((how, s as u64), &|w| {
                        w.serve(s, how);
                        if how != "lost" {
                            w.tick();
                        }
                    });
                }
            }
            if self.cfg.migrates && !self.migrated {
                step(("migrate", MOVER as u64), &|w| w.migrated = true);
            }
            let until = until.expect("every window ends").duration_since(self.t0);
            let ms = (until.as_millis() as u64).max(self.now);
            step(("time", ms), &|w| {
                w.now = ms;
                w.timeout();
                w.tick();
            });
            if let Some(s) = self.cfg.mortal.filter(|_| self.dead.is_none()) {
                step(("die", s as u64), &|w| {
                    (w.dead, w.queues[s]) = (Some(s), VecDeque::new());
                    w.timeout();
                    w.tick();
                });
            }
            next
        }

        /// Everything the rest of the walk depends on.
        fn key(&self) -> u64 {
            let mut h = DefaultHasher::new();
            (self.now, self.migrated, self.dead, &self.queues, &self.models).hash(&mut h);
            if let Next::Wait(until) = self.next {
                until.hash(&mut h);
            }
            for f in &self.batch {
                (f.phase, f.retries, f.expired, f.refused, &f.owner).hash(&mut h);
                for c in f.slots.iter().flatten() {
                    (c.idx, c.a.to_bits(), c.b.to_bits()).hash(&mut h);
                }
                let groups = f
                    .pending
                    .iter()
                    .chain(f.awaiting.iter().map(|a| a.as_ref().unwrap_or(&f.empty)));
                for group in groups {
                    group.len().hash(&mut h);
                    group.iter().for_each(|&(p, _)| p.hash(&mut h));
                }
            }
            h.finish()
        }
    }

    /// Walks every order from `cfg`'s start; returns the states explored.
    fn walk(cfg: Config, t0: Instant) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![World::new(cfg, t0)];
        while let Some(w) = stack.pop() {
            if seen.insert(w.key()) {
                stack.extend(w.successors());
            }
        }
        seen.len()
    }

    #[test]
    fn every_reply_order_settles_each_edge_once_and_brackets_the_truth() {
        let t0 = Instant::now();
        let one = Config {
            deadlines: &[None],
            quarantined: None,
            mortal: None,
            skip: None,
            stale: true,
            migrates: true,
        };
        let worlds = [
            one,
            Config {
                deadlines: &[Some(15)],
                quarantined: Some(2),
                mortal: Some(1),
                skip: Some((0, 1)),
                ..one
            },
            Config { deadlines: &[None, Some(10)], stale: false, migrates: false, ..one },
        ];
        let mut total = 0;
        for cfg in worlds {
            let states = walk(cfg, t0);
            println!("{} queries: {states} states", cfg.deadlines.len());
            assert!(states > 1_000, "a walk this short explores nothing");
            total += states;
        }
        println!("{total} states explored");
    }
}
