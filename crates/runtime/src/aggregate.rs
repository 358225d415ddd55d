//! From slots to an answer: plan each query of a batch, fold what the shards
//! reported for it into a [`Bracket`], and build the [`ServedAnswer`].
//!
//! Shards return per-edge contributions tagged with their position in the
//! boundary chain; [`fold`] visits them **in boundary order**, so with full
//! coverage the result is bit-identical to the synchronous
//! `stq_core::query::evaluate` fold (floating-point addition happens in the
//! same order on the same terms). An edge that did not report adds its
//! lifetime worst case instead — the one widening rule every answer path
//! shares, argued in [`stq_core::bracket`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stq_core::bracket::Bracket;
use stq_core::degraded::{DegradedAnswer, DegradedStrategy};
use stq_core::engine::{PlanId, QueryPlan};
use stq_core::query::QueryKind;

use crate::dispatch::{fan_out, live_counts, Dispatcher};
use crate::flight::Flight;
use crate::metrics::{Metrics, QueryTrace};
use crate::overload::stride_for;
use crate::server::{Job, QuerySpec};
use crate::shard::EdgeCounts;
use crate::state::ServerState;

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
    /// [`RuntimeConfig::degraded`](crate::RuntimeConfig::degraded) unset).
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

/// One query with its plan in hand — what every answer is built from.
struct Planned {
    id: u64,
    start: Instant,
    plan: Arc<QueryPlan>,
    plan_cache_hit: bool,
    plan_latency: Duration,
}

impl Planned {
    /// The miss plan of a region refused before planning: nothing was
    /// looked up or compiled.
    fn refused(id: u64, start: Instant) -> Self {
        let plan = QueryPlan {
            id: PlanId(0),
            interior: Vec::new(),
            boundary: Vec::new(),
            nodes_accessed: 0,
            miss: true,
        };
        Planned {
            id,
            start,
            plan: Arc::new(plan),
            plan_cache_hit: false,
            plan_latency: Duration::ZERO,
        }
    }
}

/// Resolves the region and derives the boundary chain — or reuses a cached
/// plan for a region the runtime has served before — and accounts for it,
/// so the runtime's plan counters move in step with the engine's.
fn plan_for(st: &ServerState, id: u64, spec: &QuerySpec, start: Instant) -> Planned {
    let metrics = &st.shared.metrics;
    let plan_t0 = Instant::now();
    let (plan, plan_cache_hit) =
        st.shared.engine.plan(&st.sensing, &st.sampled, &spec.region, spec.approx);
    let plan_latency = plan_t0.elapsed();
    metrics.plan_latency.record(plan_latency.as_micros() as u64);
    Metrics::bump(if plan_cache_hit {
        &metrics.plan_cache_hits
    } else {
        &metrics.plan_cache_misses
    });
    Planned { id, start, plan, plan_cache_hit, plan_latency }
}

impl ServedAnswer {
    /// The serving graph cannot cover the region: nothing to count, nothing
    /// to bracket. Also the all-zero answer the other constructors start
    /// from.
    fn miss(p: &Planned, expired: bool) -> Self {
        ServedAnswer {
            query_id: p.id,
            value: 0.0,
            lower: 0.0,
            upper: 0.0,
            coverage: 0.0,
            miss: true,
            degraded: false,
            quarantined: 0,
            shards: 0,
            retries: 0,
            strategy: DegradedStrategy::None,
            confidence: 0.0,
            plan_cache_hit: p.plan_cache_hit,
            plan_latency: p.plan_latency,
            latency: p.start.elapsed(),
            expired,
            brownout: 0,
        }
    }

    /// The deadline elapsed before any fan-out: `bracket` is the plan's
    /// all-edges-unknown fold, no shard was contacted.
    fn expired(p: &Planned, bracket: Bracket, coverage: f64) -> Self {
        ServedAnswer {
            value: bracket.est,
            lower: bracket.lo,
            upper: bracket.hi,
            coverage,
            miss: false,
            degraded: coverage < 1.0,
            ..Self::miss(p, true)
        }
    }

    /// `base`, unless the degraded answerer certified a better bracket than
    /// it carries — for a region the serving graph missed, or for a
    /// quarantine-degraded fold (whose refused-edge terms widen by corrupted
    /// lifetime counts).
    fn degraded(base: ServedAnswer, certified: Option<DegradedAnswer>) -> Self {
        let Some(da) = certified else { return base };
        ServedAnswer {
            value: da.value,
            lower: da.bracket.lower,
            upper: da.bracket.upper,
            miss: false,
            degraded: true,
            strategy: da.strategy,
            confidence: da.confidence,
            ..base
        }
    }

    /// The ordinary path: the fold of what the fan-out collected at
    /// brownout `level`.
    fn served(p: &Planned, bracket: Bracket, coverage: f64, got: &Flight, level: u8) -> Self {
        ServedAnswer {
            value: bracket.est,
            lower: bracket.lo,
            upper: bracket.hi,
            coverage,
            miss: false,
            degraded: coverage < 1.0,
            confidence: coverage,
            quarantined: got.refused,
            shards: got.fanout,
            retries: got.retries,
            expired: got.expired,
            brownout: level,
            ..Self::miss(p, false)
        }
    }
}

/// Folds `slots` along `plan`'s boundary, in boundary order. A reported
/// edge contributes its exact terms; a missing edge (a `None` slot, or any
/// position past the end of `slots`) contributes 0 to the estimate and its
/// lifetime worst case, from the per-edge `totals`, to the bounds. Returns
/// the finished bracket and the fraction of boundary edges that reported.
pub(crate) fn fold(
    totals: &[[AtomicU64; 2]],
    plan: &QueryPlan,
    slots: &[Option<EdgeCounts>],
    kind: QueryKind,
) -> (Bracket, f64) {
    let mut answered = 0usize;
    let (mut a, mut b) = (Bracket::default(), Bracket::default());
    for (idx, be) in plan.boundary.iter().enumerate() {
        match slots.get(idx).copied().flatten() {
            Some(c) => {
                answered += 1;
                a.add_exact(c.a);
                b.add_exact(c.b);
            }
            None => {
                let fwd = totals[be.edge][0].load(Ordering::Relaxed) as f64;
                let bwd = totals[be.edge][1].load(Ordering::Relaxed) as f64;
                let (entries, exits) = if be.inward_forward { (fwd, bwd) } else { (bwd, fwd) };
                a.add_unknown(entries, exits);
                b.add_unknown(entries, exits);
            }
        }
    }
    let n = plan.boundary.len();
    (Bracket::finish(a, b, kind), if n == 0 { 1.0 } else { answered as f64 / n as f64 })
}

/// What a dispatcher thread keeps from batch to batch on the answering
/// side: the batch's jobs, and per query that fans out — in the order it was
/// enlisted, which is how `fan_out` names it — its job, plan, brownout level
/// and the start of its execution. Cleared per batch, never shrunk.
#[derive(Default)]
pub(crate) struct Batch {
    pub jobs: Vec<Job>,
    flying: Vec<Flying>,
}

struct Flying {
    job: usize,
    p: Planned,
    level: u8,
    exec_t0: Instant,
}

/// Answers every job of `batch` and empties it. Each job is planned in queue
/// order, and one that reaches no shard is answered there and then; the
/// rest fan out together, and each is answered as soon as its own fan-out
/// is over.
pub(crate) fn answer_batch(st: &ServerState, d: &mut Dispatcher, batch: &mut Batch) {
    let Batch { jobs, flying } = batch;
    // The queue-depth gauge reads the jobs of the batch still waiting behind
    // the one served next — what it read of the queue behind each job when
    // jobs were served one at a time, and what the brownout controller
    // reads — and 0 before the batch's last answer goes out.
    let depth = &st.shared.metrics.queue_depth;
    let mut left = jobs.len();
    depth.store(left.saturating_sub(1) as u64, Ordering::Relaxed);
    let mut answered = |job: &Job, answer: ServedAnswer| {
        left -= 1;
        depth.store(left.saturating_sub(1) as u64, Ordering::Relaxed);
        settle(st, job, answer);
    };
    for (j, job) in jobs.iter().enumerate() {
        match start(st, job, true) {
            Err(answer) => answered(job, answer),
            Ok(p) => {
                let exec_t0 = Instant::now();
                let level = st.overload.as_ref().map_or(0, |ov| ov.brownout.level());
                d.enlist(st, job.id, &job.spec, &p.plan, level);
                flying.push(Flying { job: j, p, level, exec_t0 });
            }
        }
    }
    fan_out(st, d, |i, got| {
        let f = &flying[i];
        let job = &jobs[f.job];
        answered(job, execute(st, &job.spec, f, got));
    });
    flying.clear();
    jobs.clear();
}

/// Answers, on the thread that submitted it, a job whose deadline ran out
/// before it got a queue slot: the expired answer, which reaches no shard.
pub(crate) fn answer_expired(st: &ServerState, job: Job) {
    // Not live: `start` answers it whatever the plan.
    if let Err(answer) = start(st, &job, false) {
        settle(st, &job, answer);
    }
}

/// Plans one job: the plan it fans out with, or the answer of a job that
/// reaches no shard. Every hop short-circuits a query whose deadline already
/// passed (or that is not `live`): here that means no fan-out — the (cached)
/// plan still yields a sound worst-case bracket from the lifetime totals,
/// so even a budget-starved client gets honest bounds.
fn start(st: &ServerState, job: &Job, live: bool) -> Result<Planned, ServedAnswer> {
    let (id, spec) = (job.id, &job.spec);
    let start = Instant::now();
    let expired = !live || spec.deadline.is_some_and(|dl| start >= dl);
    // A region built on another graph is a plain miss: no plan, no consult.
    let foreign = st.foreign(&spec.region);
    let p = if foreign { Planned::refused(id, start) } else { plan_for(st, id, spec, start) };
    if p.plan.miss {
        // The degraded answerer's detour / imputation machinery may still
        // certify a bracket on its repaired graphs.
        let certified = if expired || foreign { None } else { consult_degraded(st, spec) };
        Err(ServedAnswer::degraded(ServedAnswer::miss(&p, expired), certified))
    } else if expired {
        let (bracket, coverage) = fold(st.shared.subs.totals(), &p.plan, &[], spec.kind);
        Err(ServedAnswer::expired(&p, bracket, coverage))
    } else {
        Ok(p)
    }
}

/// Records a job's answer, releases its admission reservation and replies.
fn settle(st: &ServerState, job: &Job, answer: ServedAnswer) {
    record_served(st, &answer);
    if let Some(ov) = st.overload.as_ref() {
        ov.release(job.cost_milli);
    }
    // The client may have given up on the PendingAnswer; that's fine.
    let _ = job.reply.send(answer);
}

/// Fold and the degraded-mode escalation for one query whose fan-out is
/// over.
fn execute(st: &ServerState, spec: &QuerySpec, f: &Flying, got: &Flight) -> ServedAnswer {
    let (bracket, coverage) = fold(st.shared.subs.totals(), &f.p.plan, &got.slots, spec.kind);
    // Quarantine-degraded answers escalate through the repair strategies.
    let certified =
        if got.refused > 0 && coverage < 1.0 { consult_degraded(st, spec) } else { None };
    let exec_us = f.exec_t0.elapsed().as_micros() as u64;
    st.shared.metrics.execute_latency.record(exec_us);
    feed_brownout(st, exec_us);
    let served = ServedAnswer::served(&f.p, bracket, coverage, got, f.level);
    ServedAnswer::degraded(served, certified)
}

/// Feeds the brownout controller; on a level shift, crossing level 2 also
/// toggles subscription delta-push shedding (with a coalesced catch-up push
/// on the way back down).
fn feed_brownout(st: &ServerState, exec_us: u64) {
    let Some(ov) = st.overload.as_ref() else { return };
    let metrics = &st.shared.metrics;
    let depth = metrics.queue_depth.load(Ordering::Relaxed) as usize;
    if let Some((from, to)) = ov.brownout.observe(depth, exec_us) {
        metrics.brownout_level.store(to as u64, Ordering::Relaxed);
        Metrics::bump(&metrics.brownout_shifts);
        if from < 2 && to >= 2 {
            st.shared.subs.set_shed_pushes(true);
        } else if from >= 2 && to < 2 {
            let coalesced = st.shared.subs.set_shed_pushes(false);
            Metrics::add(&metrics.sub_coalesced, coalesced.len() as u64);
        }
    }
}

/// The degraded-mode consult: an answerer must be configured, every shard
/// must report its live counts at the query's instants, and the escalation
/// must land on a non-miss bracket having read only counts they reported.
fn consult_degraded(st: &ServerState, spec: &QuerySpec) -> Option<DegradedAnswer> {
    let deg = st.degraded.as_ref()?;
    let counts = live_counts(st, spec.kind, spec.deadline)?;
    let a = deg.answer(&st.sensing, &counts, &spec.region, spec.kind);
    (!a.bracket.miss && !counts.missed.get()).then_some(a)
}

/// Folds one served answer into the metric registry and trace ring.
fn record_served(st: &ServerState, answer: &ServedAnswer) {
    let m = &st.shared.metrics;
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
