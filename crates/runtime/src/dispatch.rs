//! The fan-out / retry / breaker loop: one query's boundary edges out to
//! their owning shards and the per-edge contributions back, attempt by
//! attempt, until everything reported or the budget ran out.
//!
//! Per-query state is a handful of `Vec`s indexed by shard, so shards are
//! asked in ascending index order on every attempt.

use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use stq_core::engine::QueryPlan;
use stq_forms::BoundaryEdge;

use crate::metrics::Metrics;
use crate::overload::{stride_for, Gate, Transition};
use crate::server::QuerySpec;
use crate::shard::{EdgeCounts, ShardMsg, ShardRequest, ShardResponse};
use crate::state::ServerState;

/// How often a waiting aggregator re-checks shard health, so a worker dying
/// mid-attempt shortens the wait to one slice instead of the full timeout.
const HEALTH_RECHECK: Duration = Duration::from_millis(5);

/// What the fan-out brought back for the aggregator to fold.
pub(crate) struct Collected {
    /// Per boundary position, the owning shard's contribution — `None` for
    /// every edge that never reported (silent, skipped, refused or shed).
    pub slots: Vec<Option<EdgeCounts>>,
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

/// One query's fan-out in flight.
struct Fanout<'a> {
    st: &'a ServerState,
    id: u64,
    spec: &'a QuerySpec,
    /// Boundary edges still unanswered, by owning shard, each tagged with
    /// its position in the chain so the aggregate fold preserves term
    /// order.
    pending: Vec<Vec<(usize, BoundaryEdge)>>,
    /// Shards asked on the current attempt that have not answered yet.
    awaiting: Vec<bool>,
    /// Shards whose worker panicked on the current attempt: they answered
    /// (so the channel is live) but produced nothing.
    panicked: Vec<bool>,
    got: Collected,
}

/// Fans `plan`'s boundary out at brownout precision `level` and collects
/// what the shards return within the retry budget and the query deadline.
///
/// Level 0 serves every edge; higher levels serve every 2nd / 4th / no edge
/// — the skipped ones fall to the same worst-case-totals degradation as
/// silent shards, so the answer is cheaper and wider but still sound.
pub(crate) fn fan_out(
    st: &ServerState,
    id: u64,
    spec: &QuerySpec,
    plan: &QueryPlan,
    level: u8,
) -> Collected {
    let ns = st.to_shards.len();
    let mut pending = vec![Vec::new(); ns];
    for (idx, be) in plan.shed_boundary(stride_for(level)) {
        pending[st.shared.map.shard_of(be.edge)].push((idx, be));
    }
    let got = Collected {
        slots: vec![None; plan.boundary.len()],
        refused: 0,
        fanout: pending.iter().filter(|edges| !edges.is_empty()).count(),
        retries: 0,
        expired: false,
    };
    let mut q =
        Fanout { st, id, spec, pending, awaiting: vec![false; ns], panicked: vec![false; ns], got };
    // Bounded per-query response channel (see `ServerState::resp_capacity`);
    // shards `try_send`, so a late answer past the cap is dropped, never a
    // blocked worker.
    let (tx, rx) = channel::bounded::<ShardResponse>(st.resp_capacity.max(1));
    for attempt in 0..=st.cfg.max_retries {
        // Deadline short-circuit at the fan-out hop: no further attempts
        // once the budget is gone — whatever already reported is folded,
        // the rest degrades.
        if spec.deadline.is_some_and(|dl| Instant::now() >= dl) {
            q.got.expired = true;
            break;
        }
        let waited = q.send(attempt, &tx);
        q.collect(attempt, &rx);
        if q.pending.iter().all(Vec::is_empty) {
            break;
        }
        if waited {
            Metrics::bump(&st.shared.metrics.timeouts);
        }
        if attempt < st.cfg.max_retries {
            q.got.retries += 1;
            Metrics::bump(&st.shared.metrics.retries);
        }
    }
    q.got
}

impl Fanout<'_> {
    /// Sends this attempt's requests, in ascending shard order. Unhealthy /
    /// recovering shards are skipped outright: their edges degrade to
    /// worst-case bounds instead of stalling the query, and a shard that
    /// finishes recovery before a later attempt rejoins then. Open circuit
    /// breakers skip the same way (no retry storm against a
    /// repeatedly-silent shard), except for the one half-open probe.
    /// Returns whether any shard was asked.
    fn send(&mut self, attempt: u32, reply: &Sender<ShardResponse>) -> bool {
        let st = self.st;
        let metrics = &st.shared.metrics;
        self.awaiting.fill(false);
        self.panicked.fill(false);
        let mut skipped_unhealthy = 0u64;
        for (shard, edges) in self.pending.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
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
            self.awaiting[shard] = true;
            Metrics::bump(&metrics.shard_requests);
            let _ = st.to_shards[shard].send(ShardMsg::Query(ShardRequest {
                query_id: self.id,
                attempt,
                kind: self.spec.kind,
                edges: edges.clone(),
                deadline: self.spec.deadline,
                reply: reply.clone(),
            }));
        }
        if skipped_unhealthy > 0 {
            Metrics::add(&metrics.skipped_unhealthy, skipped_unhealthy);
        }
        self.awaiting.contains(&true)
    }

    /// Every shard still awaited has panicked on this attempt — waiting out
    /// the timeout is pointless.
    fn only_panicked_left(&self) -> bool {
        self.awaiting.iter().zip(&self.panicked).all(|(&awaited, &panicked)| !awaited || panicked)
    }

    /// Waits out this attempt's window for the awaited shards, then charges
    /// the breakers of those that stayed silent.
    fn collect(&mut self, attempt: u32, rx: &Receiver<ShardResponse>) {
        let st = self.st;
        // Exponential backoff: attempt k waits 2^k × the base window —
        // clamped to the query deadline, which no attempt may overshoot.
        let mut deadline = Instant::now() + st.cfg.shard_timeout * (1u32 << attempt);
        if let Some(dl) = self.spec.deadline {
            deadline = deadline.min(dl);
        }
        while self.awaiting.contains(&true) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Wait in short slices so a worker dying mid-attempt (health
            // flips away from Healthy) releases the query after one slice
            // instead of the full backoff window.
            match rx.recv_timeout((deadline - now).min(HEALTH_RECHECK)) {
                Ok(resp) if resp.panicked => {
                    if self.awaiting[resp.shard] {
                        self.panicked[resp.shard] = true;
                        if self.only_panicked_left() {
                            break; // every awaited shard failed; retry now
                        }
                    }
                }
                Ok(resp) => self.accept(resp),
                Err(_) => {
                    let mut dropped = false;
                    for shard in 0..self.awaiting.len() {
                        let dead = !st.shared.healthy(shard) && !self.panicked[shard];
                        if self.awaiting[shard] && dead {
                            self.awaiting[shard] = false;
                            dropped = true;
                        }
                    }
                    if dropped && self.awaiting.contains(&true) && self.only_panicked_left() {
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
            for shard in 0..self.awaiting.len() {
                if self.awaiting[shard] && !self.panicked[shard] {
                    record_transition(st, ov.breakers.failure(shard));
                }
            }
        }
    }

    /// Takes one shard's answer. First response per shard wins; duplicates
    /// and answers from superseded attempts are ignored.
    fn accept(&mut self, resp: ShardResponse) {
        if self.pending[resp.shard].is_empty() {
            return;
        }
        self.pending[resp.shard].clear();
        self.awaiting[resp.shard] = false;
        self.got.refused += resp.refused.len();
        for c in resp.counts {
            self.got.slots[c.idx] = Some(c);
        }
        // Edges a migration moved away from the responding shard mid-query
        // re-enter the fan-out keyed by their current owner; a later
        // attempt serves them there (or they degrade soundly at
        // exhaustion).
        for (idx, be) in resp.moved {
            self.pending[self.st.shared.map.shard_of(be.edge)].push((idx, be));
        }
        if let Some(ov) = self.st.overload.as_ref() {
            record_transition(self.st, ov.breakers.success(resp.shard));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use stq_core::prelude::*;

    use super::*;
    use crate::server::RuntimeConfig;
    use crate::state::Shared;

    #[test]
    fn healthy_shards_are_asked_in_ascending_order() {
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
        let cfg = RuntimeConfig {
            num_shards: 5,
            shard_timeout: Duration::from_millis(1),
            max_retries: 0,
            ..RuntimeConfig::default()
        };
        let store = &scenario.tracked.store;
        let shared = Arc::new(Shared::new(store, &cfg, &[]));
        // One channel stands in for every shard (nobody answers), so the
        // order the requests were sent in is observable.
        let (tx, rx) = channel::unbounded();
        let to_shards = vec![tx; cfg.num_shards];
        let sensing = scenario.sensing.clone();
        let st = ServerState::new(shared, sensing, sampled, store, cfg, &[], to_shards);
        let mut widest = 0;
        for (region, t0, _) in scenario.make_queries(12, 0.25, 1_500.0, 3) {
            let spec = QuerySpec::new(region, QueryKind::Snapshot(t0), Approximation::Lower);
            let plan = QueryPlan::compile(&st.sensing, &st.sampled, &spec.region, spec.approx);
            let got = fan_out(&st, 0, &spec, &plan, 0);
            let mut asked = Vec::new();
            while let Ok(ShardMsg::Query(req)) = rx.try_recv() {
                let owners: Vec<usize> =
                    req.edges.iter().map(|(_, be)| st.shared.map.shard_of(be.edge)).collect();
                assert!(owners.windows(2).all(|w| w[0] == w[1]), "one owner per request");
                asked.push(owners[0]);
            }
            assert_eq!(asked.len(), got.fanout);
            assert!(asked.windows(2).all(|w| w[0] < w[1]), "not ascending: {asked:?}");
            widest = widest.max(asked.len());
        }
        assert!(widest >= 3, "some query must fan out to several shards");
    }
}
