//! The write path: event validation, the registry hand-off, and the one
//! routine that puts events on a shard lane.
//!
//! ```text
//! ingest / ingest_batch ─▶ check_event ─▶ registry (totals + standing deltas)
//!                          ─▶ lane lock: trim → stamp (→ redo-push when durable)
//!                                        → record_route → send
//! ```

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crossbeam::channel;
use stq_core::tracker::Crossing;
use stq_forms::ColumnarBatch;

use crate::metrics::Metrics;
use crate::server::Runtime;
use crate::shard::ShardMsg;
use crate::state::ServerState;
use crate::supervisor::{IngestLane, SupervisorMsg};

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

impl Runtime {
    /// Streams one boundary-crossing event into the owning shard. The event
    /// is sequence-stamped, retained in a durable lane's redo buffer until
    /// the shard acknowledges durability, and folded into the shard's forms
    /// (and WAL) by the worker. The per-edge lifetime totals grow *before* the
    /// shard applies the event, so degradation bounds for silent shards stay
    /// sound at every instant — and the subscription registry applies the
    /// event's bracket deltas in the same step (the event-driven push path:
    /// standing answers are fresh the moment `ingest` returns, without any
    /// re-execution).
    ///
    /// A malformed event (unknown edge, non-finite timestamp) is refused
    /// with an [`IngestError`] before touching any shared state; refusals
    /// are counted in the `ingest_rejected` metric.
    pub fn ingest(&self, c: Crossing) -> Result<(), IngestError> {
        let st = self.st();
        check_event(st, &c)?;
        through_registry(st, std::slice::from_ref(&c));
        send_one(st, c);
        self.maybe_rebalance();
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
        let st = self.st();
        let mut valid: Vec<Crossing> = Vec::with_capacity(events.len());
        valid.extend(events.iter().filter(|c| check_event(st, c).is_ok()));
        let rejected = events.len() - valid.len();
        if valid.is_empty() {
            return IngestReport { accepted: 0, rejected, lanes: 0 };
        }
        // One registry lock for the whole batch: totals and standing
        // brackets advance event by event in input order, exactly as the
        // sequential path would; each touched subscription is pushed its
        // final bracket once, when the batch ends.
        through_registry(st, &valid);
        // Ingest pressure surfaces on the read-side admission gate while
        // the batch is in flight, so a write flood degrades reads honestly
        // instead of invisibly starving them.
        let charged = st.overload.as_ref().map_or(0, |ov| ov.charge_ingest(valid.len()));
        // Group by owning shard into columnar lanes. Per-edge event order
        // is preserved: an edge maps to exactly one shard at a time, and
        // within a lane events keep input order.
        let map = &st.shared.map;
        let mut lanes_by_shard = vec![ColumnarBatch::default(); st.shared.lanes.len()];
        for &c in &valid {
            lanes_by_shard[map.shard_of(c.edge)].push(c.edge, c.forward, c.time);
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
                let mut lane = st.shared.lanes[shard].lock();
                let mut own = ColumnarBatch::with_capacity(lane_batch.len());
                for (edge, forward, time) in lane_batch.iter() {
                    if map.shard_of(edge) == shard {
                        own.push(edge, forward, time);
                    } else {
                        moved.push(Crossing { edge, forward, time });
                    }
                }
                if !own.is_empty() {
                    enqueue(st, shard, &mut lane, Payload::Lane(own));
                }
            }
            for c in moved {
                send_one(st, c);
            }
        }
        Metrics::bump(&st.shared.metrics.ingest_batches);
        if let Some(ov) = st.overload.as_ref() {
            ov.release(charged);
        }
        self.maybe_rebalance();
        IngestReport { accepted: valid.len(), rejected, lanes: lanes_used }
    }

    /// Fires the load-aware rebalance check after an ingest step.
    fn maybe_rebalance(&self) {
        if self.st().shared.map.rebalance_due() {
            self.rebalance_now();
        }
    }

    /// Plans and executes one load-aware rebalance round through the
    /// supervisor (which serializes it against crash recoveries). Returns
    /// the number of edges migrated — 0 when rebalancing is off, the plan is
    /// empty, or the migration aborted.
    pub fn rebalance_now(&self) -> usize {
        let moves = self.st().shared.map.plan_rebalance();
        if moves.is_empty() {
            return 0;
        }
        let (done_tx, done_rx) = channel::bounded(1);
        let request = SupervisorMsg::Migrate { moves, done: done_tx };
        if self.running().supervisor.send(request).is_err() {
            return 0;
        }
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(outcome) if outcome.committed => outcome.edges_moved,
            _ => 0,
        }
    }

    /// Barrier: waits until every shard has applied all previously ingested
    /// events (and synced its WAL, when durability is on). Returns each
    /// shard's highest applied sequence number.
    pub fn flush_ingest(&self) -> Vec<u64> {
        self.ask_shards(ShardMsg::Flush, "shard flush")
    }
}

/// Validates one event against the deployment; refusals bump the
/// `ingest_rejected` counter so operators can see malformed traffic.
fn check_event(st: &ServerState, c: &Crossing) -> Result<(), IngestError> {
    let num_edges = st.shared.subs.totals().len();
    let err = if c.edge >= num_edges {
        IngestError::UnknownEdge { edge: c.edge, num_edges }
    } else if !c.time.is_finite() {
        IngestError::NonFiniteTime { edge: c.edge }
    } else {
        return Ok(());
    };
    Metrics::bump(&st.shared.metrics.ingest_rejected);
    Err(err)
}

/// Routes validated events through the subscription registry: bumps the
/// lifetime totals (inside the registry lock) and delta-pushes affected
/// brackets.
fn through_registry(st: &ServerState, events: &[Crossing]) {
    // The degraded answerer's brackets are certified against the
    // construction-time store; any new event invalidates them.
    st.deg_dirty.store(true, Ordering::Release);
    let metrics = &st.shared.metrics;
    let push_t0 = Instant::now();
    let obs = st.shared.subs.on_ingest_batch(events);
    if obs.deltas > 0 {
        metrics.delta_push_latency.record(push_t0.elapsed().as_micros() as u64);
        Metrics::add(&metrics.deltas_pushed, obs.deltas as u64);
    }
}

/// What one lane-lock hold hands a shard: `ingest`'s single event (one WAL
/// record) or one of `ingest_batch`'s columnar lanes (one group-commit
/// frame).
enum Payload {
    One(Crossing),
    Lane(ColumnarBatch),
}

/// Puts `payload` on `shard`'s lane. The caller holds the lane lock and has
/// checked, under it, that the map still routes every event here; the lock
/// covers the trim, sequence assignment, redo push (durable lanes only) AND
/// the channel send, so sequences arrive at the worker in order.
fn enqueue(st: &ServerState, shard: usize, lane: &mut IngestLane, payload: Payload) {
    let durable = st.shared.durable_seq[shard].load(Ordering::Acquire);
    while lane.buf.front().is_some_and(|&(s, _)| s <= durable) {
        lane.buf.pop_front();
    }
    let first_seq = lane.next_seq + 1;
    let mut stamp = |c: Crossing| {
        lane.next_seq += 1;
        if st.cfg.durability.is_some() {
            lane.buf.push_back((lane.next_seq, c));
        }
    };
    let msg = match payload {
        Payload::One(event) => {
            stamp(event);
            ShardMsg::Ingest { seq: first_seq, event }
        }
        Payload::Lane(own) => {
            for (edge, forward, time) in own.iter() {
                stamp(Crossing { edge, forward, time });
            }
            ShardMsg::IngestBatch { first_seq, lane: own }
        }
    };
    st.shared.map.record_route(shard, lane.next_seq + 1 - first_seq);
    let _ = st.to_shards[shard].send(msg);
}

/// Sends one validated event to its owning shard. The map re-read under the
/// lane lock makes routing race-free against migrations: a migration
/// commits its new assignment while holding the involved lane locks, so a
/// map read under a lane lock that still routes here is current — on a
/// mismatch we simply retry against the new owner.
fn send_one(st: &ServerState, c: Crossing) {
    loop {
        let shard = st.shared.map.shard_of(c.edge);
        let mut lane = st.shared.lanes[shard].lock();
        if st.shared.map.shard_of(c.edge) == shard {
            return enqueue(st, shard, &mut lane, Payload::One(c));
        }
        // Migrated between the read and the lock; re-route.
    }
}

#[cfg(test)]
mod tests {
    use stq_core::prelude::*;

    use super::*;
    use crate::server::{DurabilityConfig, RuntimeConfig};

    #[test]
    fn lane_retains_only_what_a_kill_could_need() {
        let scenario = Scenario::build(ScenarioConfig {
            junctions: 120,
            mix: WorkloadMix { random_waypoint: 8, commuter: 4, transit: 2 },
            seed: 29,
            ..Default::default()
        });
        // Nothing is queried, so which sensors are deployed does not matter.
        let sampled = SampledGraph::unsampled(&scenario.sensing);
        let ne = scenario.sensing.num_edges();
        let event = |i: usize| Crossing {
            time: 10_000.0 + i as f64 * 0.25,
            edge: i % ne,
            forward: i % 3 != 0,
        };
        let events: Vec<Crossing> = (0..4096).map(event).collect();
        let dir = std::env::temp_dir().join(format!("stq-rt-lane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let durable = DurabilityConfig { sync_every: 16, ..DurabilityConfig::new(&dir) };
        for durability in [None, Some(durable)] {
            let cfg = RuntimeConfig { num_shards: 3, durability, ..RuntimeConfig::default() };
            let rt = Runtime::new(
                scenario.sensing.clone(),
                sampled.clone(),
                &scenario.tracked.store,
                cfg,
            );
            for batch in events.chunks(256) {
                assert_eq!(rt.ingest_batch(batch).accepted, batch.len());
            }
            rt.flush_ingest();
            let st = rt.st();
            let stamped: u64 = st.shared.lanes.iter().map(|lane| lane.lock().next_seq).sum();
            assert_eq!(stamped, 4096);
            let durable = st.cfg.durability.is_some();
            if durable {
                // The flush synced everything; each lane's next enqueue
                // trims it down to the one event past that floor.
                for shard in 0..st.shared.lanes.len() {
                    rt.ingest(Crossing { edge: shard, ..event(4096) }).expect("ingest");
                }
            }
            for (lane, floor) in st.shared.lanes.iter().zip(&st.shared.durable_seq) {
                let (lane, floor) = (lane.lock(), floor.load(Ordering::Acquire));
                // Nothing can kill a memory-only worker, so nothing is kept
                // to rebuild one; a durable lane keeps what is not yet synced.
                assert_eq!(lane.buf.is_empty(), !durable, "retained {}", lane.buf.len());
                assert!(lane.buf.iter().all(|&(seq, _)| seq > floor), "untrimmed below {floor}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
