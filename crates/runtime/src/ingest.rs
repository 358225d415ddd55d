//! The write path: event validation, the registry hand-off, and the one
//! routine that puts events on a shard lane. There is one path: `ingest` is
//! `ingest_batch` of one event, which reaches its shard as a lane of one.
//!
//! ```text
//! ingest / ingest_batch ─▶ check_event ─▶ registry (one lock: totals + mirror
//!                                                   + standing deltas)
//!                          ─▶ group: epoch → owner of each event, once → lane sizes
//!                                    → each lane allocated at its length and filled
//!                          ─▶ dispatch, lane locks: epoch check → `IngestLane::stamp`
//!                                      (trim → retain) → record_route → send
//! ```
//!
//! The calling thread passes over the batch once to validate it, once in the
//! registry and twice to group it (owners, then lanes), and allocates a fixed
//! number of times per call, whatever the batch's length: the owners, the
//! lane sizes and the table of lanes, a buffer and an `Arc` per lane, and the
//! vector of held locks. Owners are read without a lock, so a grouping
//! is sent only under the map epoch it was made under (`dispatch`).

use std::sync::atomic::Ordering;
use std::time::Duration;

use crossbeam::{channel, clock};
use stq_core::tracker::Crossing;

use crate::lifecycle::Lane;
use crate::metrics::Metrics;
use crate::server::Runtime;
use crate::shard::ShardMsg;
use crate::state::ServerState;
use crate::supervisor::SupervisorMsg;

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
    /// Streams one boundary-crossing event into its owning shard, as
    /// [`Runtime::ingest_batch`] of that one event: it reaches the shard as a
    /// lane of one, and a durable shard logs it as a one-event WAL frame. The
    /// per-edge lifetime totals grow *before* the shard applies the event, so
    /// degradation bounds for silent shards stay sound at every instant — and
    /// the subscription registry applies the event's bracket deltas in the
    /// same step (the event-driven push path: standing answers are fresh the
    /// moment `ingest` returns, without any re-execution).
    ///
    /// A malformed event (unknown edge, non-finite timestamp) is refused
    /// with an [`IngestError`] before touching any shared state; refusals
    /// are counted in the `ingest_rejected` metric.
    pub fn ingest(&self, c: Crossing) -> Result<(), IngestError> {
        check_event(self.st(), &c)?;
        self.ingest_valid(std::slice::from_ref(&c));
        Ok(())
    }

    /// Streams a batch of events, copied once into one lane per owning shard
    /// (its events, in input order). A worker applies its lane, and a durable
    /// one logs it as one WAL frame under the one sync rule
    /// ([`DurabilityConfig::sync_every`](crate::DurabilityConfig::sync_every)).
    /// Calling [`Runtime::ingest`] once per event in order takes the same path
    /// with lanes of one — shard states, recovery digests, totals, and
    /// standing brackets come out bit-identical — but malformed events are
    /// skipped (and counted) instead of failing the batch, and standing
    /// subscriptions are pushed to per call, not per event: one `Delta`
    /// update per touched subscription per `ingest_batch` call (per event
    /// for `ingest`), carrying the bracket as of the end of the batch.
    pub fn ingest_batch(&self, events: &[Crossing]) -> IngestReport {
        let st = self.st();
        // Once per event (a refusal is counted); a clean batch is not copied.
        let kept: Vec<Crossing>;
        let valid = match events.iter().position(|c| check_event(st, c).is_err()) {
            None => events,
            Some(bad) => {
                let rest = events[bad + 1..].iter().filter(|c| check_event(st, c).is_ok());
                kept = events[..bad].iter().chain(rest).copied().collect();
                &kept
            }
        };
        let rejected = events.len() - valid.len();
        IngestReport { accepted: valid.len(), rejected, lanes: self.ingest_valid(valid) }
    }

    /// The one ingest path, for events that passed `check_event`: returns
    /// the number of shard lanes they were sent as.
    fn ingest_valid(&self, valid: &[Crossing]) -> usize {
        if valid.is_empty() {
            return 0;
        }
        let st = self.st();
        // One registry lock for the whole call: totals and standing
        // brackets advance event by event in input order; each touched
        // subscription is pushed its final bracket once, when the call ends.
        through_registry(st, valid);
        // A grouping that straddled a migration's commit is not sent, in
        // part or in whole, but made again.
        let lanes = loop {
            if let Some(lanes) = dispatch(st, group(st, valid)) {
                break lanes;
            }
        };
        Metrics::bump(&st.shared.metrics.ingest_batches);
        self.maybe_rebalance();
        lanes
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
        done_rx.recv_deadline(clock::now() + Duration::from_secs(30)).unwrap_or(0)
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
/// brackets, then counts what the registry did — the live-subscription gauge
/// included, read under that same lock after any dead subscriber was dropped.
/// A call with nothing to record records nothing: the push is timed only
/// while the gauge says a subscription is live (without one there is no
/// delta; a subscriber registered while the call is under way can go
/// untimed in it), and a zero is never added.
fn through_registry(st: &ServerState, events: &[Crossing]) {
    let metrics = &st.shared.metrics;
    let push_t0 = (metrics.subscriptions.load(Ordering::Relaxed) > 0).then(clock::now);
    let obs = st.shared.subs.on_ingest_batch(events);
    if obs.deltas > 0 {
        if let Some(t0) = push_t0 {
            metrics.delta_push_latency.record(clock::since(t0).as_micros() as u64);
        }
        Metrics::add(&metrics.deltas_pushed, obs.deltas as u64);
    }
    if obs.late > 0 {
        Metrics::add(&metrics.late_ignored, obs.late as u64);
    }
    metrics.subscriptions.store(obs.subscriptions as u64, Ordering::Relaxed);
}

/// A validated batch grouped by owning shard under one map epoch, so that
/// an edge's events are all in one lane: `lanes[shard]` holds that shard's
/// events in input order, empty where the batch does not reach it.
struct Grouping {
    epoch: u64,
    lanes: Vec<Vec<Crossing>>,
}

impl Grouping {
    /// The shards the batch reaches, ascending.
    fn used(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes.iter().enumerate().filter(|(_, lane)| !lane.is_empty()).map(|(shard, _)| shard)
    }
}

/// Groups `events` by owning shard. Every owner is read once, under the
/// epoch read first, and counted; each lane is then allocated at its final
/// length and filled from those reads alone, so it never grows, and a
/// migration that commits meanwhile cannot make a lane lose or repeat an
/// event — only make [`dispatch`] refuse the grouping. A batch for one shard
/// is one lane, equal to the batch.
fn group(st: &ServerState, events: &[Crossing]) -> Grouping {
    let map = &st.shared.map;
    let epoch = map.epoch(); // before any `shard_of`, as in `dispatch.rs::route`
    let mut sizes = vec![0; st.shared.lanes.len()];
    let owners: Vec<usize> = events
        .iter()
        .map(|c| {
            let shard = map.shard_of(c.edge);
            sizes[shard] += 1;
            shard
        })
        .collect();
    let mut lanes: Vec<Vec<Crossing>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (&c, &shard) in events.iter().zip(&owners) {
        lanes[shard].push(c);
    }
    Grouping { epoch, lanes }
}

/// Sends every lane of `grouping`, in the `Arc` the worker and the redo
/// buffer share, and says how many — or none (`None`) when the map has moved
/// on since. The lanes' locks are taken together, ascending
/// (the supervisor's order); a migration stores its owners, then bumps the
/// epoch, under every involved shard's, so no owner read here has changed or can.
fn dispatch(st: &ServerState, mut grouping: Grouping) -> Option<usize> {
    let mut held: Vec<_> =
        grouping.used().map(|shard| (shard, st.shared.lanes[shard].lock())).collect();
    if st.shared.map.epoch() != grouping.epoch {
        return None;
    }
    for (shard, guard) in &mut held {
        let lane = Lane::new(std::mem::take(&mut grouping.lanes[*shard]));
        let first_seq = guard.stamp(st.shared.durable_seq[*shard].load(Ordering::Acquire), &lane);
        st.shared.map.record_route(*shard, lane.len() as u64);
        let _ = st.to_shards[*shard].send(ShardMsg::IngestBatch { first_seq, lane });
    }
    Some(held.len())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use crossbeam::channel::Receiver;
    use stq_core::prelude::*;
    use stq_durability::{apply_crossing, state_digest};
    use stq_forms::ShardForms;

    use super::*;
    use crate::server::{DurabilityConfig, RuntimeConfig};
    use crate::shardmap::Migration;
    use crate::state::Shared;

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig {
            junctions: 120,
            mix: WorkloadMix { random_waypoint: 8, commuter: 4, transit: 2 },
            seed: 29,
            ..Default::default()
        })
    }

    fn event(num_edges: usize, i: usize) -> Crossing {
        Crossing { time: 10_000.0 + i as f64 * 0.25, edge: i % num_edges, forward: i % 3 != 0 }
    }

    #[test]
    fn lane_retains_only_what_a_kill_could_need() {
        let scenario = scenario();
        // Nothing is queried, so which sensors are deployed does not matter.
        let sampled = SampledGraph::unsampled(&scenario.sensing);
        let ne = scenario.sensing.num_edges();
        let events: Vec<Crossing> = (0..4096 + 256).map(|i| event(ne, i)).collect();
        let (events, one_more_batch) = events.split_at(4096);
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
            // The flush synced everything: each lane's next enqueue drops
            // whatever it still held.
            let floors = rt.flush_ingest();
            assert_eq!(floors.iter().sum::<u64>(), 4096);
            // One event per lane, too few for the worker to sync on its own
            // (`sync_every`), then a batch on top of it.
            let st = rt.st();
            let one_event_each = |i| {
                for shard in 0..st.shared.lanes.len() {
                    rt.ingest(Crossing { edge: shard, ..event(ne, i) }).expect("ingest");
                }
            };
            one_event_each(4096);
            assert_eq!(rt.ingest_batch(one_more_batch).lanes, 3);
            let retained = |shard: usize| -> Vec<(u64, usize)> {
                let lane = st.shared.lanes[shard].lock();
                lane.buf.iter().map(|(first, sent)| (*first, sent.len())).collect()
            };
            if st.cfg.durability.is_none() {
                // Nothing can kill a memory-only worker, so nothing is kept
                // to rebuild one.
                assert!((0..3).all(|shard| retained(shard).is_empty()));
                continue;
            }
            // A durable lane keeps what was not synced when it was last sent
            // to, one entry per lane sent — not one per event.
            let heads = rt.flush_ingest();
            let in_batch = |shard: usize| (heads[shard] - floors[shard] - 1) as usize;
            for (shard, (floor, head)) in floors.iter().zip(&heads).enumerate() {
                assert!(in_batch(shard) > 1, "the batch reached every shard");
                assert_eq!(retained(shard), [(floor + 1, 1), (floor + 2, in_batch(shard))]);
                // As if the WAL were synced to the batch's last event but one
                // (the workers are idle and will not sync one event more).
                st.shared.durable_seq[shard].store(head - 1, Ordering::Release);
            }
            // A floor inside a lane keeps the whole lane.
            one_event_each(4097);
            for (shard, (floor, head)) in floors.iter().zip(&heads).enumerate() {
                assert_eq!(retained(shard), [(floor + 2, in_batch(shard)), (head + 1, 1)]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A three-shard server state over `scenario` whose shard channels end in
    /// the test: no worker, no supervisor, so what was sent stays observable.
    fn unserved(scenario: &Scenario) -> (ServerState, Vec<Receiver<ShardMsg>>) {
        let cfg = RuntimeConfig { num_shards: 3, ..RuntimeConfig::default() };
        let store = &scenario.tracked.store;
        let sensing = scenario.sensing.clone();
        let sampled = SampledGraph::unsampled(&sensing);
        let shared = Arc::new(Shared::new(sensing, sampled, store, &cfg, &[]));
        let (to_shards, rxs) = (0..cfg.num_shards).map(|_| channel::unbounded()).unzip();
        (ServerState::new(shared, cfg, to_shards), rxs)
    }

    /// `events`, as `shard` receives them, and the digest of that shard's cut
    /// of the store (under the current map) once they are applied.
    fn on_shard(
        st: &ServerState,
        scenario: &Scenario,
        shard: usize,
        events: Vec<Crossing>,
    ) -> (Vec<Crossing>, u64) {
        let owned = |e| st.shared.map.shard_of(e) == shard;
        let mut forms = ShardForms::cut_from(&scenario.tracked.store, owned);
        assert!(events.iter().all(|c| apply_crossing(&mut forms, c)), "shard {shard}: late event");
        (events, state_digest(&forms))
    }

    /// Per shard, [`on_shard`] of the events that reached its channel, in
    /// order, their sequences contiguous from 1.
    fn delivered(
        st: &ServerState,
        scenario: &Scenario,
        rxs: &[Receiver<ShardMsg>],
    ) -> Vec<(Vec<Crossing>, u64)> {
        let drain = |(shard, rx): (usize, &Receiver<ShardMsg>)| {
            let mut got: Vec<Crossing> = Vec::new();
            while let Ok(msg) = rx.try_recv() {
                let ShardMsg::IngestBatch { first_seq, lane } = msg else {
                    panic!("only ingests were sent")
                };
                assert_eq!(first_seq, got.len() as u64 + 1, "shard {shard}: sequence gap");
                got.extend(lane.iter());
            }
            assert_eq!(st.shared.lanes[shard].lock().next_seq, got.len() as u64);
            on_shard(st, scenario, shard, got)
        };
        rxs.iter().enumerate().map(drain).collect()
    }

    #[test]
    fn a_grouping_is_sent_only_under_the_map_epoch_it_was_made_under() {
        let scenario = scenario();
        let ne = scenario.sensing.num_edges();
        // A third of the events cross edge 2, which shard 2 hands to shard 0.
        let hot = Migration { edge: 2, from: 2, to: 0 };
        let events: Vec<Crossing> = (0..96)
            .map(|i| Crossing { edge: if i % 3 == 0 { hot.edge } else { i % ne }, ..event(ne, i) })
            .collect();
        let on_hot = |events: &[Crossing]| -> Vec<Crossing> {
            events.iter().filter(|c| c.edge == hot.edge).copied().collect()
        };

        // The reference: each shard's share of the events under the map
        // after the migration, in input order.
        let (st, rxs) = unserved(&scenario);
        st.shared.map.commit(&[hot]);
        let share = |shard: usize| {
            let owned = events.iter().filter(|c| st.shared.map.shard_of(c.edge) == shard);
            on_shard(&st, &scenario, shard, owned.copied().collect())
        };
        let want: Vec<_> = (0..rxs.len()).map(share).collect();
        assert_eq!(on_hot(&want[hot.to].0), on_hot(&events));

        // The commit lands after the whole batch was grouped, or half-way
        // through: edge 2's earlier events sit in lane 2 and its later ones
        // in lane 0, which is sent first (the parent then detoured lane 2's
        // to shard 0 *behind* them, where the worker drops them as late).
        for grouped_before_commit in [events.len(), events.len() / 2] {
            let (st, rxs) = unserved(&scenario);
            let (before, after) = events.split_at(grouped_before_commit);
            let Grouping { epoch, mut lanes } = group(&st, before);
            st.shared.map.commit(&[hot]);
            for (lane, later) in lanes.iter_mut().zip(group(&st, after).lanes) {
                lane.extend(later);
            }
            assert_eq!(on_hot(&lanes[hot.from]), on_hot(before));
            assert_eq!(on_hot(&lanes[hot.to]), on_hot(after));
            let stale = Grouping { epoch, lanes };

            assert_eq!(dispatch(&st, stale), None, "sent under a newer map");
            assert!(rxs.iter().all(|rx| rx.is_empty()), "part of a stale grouping was sent");
            assert!(st.shared.lanes.iter().all(|lane| lane.lock().next_seq == 0));
            assert_eq!(dispatch(&st, group(&st, &events)), Some(3), "nothing committed since");
            assert_eq!(delivered(&st, &scenario, &rxs), want);
        }
    }

    #[test]
    fn a_grouping_keeps_every_event_once_in_its_owners_lane_in_input_order() {
        let scenario = scenario();
        let ne = scenario.sensing.num_edges();
        let (st, _rxs) = unserved(&scenario);
        // Every event's time is its own, so each one can be told apart.
        let events: Vec<Crossing> =
            (0..1000).map(|i| Crossing { edge: i * 7919 % ne, ..event(ne, i) }).collect();
        let times = |events: &mut dyn Iterator<Item = &Crossing>| -> Vec<u64> {
            let mut times: Vec<u64> = events.map(|c| c.time.to_bits()).collect();
            times.sort_unstable();
            times
        };
        // Under the modulo map, then with edge 2 moved from shard 2 to 0.
        for moved in [false, true] {
            if moved {
                st.shared.map.commit(&[Migration { edge: 2, from: 2, to: 0 }]);
            }
            for len in [0, 1, 2, 255, 256, 1000] {
                let batch = &events[..len];
                let Grouping { epoch, lanes } = group(&st, batch);
                assert_eq!(epoch, st.shared.map.epoch());
                assert_eq!(lanes.len(), 3, "one lane a shard");
                for (shard, lane) in lanes.iter().enumerate() {
                    let owned = batch.iter().filter(|c| st.shared.map.shard_of(c.edge) == shard);
                    assert_eq!(*lane, owned.copied().collect::<Vec<_>>(), "shard {shard}, {len}");
                    assert_eq!(lane.capacity(), lane.len(), "allocated at its final length");
                }
                assert_eq!(times(&mut lanes.iter().flatten()), times(&mut batch.iter()));
            }
        }
        // A batch for one shard is one lane, the batch itself.
        for shard in 0..3 {
            let own = |c: &&Crossing| st.shared.map.shard_of(c.edge) == shard;
            let batch: Vec<Crossing> = events.iter().filter(own).copied().collect();
            let grouping = group(&st, &batch);
            assert_eq!(grouping.used().collect::<Vec<_>>(), [shard]);
            assert_eq!(grouping.lanes[shard], batch);
        }
    }

    /// Two writers stream `ingest_batch` calls while a third thread keeps
    /// asking for a rebalance, so migrations commit between batches being
    /// grouped and dispatched. Each writer owns its edges (every edge's events
    /// keep their order) and puts four events of five on a dozen edges of
    /// shard 0 that changes every 500 events, so the load stays skewed and
    /// the map keeps moving (a few groupings a run are refused and made
    /// again). The shards must end holding exactly the sequential oracle's
    /// forms, cut by the map they ended under.
    #[test]
    fn batches_racing_migrations_land_exactly_once_on_their_owners() {
        let scenario = scenario();
        let ne = scenario.sensing.num_edges();
        let cfg = RuntimeConfig { num_shards: 3, rebalance: true, ..RuntimeConfig::default() };
        let sampled = SampledGraph::unsampled(&scenario.sensing);
        let rt = Runtime::new(scenario.sensing.clone(), sampled, &scenario.tracked.store, cfg);
        let writers = 2;
        // Writer `w` crosses edges `≡ w (mod 2)`; its hot edges are `≡ 0 (mod 3)` too.
        let stream = |w: usize| -> Vec<Crossing> {
            (0..8_000)
                .map(|i| {
                    let hot = 6 * ((i / 500 * 12 + i % 12) % (ne / 6)) + 3 * w;
                    let edge = if i % 5 < 4 { hot } else { writers * (i % (ne / writers)) + w };
                    Crossing { edge, ..event(ne, i) }
                })
                .collect()
        };
        let streams: Vec<Vec<Crossing>> = (0..writers).map(stream).collect();
        assert!(streams.iter().flatten().all(|c| c.edge < ne), "fixture too small");
        let writing = AtomicBool::new(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                while writing.load(Ordering::Relaxed) {
                    rt.rebalance_now();
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let ingest = |events: &Vec<Crossing>| {
                for batch in events.chunks(64) {
                    assert_eq!(rt.ingest_batch(batch).accepted, batch.len());
                }
            };
            let handles: Vec<_> =
                streams.iter().map(|events| s.spawn(move || ingest(events))).collect();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            // Stop the rebalancer before a writer's panic is raised, or the
            // scope would wait for it forever.
            writing.store(false, Ordering::Relaxed);
            for writer in joined {
                writer.expect("writer");
            }
        });
        let heads = rt.flush_ingest();
        assert_eq!(heads.iter().sum::<u64>(), (writers * 8_000) as u64, "every event, once");
        assert!(rt.map_epoch() >= 2, "the map moved while batches were in flight");

        let mut oracle = scenario.tracked.store.clone();
        for c in streams.iter().flatten() {
            oracle.record(c.edge, c.forward, c.time);
        }
        let st = rt.st();
        let cut = |shard| {
            let owned = |e| st.shared.map.shard_of(e) == shard;
            state_digest(&ShardForms::cut_from(&oracle, owned))
        };
        assert_eq!(rt.shard_digests(), (0..3).map(cut).collect::<Vec<_>>());
        rt.shutdown();
    }
}
