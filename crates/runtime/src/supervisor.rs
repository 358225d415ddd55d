//! The shard supervisor: the loop that carries out what `crate::lifecycle`
//! decides. It spawns and joins workers, rebuilds and respawns dead ones, and
//! runs migrations: `Retire` sent and awaited, logs cut, the map committed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use crossbeam::clock::{self, JoinHandle};
use stq_durability::{apply_crossing, recover_shard, ShardDurability};
use stq_forms::ShardForms;

use crate::dispatch::recv_while_up;
use crate::lifecycle::{involved, lost_edges, moved, IngestLane, Rebuild, Step, RECOVERY};
use crate::metrics::Metrics;
use crate::server::{DurabilityConfig, RuntimeConfig};
use crate::shard::{RetiredState, ShardMsg, ShardWorker};
use crate::shardmap::Migration;
use crate::state::Shared;

/// Messages the supervisor thread consumes.
pub(crate) enum SupervisorMsg {
    /// A shard's worker died, at the fault-plan clock its next one starts from.
    Died(usize, u64),
    /// Execute a shard-map migration: retire the involved workers, move the
    /// listed edge forms between their states, commit the new assignment,
    /// and respawn. Replies on `done` with the edges moved (0: aborted, uncommitted).
    Migrate {
        moves: Vec<Migration>,
        done: Sender<usize>,
    },
    Shutdown,
}

pub(crate) struct Supervisor {
    /// The lanes, health slots, floors, registry and map the loop acts on.
    shared: Arc<Shared>,
    durability: Option<DurabilityConfig>,
    receivers: Vec<Receiver<ShardMsg>>,
    /// Senders to the shard channels, needed to post `Retire` during a
    /// migration.
    to_shards: Vec<Sender<ShardMsg>>,
    events_tx: Sender<SupervisorMsg>,
    /// Each shard's current incarnation; a respawn joins the one it
    /// replaces, so no exited thread's stack stays mapped behind a handle.
    handles: Vec<Option<JoinHandle<()>>>,
}

impl Supervisor {
    /// Builds the supervisor and spawns the initial worker per shard.
    /// `parts[i]` are shard `i`'s forms; with durability on, each shard's
    /// directory is initialized with a base snapshot of them.
    pub(crate) fn start(
        shared: Arc<Shared>,
        cfg: &RuntimeConfig,
        parts: Vec<ShardForms>,
        receivers: Vec<Receiver<ShardMsg>>,
        to_shards: Vec<Sender<ShardMsg>>,
        events_tx: Sender<SupervisorMsg>,
    ) -> Self {
        let mut sup = Supervisor {
            shared,
            durability: cfg.durability.clone(),
            handles: receivers.iter().map(|_| None).collect(),
            receivers,
            to_shards,
            events_tx,
        };
        for (i, forms) in parts.into_iter().enumerate() {
            let durability = sup.durability.as_ref().map(|cfg| {
                ShardDurability::initialize(
                    &cfg.wal_dir,
                    i,
                    &forms,
                    0,
                    cfg.snapshot_every,
                    cfg.sync_every,
                )
                .expect("initialize shard durability")
            });
            sup.respawn(i, RetiredState { forms, durability, ..Default::default() });
        }
        sup
    }

    /// The supervision loop: rebuild-and-respawn on every dead worker until
    /// the runtime signals shutdown, then join every shard's last
    /// incarnation (`respawn` joined the earlier ones).
    pub(crate) fn run(mut self, events_rx: Receiver<SupervisorMsg>) {
        while let Ok(msg) = events_rx.recv() {
            match msg {
                SupervisorMsg::Died(shard, delivered) => self.recover(shard, delivered),
                SupervisorMsg::Migrate { moves, done } => {
                    let moved = self.migrate(moves);
                    let _ = done.send(moved);
                }
                SupervisorMsg::Shutdown => break,
            }
        }
        // The supervisor holds its own clones of the shard senders (for the
        // Retire handshake); drop them so the workers see their channels
        // disconnect — by shutdown time the runtime has already dropped the
        // dispatcher-side senders.
        self.to_shards.clear();
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
    }

    /// Carries out a recovery under the dead shard's lane lock, which freezes
    /// the redo tail and the sequences until the next incarnation is spawned.
    fn recover(&mut self, shard: usize, delivered: u64) {
        let t0 = clock::now();
        let shared = Arc::clone(&self.shared);
        let lane = shared.lanes[shard].lock();
        let (mut state, mut quarantine) = self.rebuild(shard, &lane, delivered);
        for step in RECOVERY {
            match step {
                Step::Publish => shared.sync(shard, &mut state.durability),
                Step::Resnapshot => {
                    shared.resnapshot(std::mem::take(&mut quarantine));
                    shared.follow_quarantine();
                }
                Step::Health(up) => shared.health[shard].store(up, Ordering::Release),
                Step::Respawn => {
                    Metrics::bump(&shared.metrics.shard_respawns);
                    self.respawn(shard, std::mem::take(&mut state));
                }
                Step::Report => {}
            }
        }
        drop(lane);
        shared.metrics.recovery_us.record(clock::since(t0).as_micros() as u64);
    }

    /// A dead shard's state rebuilt up to the head of its frozen lane —
    /// disk, then the redo tail — and the edges to quarantine if that fails.
    fn rebuild(&self, shard: usize, lane: &IngestLane, clock: u64) -> (RetiredState, Vec<usize>) {
        let shared = &self.shared;
        // The floor the disk reaches, its forms and the handle to log through.
        let read = || {
            let cfg = self.durability.as_ref()?;
            let rec =
                recover_shard(&cfg.wal_dir, shard, cfg.snapshot_every, cfg.sync_every).ok()?;
            Metrics::add(&shared.metrics.wal_replayed, rec.report.wal_records);
            Some((rec.report.recovered_seq, (rec.forms, Some(rec.durability))))
        };
        let published = shared.durable_seq[shard].load(Ordering::Acquire);
        let (forms, durability, quarantine) = match Rebuild::choose(published, read, lane) {
            Rebuild::Redo { floor, disk: (mut forms, mut log) } => {
                // One event a frame, to the lane head; a failed write drops
                // only the log.
                for (seq, c) in lane.past(floor) {
                    debug_assert_eq!(shared.map.shard_of(c.edge), shard, "redo of a moved edge");
                    apply_crossing(&mut forms, c);
                    let frame = std::slice::from_ref(c);
                    shared.log_io(shard, &mut log, |d| d.append(seq, frame, &forms));
                }
                let redone = lane.past(floor).last().map_or(floor, |(seq, _)| seq);
                debug_assert_eq!(redone, lane.next_seq, "redo must reach the lane head");
                Metrics::add(&shared.metrics.redo_replayed, lane.next_seq - floor);
                (forms, log, Vec::new())
            }
            Rebuild::Lost { events } => {
                Metrics::add(&shared.metrics.lost_events, events);
                let owner = |e| shared.map.shard_of(e);
                (ShardForms::default(), None, lost_edges(shard, shared.subs.totals().len(), owner))
            }
        };
        (RetiredState { forms, durability, last_seq: lane.next_seq, delivered: clock }, quarantine)
    }

    /// Carries out one shard-map migration, serialized against recoveries, its
    /// lanes locked from before the first `Retire` to after the last respawn
    /// (an ingest's epoch re-check relies on it); health stays up throughout.
    fn migrate(&mut self, moves: Vec<Migration>) -> usize {
        let shared = Arc::clone(&self.shared);
        let involved = involved(&moves, |shard| shared.healthy(shard));
        let _frozen: Vec<_> = involved.iter().map(|&s| shared.lanes[s].lock()).collect();
        let mut retired: Vec<_> = involved.iter().map_while(|&s| self.retire(s)).collect();
        let mut forms: Vec<&mut ShardForms> = retired.iter_mut().map(|st| &mut st.forms).collect();
        let moved = moved(&moves, &involved, &mut forms);
        if moved.is_empty() {
            Metrics::bump(&shared.metrics.rebalance_aborted);
        } else {
            // Cut each log at its forms: no moved edge's record is replayed on its old shard.
            for (&shard, state) in involved.iter().zip(&mut retired) {
                let forms = &state.forms;
                let cut = |d: &mut ShardDurability| d.snapshot_now(forms).and_then(|()| d.sync());
                if let Some(durable) = shared.log_io(shard, &mut state.durability, cut) {
                    shared.publish_floor(shard, durable);
                    Metrics::bump(&shared.metrics.snapshots_taken);
                }
            }
            // Committed while ingest is still frozen, so an ingest re-checks
            // its owners against the new epoch.
            shared.map.commit(&moved);
            Metrics::bump(&shared.metrics.rebalances);
            Metrics::add(&shared.metrics.edges_migrated, moved.len() as u64);
            shared.metrics.map_epoch.store(shared.map.epoch(), Ordering::Relaxed);
        }
        for (&shard, state) in involved.iter().zip(retired) {
            self.respawn(shard, state);
        }
        moved.len()
    }

    /// Asks `shard`'s worker to retire and waits for its state while the shard
    /// reads `Healthy`. Until this thread respawns a dead worker nobody can
    /// answer, so no state is in flight when the receiver goes; a later
    /// incarnation's answer fails at the worker, which serves on.
    fn retire(&self, shard: usize) -> Option<RetiredState> {
        let (tx, rx) = bounded(1);
        self.to_shards[shard].send(ShardMsg::Retire(tx)).ok()?;
        recv_while_up(&rx, None, || self.shared.healthy(shard))
    }

    /// Spawns shard `shard`'s next incarnation over `state`, armed, and joins
    /// the one it replaces (its death report or `Retire` reply is out).
    fn respawn(&mut self, shard: usize, state: RetiredState) {
        let shared = Arc::clone(&self.shared);
        let death = Some(self.events_tx.clone());
        let worker = ShardWorker { id: shard, state, shared, death };
        let rx = self.receivers[shard].clone();
        let handle = clock::spawn(format!("stq-shard-{shard}"), move || worker.run(rx))
            .expect("spawn shard worker");
        if let Some(previous) = self.handles[shard].replace(handle) {
            let _ = previous.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    use stq_core::prelude::*;
    use stq_core::query::evaluate;
    use stq_net::DurabilityFaultPlan;

    use super::*;
    use crate::lifecycle::NO_LOG;
    use crate::server::{QuerySpec, Runtime};
    use crate::shard::ShardHealth;

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig {
            junctions: 120,
            mix: WorkloadMix { random_waypoint: 8, commuter: 4, transit: 2 },
            seed: 29,
            ..Default::default()
        })
    }

    fn runtime(scenario: &Scenario, cfg: RuntimeConfig) -> Runtime {
        let sampled = SampledGraph::unsampled(&scenario.sensing);
        Runtime::new(scenario.sensing.clone(), sampled, &scenario.tracked.store, cfg)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stq-rt-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &Path, snapshot_every: u64, faults: DurabilityFaultPlan) -> DurabilityConfig {
        DurabilityConfig { snapshot_every, sync_every: 16, faults, ..DurabilityConfig::new(dir) }
    }

    /// Event `i` of a stream far past everything the scenario recorded.
    fn event(num_edges: usize, i: usize) -> Crossing {
        Crossing { time: 10_000.0 + i as f64 * 0.25, edge: i % num_edges, forward: i % 3 != 0 }
    }

    /// The lanes `shard` retains.
    fn retained(rt: &Runtime, shard: usize) -> usize {
        rt.st().shared.lanes[shard].lock().buf.len()
    }

    #[test]
    fn a_shard_that_lost_its_history_retains_nothing_and_its_disk_is_not_read_again() {
        let scenario = scenario();
        let ne = scenario.sensing.num_edges();
        let dir = tmpdir("lost");
        let faults = DurabilityFaultPlan::killing(0xdead_d15c ^ 11, &[(0, 20)]);
        let cfg = RuntimeConfig {
            num_shards: 2,
            durability: Some(durable(&dir, 1024, faults)),
            ..RuntimeConfig::default()
        };
        let rt = runtime(&scenario, cfg);
        // The base snapshot is ruined before the kill at shard 0's 20th event.
        std::fs::write(dir.join("shard-0").join("snapshot.bin"), b"not a snapshot").unwrap();
        for i in 0..4 * ne {
            rt.ingest(event(ne, i)).expect("ingest");
        }
        rt.flush_ingest();
        let report = rt.metrics().report();
        assert!(report.shard_respawns == 1 && report.lost_events > 0, "{report}");

        // Thousands more events, one lane each: none is retained, since no
        // recovery could use it.
        for i in 4 * ne..4 * ne + 4_000 {
            rt.ingest(event(ne, i)).expect("ingest");
        }
        rt.flush_ingest();
        let shared = &rt.st().shared;
        assert_eq!(shared.durable_seq[0].load(Ordering::Acquire), NO_LOG);
        assert_eq!(retained(&rt, 0), 0, "a lane without a log retains nothing");

        // A disk that would redo the whole lane if it were read: the next
        // rebuild loses the history without reading it.
        let lane = shared.lanes[0].lock();
        let head = lane.next_seq;
        ShardDurability::initialize(&dir, 0, &ShardForms::default(), head, 1024, 16).unwrap();
        let (events_tx, _events_rx) = bounded(1);
        let sup = Supervisor {
            shared: Arc::clone(shared),
            durability: rt.st().cfg.durability.clone(),
            receivers: Vec::new(),
            to_shards: Vec::new(),
            events_tx,
            handles: Vec::new(),
        };
        let before = rt.metrics().report();
        let (state, quarantine) = sup.rebuild(0, &lane, 0);
        let after = rt.metrics().report();
        assert!(state.durability.is_none() && state.forms.is_empty());
        assert_eq!(state.last_seq, head);
        assert_eq!(quarantine.len(), (0..ne).filter(|e| e % 2 == 0).count());
        assert_eq!(after.wal_replayed, before.wal_replayed, "the disk was read");
        assert_eq!(after.lost_events - before.lost_events, head);
        drop(lane);
        drop(sup);
        rt.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker that dies with a `Retire` queued behind the lane that killed
    /// it never answers: the migration gives up at the end of the wait slice
    /// in which the shard came to read `Recovering`, and releases the lanes
    /// it froze.
    #[test]
    fn a_migration_whose_shard_died_before_its_retire_aborts_at_once() {
        let _virtual = clock::virtual_time();
        let scenario = scenario();
        let cfg = RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() };
        let sampled = SampledGraph::unsampled(&scenario.sensing);
        let shared =
            Shared::new(scenario.sensing.clone(), sampled, &scenario.tracked.store, &cfg, &[]);
        let shared = Arc::new(shared);
        let (to_shards, receivers): (Vec<_>, Vec<_>) = (0..2).map(|_| bounded(8)).unzip();
        let (events_tx, _events_rx) = bounded(1);
        let mut sup = Supervisor {
            shared: Arc::clone(&shared),
            durability: None,
            receivers: receivers.clone(),
            to_shards,
            events_tx,
            handles: vec![None, None],
        };
        let t0 = clock::now();
        // Nobody serves shard 0's channel: it dies once the `Retire` is in,
        // and keeps it, so no disconnect tells the migration.
        let (health, retires) = (Arc::clone(&shared), receivers[0].clone());
        let dying = clock::spawn("dying".into(), move || {
            let retire = retires.recv();
            health.health[0].store(false, Ordering::Release);
            retire
        });
        let moved = sup.migrate(vec![Migration { edge: 0, from: 0, to: 1 }]);
        assert!(dying.unwrap().join().unwrap().is_ok(), "no Retire was sent");
        assert_eq!(moved, 0, "a migration over a dead shard committed");
        assert_eq!(clock::since(t0), Duration::from_millis(5), "aborted after one slice");
        assert_eq!(shared.metrics.report().rebalance_aborted, 1);
        assert_eq!(shared.map.epoch(), 0);
        assert!(shared.lanes.iter().all(|lane| lane.try_lock().is_some()), "a lane stayed frozen");
    }

    #[test]
    fn a_shard_whose_disk_is_gone_serves_on_from_memory() {
        let scenario = scenario();
        let sensing = &scenario.sensing;
        let sampled = SampledGraph::unsampled(sensing);
        let ne = sensing.num_edges();
        let dir = tmpdir("gone");
        let cfg = RuntimeConfig {
            num_shards: 2,
            durability: Some(durable(&dir, 64, DurabilityFaultPlan::none())),
            rebalance: true,
            ..RuntimeConfig::default()
        };
        let rt = runtime(&scenario, cfg);
        // Shorter than one rebalance check window (4 096 routed events), so
        // rebalanced only when asked; seven events in eight land on seven of
        // shard 0's edges, which puts its load, history included, at ≈ 1.3 ×
        // the mean, past the 1.25 trigger.
        let events: Vec<Crossing> = (0..3_000)
            .map(|i| Crossing {
                edge: if i % 8 == 0 { i % ne } else { 2 * (i % 8) },
                ..event(ne, i)
            })
            .collect();
        let mut oracle = scenario.tracked.store.clone();
        for c in &events {
            oracle.record(c.edge, c.forward, c.time);
        }
        let (before, after) = events.split_at(200);
        rt.ingest_batch(before);
        rt.flush_ingest();
        // Shard 0's next snapshot rollover cannot create its file. A lane
        // reads the floor when it is stamped, so each batch is flushed
        // before the next is sent.
        std::fs::remove_dir_all(ShardDurability::shard_dir(&dir, 0)).unwrap();
        for batch in after.chunks(32) {
            assert_eq!(rt.ingest_batch(batch).accepted, batch.len());
            rt.flush_ingest();
        }

        let report = rt.metrics().report();
        assert!(report.logs_lost >= 1, "{report}");
        assert_eq!(report.shard_respawns, 0, "a failed write is not a death: {report}");
        assert_eq!(rt.st().shared.durable_seq[0].load(Ordering::Acquire), NO_LOG);
        assert_eq!(retained(&rt, 0), 0);
        assert!(rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy));
        let served_exactly = || {
            let mut exact = 0;
            for (region, t0, _) in scenario.make_queries(8, 0.15, 1_500.0, 5) {
                for kind in [QueryKind::Snapshot(10_200.0), QueryKind::Transient(t0, 10_400.0)] {
                    let spec = QuerySpec::new(region.clone(), kind, Approximation::Lower);
                    let plan = QueryPlan::compile(sensing, &sampled, &region, Approximation::Lower);
                    let served = rt.query(spec);
                    if plan.miss {
                        continue;
                    }
                    let want = evaluate(&oracle, &plan.boundary, kind);
                    assert_eq!(served.coverage, 1.0);
                    assert_eq!(served.value.to_bits(), want.to_bits(), "{kind:?}");
                    exact += 1;
                }
            }
            exact
        };
        assert!(served_exactly() > 0, "some query must resolve");
        // A migration snapshots its shards: the one without a log is skipped,
        // and the migration commits.
        let digests: u64 = rt.shard_digests().iter().fold(0, |a, d| a ^ d);
        assert!(rt.rebalance_now() > 0, "{}", rt.metrics().report());
        assert_eq!(rt.map_epoch(), 1);
        assert!(served_exactly() > 0);
        assert_ne!(rt.shard_digests().iter().fold(0, |a, d| a ^ d), digests, "forms moved");
        rt.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An out-of-sequence lane trips `apply`'s debug assertion, outside the
    /// request guard: the worker dies as a killed one does, reported by its
    /// drop, and the supervisor rebuilds it — from the log when there is one
    /// (byte-identical), as lost history when there is none.
    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_that_escapes_the_request_guard_is_a_death_like_a_kill() {
        use crate::lifecycle::Lane;
        use stq_durability::state_digest;

        let _virtual = clock::virtual_time();
        let scenario = scenario();
        let ne = scenario.sensing.num_edges();
        let dir = tmpdir("escaped");
        for log in [None, Some(durable(&dir, 64, DurabilityFaultPlan::none()))] {
            let keeps_log = log.is_some();
            let rt = runtime(
                &scenario,
                RuntimeConfig { num_shards: 2, durability: log, ..RuntimeConfig::default() },
            );
            let events: Vec<Crossing> = (0..300).map(|i| event(ne, i)).collect();
            rt.ingest_batch(&events);
            rt.flush_ingest();
            let want = rt.shard_digests();

            // Holding the lane holds the recovery, so the death is seen.
            let st = rt.st();
            let lane = st.shared.lanes[0].lock();
            let bad = Lane::from(vec![event(ne, 300)]);
            let msg = ShardMsg::IngestBatch { first_seq: lane.next_seq + 2, lane: bad };
            assert!(st.to_shards[0].send(msg).is_ok(), "shard 0 is listening");
            // Time moves once every thread is parked: the worker is dead by
            // then, and the supervisor waits for the lane.
            clock::sleep(Duration::from_millis(1));
            assert_eq!(rt.shard_health()[0], ShardHealth::Recovering);
            drop(lane);
            let t0 = clock::now();
            rt.flush_ingest();
            assert_eq!(clock::since(t0), Duration::ZERO, "the flush waited for a timeout");
            let report = rt.metrics().report();
            assert_eq!(report.shard_respawns, 1, "{report}");
            assert!(rt.shard_health().iter().all(|h| *h == ShardHealth::Healthy));
            let got = rt.shard_digests();
            assert_eq!(got[1], want[1]);
            if keeps_log {
                assert_eq!(got[0], want[0], "rebuilt byte-identical from the log");
            } else {
                assert_eq!(got[0], state_digest(&ShardForms::default()), "respawned empty");
                assert!(report.lost_events > 0 && report.quarantined_edges > 0, "{report}");
            }
            rt.shutdown();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
