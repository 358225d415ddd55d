//! The shard supervisor: spawns workers, rebuilds and respawns the ones
//! that die, and runs shard-map migrations.
//!
//! ## Recovery contract
//!
//! A death is the one exit a worker reports, by being dropped armed: a
//! kill and a panic outside the request guard end alike. A worker whose
//! requests panic keeps serving (its replies say `panicked` and the
//! aggregator widens), and a retiring worker hands its state to the
//! migration that asked for it, so neither reaches `Supervisor::recover`.
//!
//! A **dead** worker's in-memory forms die with it, and its report carries
//! the fault-plan clock alone. [`Rebuild::choose`] decides what comes back;
//! a shard that keeps a log is rebuilt from two sources that together
//! always cover the full ingest stream:
//!
//! 1. **Durable state** — snapshot + WAL replay via
//!    [`stq_durability::recover_shard`]. This restores every event up to
//!    some prefix of the stream; a torn WAL tail only shortens the prefix.
//! 2. **The redo buffer** — a durable lane retains, whole, every lane it
//!    sent whose last event the shard has not yet acknowledged as durable
//!    (`durable_seq`). Events past the recovered prefix are re-appended to
//!    the WAL and re-applied here, in sequence order, through the same
//!    [`apply_crossing`](stq_durability::apply_crossing) rule the live path
//!    uses.
//!
//! The recovered prefix never ends before `durable_seq` (synced bytes
//! survive any crash) and the redo buffer starts no later than
//! `durable_seq + 1`, so the composition is gapless: the respawned worker's
//! state is **byte-identical** to an uninterrupted run.
//!
//! From the death to the respawn the shard reads `Recovering`; the
//! aggregator skips it and answers with sound widened `[lower, upper]`
//! brackets (a skipped edge contributes its lifetime worst case). If the
//! shard's history is ever *lost* — it keeps no log (`NO_LOG`), the disk is
//! unreadable, or the composition has a gap (mid-log damage plus a trimmed
//! buffer) — the supervisor flags every edge the shard map routes to the
//! shard in the registry's quarantine column (in degraded mode the ladder is
//! rebuilt over the grown column) and respawns the worker empty:
//! refusals widen bounds soundly, where a partial history would serve
//! silently wrong counts. The flags belong to the edges and are never
//! cleared; the full audit → repair pipeline can then be run offline
//! (`stq recover`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use stq_core::tracker::Crossing;
use stq_durability::{apply_crossing, recover_shard, ShardDurability};
use stq_forms::ShardForms;

use crate::metrics::Metrics;
use crate::server::{DurabilityConfig, RuntimeConfig};
use crate::shard::{RetiredState, ShardMsg, ShardWorker};
use crate::shardmap::Migration;
use crate::state::{Shared, NO_LOG};

/// The events one `ingest` / `ingest_batch` call sent one shard, in order:
/// one buffer, allocated at its final length, for the channel, the redo
/// buffer, the worker and the WAL. The `Arc` shares the `Vec` as built
/// rather than a copy of it in a slice of its own.
pub(crate) type Lane = Arc<Vec<Crossing>>;

/// Per-shard ingest bookkeeping, shared between the server (sequence
/// assignment, redo retention) and the supervisor (recovery replay).
#[derive(Default)]
pub(crate) struct IngestLane {
    /// Highest sequence number handed out.
    pub next_seq: u64,
    /// The lanes a death could lose part of, oldest first, each with its first
    /// event's sequence, dropped once `durable_seq` reaches their last. Always
    /// empty at `NO_LOG`: the lane is then a sequence counter.
    pub buf: VecDeque<(u64, Lane)>,
}

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

/// How a dead shard comes back: the supervisor's one recovery choice.
#[derive(Debug, PartialEq)]
enum Rebuild<D> {
    /// Take `disk`, which reaches `floor`, and redo the lane past `floor`.
    Redo { floor: u64, disk: D },
    /// Respawn empty and quarantined: `events` are gone.
    Lost { events: u64 },
}

impl<D> Rebuild<D> {
    /// `read` replays the disk to the floor it reaches (`None`: unreadable).
    /// It is not called at a `published` floor of [`NO_LOG`]: that disk
    /// stopped at a failed write, maybe before a migration.
    fn choose(published: u64, read: impl FnOnce() -> Option<(u64, D)>, lane: &IngestLane) -> Self {
        // The redo buffer has to take over no later than where the disk's
        // prefix ends, or the sequences in between are gone for good.
        let redo_from = lane.buf.front().map_or(lane.next_seq + 1, |&(first, _)| first);
        match (published != NO_LOG).then(read).flatten() {
            Some((floor, disk)) if redo_from <= floor + 1 => Rebuild::Redo { floor, disk },
            Some((floor, _)) => Rebuild::Lost { events: redo_from - floor - 1 },
            None => Rebuild::Lost { events: lane.next_seq },
        }
    }
}

pub(crate) struct Supervisor {
    /// Lanes, health slots, durable floors, metrics, the standing-query
    /// registry (re-snapshot on every recovery *before* the health flip) and
    /// the edge→shard map (committed here, and only here, after a
    /// migration's forms have physically moved).
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

    fn recover(&mut self, shard: usize, delivered: u64) {
        let t0 = Instant::now();
        // The lane lock freezes the redo buffer and the sequence counter
        // until the next incarnation is spawned; concurrent `ingest` calls
        // block, so nothing can slip between a replayed prefix and the
        // respawned worker's dedup floor.
        let shared = Arc::clone(&self.shared);
        let lane = shared.lanes[shard].lock();
        let (state, extra_quarantine) = self.rebuild(shard, &lane, delivered);

        // Advance the subscription epoch while the lane is still frozen and
        // the shard still reads Recovering: a lost history's edges join the
        // quarantine column, and every standing bracket is re-snapshot from
        // the registry's mirror (which the lane lock keeps in lock-step with
        // a kill's redo replay), so a delta that raced the crash is
        // overwritten before any post-recovery delta can land on top of it —
        // the bump is atomic with the health flip below as far as ingest can
        // observe. Cached plans stay: quarantine widens a fold, not a
        // region's resolution. A column that grew gets its degraded answerer
        // here too: a consult needs every shard healthy, so none runs on the
        // previous generation once this shard serves again.
        shared.resnapshot(extra_quarantine);
        shared.follow_quarantine();
        // Health and the respawn counters flip BEFORE the worker spawns
        // (still under the lane lock): everything the new worker
        // acknowledges — flush barriers, digests, query replies — then
        // happens-after the shard is observably healthy, so a caller that
        // saw its flush complete can never read the shard as recovering.
        // Queries sent in the spawn gap just queue on the shard channel.
        self.shared.health[shard].store(true, Ordering::Release);
        Metrics::bump(&self.shared.metrics.shard_respawns);
        self.respawn(shard, state);
        drop(lane);
        self.shared.metrics.recovery_us.record(t0.elapsed().as_micros() as u64);
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
        let (forms, durability, lost_edges) = match Rebuild::choose(published, read, lane) {
            Rebuild::Redo { floor, disk: (mut forms, mut log) } => {
                // Redo: everything retained past the recovered prefix (which
                // may end inside a lane), re-applied and re-appended in order,
                // one event a frame; a failed write drops only the log.
                let retained = lane.buf.iter().flat_map(|(first, sent)| (*first..).zip(&sent[..]));
                let mut last_seq = floor;
                for (seq, c) in retained.filter(|&(seq, _)| seq > floor) {
                    // A migration leaves no event of a moved edge to replay
                    // on its old shard: it snapshots at the cut, so the
                    // recovered prefix ends at or after it.
                    debug_assert_eq!(shared.map.shard_of(c.edge), shard, "redo of a moved edge");
                    apply_crossing(&mut forms, c);
                    let frame = std::slice::from_ref(c);
                    shared.log_io(shard, &mut log, |d| d.append(seq, frame, &forms));
                    last_seq = seq;
                }
                Metrics::add(&shared.metrics.redo_replayed, last_seq - floor);
                if let Some(durable) = shared.log_io(shard, &mut log, ShardDurability::sync) {
                    shared.durable_seq[shard].store(durable, Ordering::Release);
                }
                debug_assert_eq!(last_seq, lane.next_seq, "redo must reach the lane head");
                (forms, log, Vec::new())
            }
            // History lost: no log or disk (the whole lane is gone), or
            // mid-log damage left a gap the trimmed buffer cannot bridge.
            // A partial history is worth nothing, so nothing is replayed and
            // nothing logged any more: the worker resumes empty at the lane
            // head and every edge the map routes to this shard is refused —
            // refusals widen every answer's bounds soundly — until the
            // offline audit → repair path has dealt with the damage.
            Rebuild::Lost { events } => {
                Metrics::add(&shared.metrics.lost_events, events);
                shared.durable_seq[shard].store(NO_LOG, Ordering::Release);
                let num_edges = shared.subs.totals().len();
                let owned = (0..num_edges).filter(|&e| shared.map.shard_of(e) == shard).collect();
                (ShardForms::default(), None, owned)
            }
        };
        (RetiredState { forms, durability, last_seq: lane.next_seq, delivered: clock }, lost_edges)
    }

    /// Executes one shard-map migration end to end. Runs on the supervisor
    /// thread (so migrations are serialized against recoveries); ingest on
    /// the involved shards is frozen by holding their lane locks in
    /// ascending order for the whole protocol, which is also what makes an
    /// ingest's owner or epoch re-check under its lane locks race-free.
    fn migrate(&mut self, moves: Vec<Migration>) -> usize {
        let moves: Vec<Migration> = moves.into_iter().filter(|m| m.from != m.to).collect();
        let mut involved: Vec<usize> = moves.iter().flat_map(|m| [m.from, m.to]).collect();
        involved.sort_unstable();
        involved.dedup();
        if moves.is_empty() || involved.iter().any(|&s| !self.shared.healthy(s)) {
            return self.abort_migration(HashMap::new());
        }
        let shared = Arc::clone(&self.shared);
        let guards: Vec<_> = involved.iter().map(|&s| shared.lanes[s].lock()).collect();
        // Retire every involved worker. The shard channel is FIFO, so the
        // reply proves every ingest sent before the lanes froze has been
        // applied — Retire doubles as the quiesce barrier, no separate
        // flush round-trip is needed.
        let mut retired: HashMap<usize, RetiredState> = HashMap::new();
        for &s in &involved {
            let (tx, rx) = bounded(1);
            let sent = self.to_shards[s].send(ShardMsg::Retire(tx)).is_ok();
            let state = if sent { rx.recv_timeout(Duration::from_secs(10)).ok() } else { None };
            match state {
                Some(state) => {
                    retired.insert(s, state);
                }
                // Could not retire this worker (shutdown race or a stuck
                // shard). Dropping `rx` makes a late Retire reply fail at
                // the sender, which restores that worker in place — the
                // stale message is harmless.
                None => return self.abort_migration(retired),
            }
        }
        // Move the edge forms between the retired states (a quarantine flag
        // belongs to the edge, in the registry's column, and follows it
        // without being carried). A move whose edge the source no longer
        // holds is dropped — the plan raced an earlier migration of the same
        // edge.
        let mut committed_moves: Vec<Migration> = Vec::with_capacity(moves.len());
        for &m in &moves {
            let Some(form) = retired.get_mut(&m.from).expect("retired").forms.take(m.edge) else {
                continue;
            };
            retired.get_mut(&m.to).expect("retired").forms.insert(m.edge, form);
            committed_moves.push(m);
        }
        if committed_moves.is_empty() {
            return self.abort_migration(retired);
        }
        // Persist the cut: durable shards re-snapshot, advancing the durable
        // floor past every pre-migration event, so no migrated-away record
        // can ever be WAL-replayed on its old shard (nor at `NO_LOG`, after a
        // failed snapshot: that disk is never read again).
        for &s in &involved {
            let st = retired.get_mut(&s).expect("retired");
            let forms = &st.forms;
            let cut = |d: &mut ShardDurability| d.snapshot_now(forms).and_then(|()| d.sync());
            if let Some(durable) = self.shared.log_io(s, &mut st.durability, cut) {
                self.shared.durable_seq[s].store(durable, Ordering::Release);
                Metrics::bump(&self.shared.metrics.snapshots_taken);
            }
        }
        // Commit: the new assignment becomes visible while ingest is still
        // frozen, so an ingest re-checks its owners against the new epoch.
        // Nothing else moves: a plan is the region's resolution and a
        // standing bracket folds the registry's mirror, and neither reads
        // which shard holds an edge.
        self.shared.map.commit(&committed_moves);
        Metrics::bump(&self.shared.metrics.rebalances);
        Metrics::add(&self.shared.metrics.edges_migrated, committed_moves.len() as u64);
        self.shared.metrics.map_epoch.store(self.shared.map.epoch(), Ordering::Relaxed);
        // Respawn. Health never went down: queries sent during the
        // window queued on the shard channels and are served by the new
        // incarnations against the migrated form set.
        let edges_moved = committed_moves.len();
        for &s in &involved {
            let st = retired.remove(&s).expect("retired");
            self.respawn(s, st);
        }
        drop(guards);
        edges_moved
    }

    /// Gives up on a migration before its commit: the workers retired so far
    /// respawn with their state unchanged and routing stays as it was.
    fn abort_migration(&mut self, retired: HashMap<usize, RetiredState>) -> usize {
        for (shard, state) in retired {
            self.respawn(shard, state);
        }
        Metrics::bump(&self.shared.metrics.rebalance_aborted);
        0
    }

    /// Spawns shard `shard`'s next incarnation over `state`, armed, and joins
    /// the one it replaces (its death report or `Retire` reply is out).
    fn respawn(&mut self, shard: usize, state: RetiredState) {
        let shared = Arc::clone(&self.shared);
        let death = Some(self.events_tx.clone());
        let worker = ShardWorker { id: shard, state, shared, death };
        let rx = self.receivers[shard].clone();
        let handle = std::thread::Builder::new()
            .name(format!("stq-shard-{shard}"))
            .spawn(move || worker.run(rx))
            .expect("spawn shard worker");
        if let Some(previous) = self.handles[shard].replace(handle) {
            let _ = previous.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::path::{Path, PathBuf};

    use stq_core::prelude::*;
    use stq_core::query::evaluate;
    use stq_durability::state_digest;
    use stq_net::DurabilityFaultPlan;

    use super::*;
    use crate::server::{QuerySpec, Runtime};
    use crate::shard::ShardHealth;

    /// An ingest lane holding `retained` lanes `(first seq, length)`, its
    /// head at `next_seq`.
    fn lane(retained: &[(u64, usize)], next_seq: u64) -> IngestLane {
        let c = Crossing { time: 0.0, edge: 0, forward: true };
        let buf = retained.iter().map(|&(first, len)| (first, Lane::from(vec![c; len])));
        IngestLane { next_seq, buf: buf.collect() }
    }

    #[test]
    fn the_recovery_choice_covers_every_row() {
        let redo = |floor| Rebuild::Redo { floor, disk: () };
        let lost = |events| Rebuild::Lost { events };
        // (published floor, the floor the disk replays to or `None` when it
        // is unreadable, retained lanes, lane head) → the rebuild.
        type Row = (u64, Option<u64>, &'static [(u64, usize)], u64, Rebuild<()>);
        let rows: [Row; 11] = [
            // No log: whatever the disk holds, it is not read.
            (NO_LOG, Some(120), &[], 120, lost(120)),
            (NO_LOG, Some(100), &[(101, 20)], 120, lost(120)),
            (NO_LOG, None, &[], 0, lost(0)),
            // Unreadable: the whole lane is gone.
            (40, None, &[(41, 10)], 50, lost(50)),
            (0, None, &[], 0, lost(0)),
            // The disk reaches the buffer, or past its start: redo from the
            // disk's floor, which a torn tail may have put below the
            // published one or unsynced bytes above it.
            (40, Some(40), &[(41, 10)], 50, redo(40)),
            (40, Some(36), &[(33, 8), (41, 10)], 50, redo(36)),
            (40, Some(45), &[(41, 10)], 50, redo(45)),
            (50, Some(50), &[], 50, redo(50)),
            // A gap between the disk's prefix and the buffer: lost.
            (40, Some(2), &[(41, 10)], 50, lost(38)),
            (40, Some(40), &[], 50, lost(10)),
        ];
        for (published, disk, retained, head, want) in rows {
            let read = Cell::new(false);
            let replay = || {
                read.set(true);
                disk.map(|floor| (floor, ()))
            };
            let got = Rebuild::choose(published, replay, &lane(retained, head));
            let row = format!("floor {published}, disk {disk:?}, lanes {retained:?}, head {head}");
            assert_eq!(got, want, "{row}");
            assert_eq!(
                read.get(),
                published != NO_LOG,
                "{row}: the disk is read iff there is a log"
            );
        }
    }

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
            let t0 = Instant::now();
            while rt.shard_health()[0] == ShardHealth::Healthy {
                assert!(t0.elapsed() < Duration::from_secs(10), "the shard never left Healthy");
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(lane);
            let t0 = Instant::now();
            rt.flush_ingest();
            assert!(t0.elapsed() < Duration::from_secs(5), "flush waited {:?}", t0.elapsed());
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
