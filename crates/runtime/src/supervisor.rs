//! The shard supervisor: spawns workers, rebuilds and respawns the ones a
//! scheduled kill takes down, and runs shard-map migrations.
//!
//! ## Recovery contract
//!
//! A kill is the one exit a worker reports. A worker whose requests panic
//! keeps serving on its thread (its replies say `panicked` and the
//! aggregator widens), and a retiring worker hands its state to the
//! migration that asked for it, so neither reaches `Supervisor::recover`.
//!
//! A **killed** worker's in-memory forms die with it (a simulated kill -9;
//! only a durable shard can be killed), and its exit report carries the
//! fault-plan clock alone. The supervisor rebuilds the forms from two
//! sources that together always cover the full ingest stream:
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
//! While a shard recovers its health slot reads `Recovering`; the
//! aggregator skips it and answers with sound widened `[lower, upper]`
//! brackets (a skipped edge contributes its lifetime worst case). If the
//! shard's history is ever *lost* — the disk is unreadable, or the
//! composition has a gap (mid-log damage plus a trimmed buffer) — the
//! supervisor flags every edge the shard map routes to the shard in the
//! registry's quarantine column and respawns the worker empty: refusals
//! widen bounds soundly, where a partial history would serve silently wrong
//! counts. The flags belong to the edges and are never cleared; the full
//! audit → repair pipeline can then be run offline (`stq recover`).

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
use crate::shard::{RetiredState, ShardMsg, ShardWorker, HEALTHY, RECOVERING};
use crate::shardmap::Migration;
use crate::state::Shared;

/// The events one `ingest` / `ingest_batch` call sent one shard, in order:
/// one allocation for the channel, the redo buffer, the worker and the WAL.
pub(crate) type Lane = Arc<[Crossing]>;

/// Per-shard ingest bookkeeping, shared between the server (sequence
/// assignment, redo retention) and the supervisor (recovery replay).
#[derive(Default)]
pub(crate) struct IngestLane {
    /// Highest sequence number handed out.
    pub next_seq: u64,
    /// The lanes a kill could lose part of, oldest first, each with its first
    /// event's sequence, dropped once `durable_seq` reaches their last. Always
    /// empty without durability: the lane is then a sequence counter.
    pub buf: VecDeque<(u64, Lane)>,
}

/// A killed worker's exit report.
pub(crate) struct WorkerEvent {
    pub shard: usize,
    /// The fault-plan clock the worker died at, carried into the next
    /// incarnation.
    pub delivered: u64,
}

/// Messages the supervisor thread consumes.
pub(crate) enum SupervisorMsg {
    Worker(WorkerEvent),
    /// Execute a shard-map migration: retire the involved workers, move the
    /// listed edge forms between their states, commit the new assignment,
    /// and respawn. Replies on `done` when the protocol finishes.
    Migrate {
        moves: Vec<Migration>,
        done: Sender<MigrationOutcome>,
    },
    Shutdown,
}

/// The result of one migration request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MigrationOutcome {
    /// False when the migration was aborted (unhealthy shard, retire
    /// timeout, or an empty move list) — the map was not committed.
    pub committed: bool,
    pub edges_moved: usize,
}

pub(crate) struct Supervisor {
    /// Lanes, health slots, durable floors, metrics, the plan cache
    /// (cleared on every recovery), the standing-query registry (re-snapshot
    /// on every recovery *before* the health flip) and the edge→shard map
    /// (committed here, and only here, after a migration's forms have
    /// physically moved).
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

    /// The supervision loop: rebuild-and-respawn on every killed worker
    /// until the runtime signals shutdown, then join every shard's
    /// last incarnation (`respawn` joined the earlier ones).
    pub(crate) fn run(mut self, events_rx: Receiver<SupervisorMsg>) {
        while let Ok(msg) = events_rx.recv() {
            match msg {
                SupervisorMsg::Worker(ev) => self.recover(ev),
                SupervisorMsg::Migrate { moves, done } => {
                    let outcome = self.migrate(moves);
                    let _ = done.send(outcome);
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

    fn recover(&mut self, ev: WorkerEvent) {
        let WorkerEvent { shard, delivered } = ev;
        let t0 = Instant::now();
        self.shared.health[shard].store(RECOVERING, Ordering::Release);
        self.shared.metrics.recovering.fetch_add(1, Ordering::Relaxed);

        // The lane lock freezes the redo buffer and the sequence counter
        // until the next incarnation is spawned; concurrent `ingest` calls
        // block, so nothing can slip between a replayed prefix and the
        // respawned worker's dedup floor.
        let shared = Arc::clone(&self.shared);
        let lane = shared.lanes[shard].lock();
        let (state, extra_quarantine) = self.rebuild(shard, &lane, delivered);

        // Recovery is the one runtime event that can change the serving
        // topology (a shard's edges quarantined on lost history), so cached
        // plans are dropped wholesale and recompiled on demand.
        self.shared.engine.invalidate();
        Metrics::bump(&self.shared.metrics.plan_invalidations);
        // Advance the subscription epoch while the lane is still frozen and
        // the shard still reads Recovering: every standing bracket is
        // re-snapshot from the registry's mirror (which the lane lock keeps
        // in lock-step with a kill's redo replay), so a delta that raced
        // the crash is overwritten before any post-recovery delta can land
        // on top of it — the bump is atomic with the health flip below as
        // far as ingest can observe.
        shared.resnapshot_and_trace(extra_quarantine);
        // Health and the respawn counters flip BEFORE the worker spawns
        // (still under the lane lock): everything the new worker
        // acknowledges — flush barriers, digests, query replies — then
        // happens-after the shard is observably healthy, so a caller that
        // saw its flush complete can never read the shard as recovering.
        // Queries sent in the spawn gap just queue on the shard channel.
        self.shared.health[shard].store(HEALTHY, Ordering::Release);
        self.shared.metrics.recovering.fetch_sub(1, Ordering::Relaxed);
        Metrics::bump(&self.shared.metrics.shard_respawns);
        self.respawn(shard, state);
        drop(lane);
        self.shared.metrics.recovery_us.record(t0.elapsed().as_micros() as u64);
    }

    /// A killed shard's state rebuilt up to the head of its frozen lane —
    /// disk, then the redo tail — and the edges to quarantine if that fails.
    fn rebuild(&self, shard: usize, lane: &IngestLane, clock: u64) -> (RetiredState, Vec<usize>) {
        let shared = &self.shared;
        // What the disk yields: the forms, the sequence they reach and the
        // handle to keep logging through — or nothing, when it is unreadable
        // (or absent: nothing kills a memory-only worker, so that is sound).
        let recovered = self.durability.as_ref().and_then(|cfg| {
            let rec =
                recover_shard(&cfg.wal_dir, shard, cfg.snapshot_every, cfg.sync_every).ok()?;
            Metrics::add(&shared.metrics.wal_replayed, rec.report.wal_records);
            Some((rec.forms, rec.report.recovered_seq, rec.durability))
        });
        // The redo buffer has to take over no later than where that prefix
        // ends, or sequences in between are gone for good.
        let redo_from = lane.buf.front().map_or(lane.next_seq + 1, |&(first, _)| first);
        let (forms, durability, lost_edges) = match recovered {
            Some((mut forms, floor, mut durability)) if redo_from <= floor + 1 => {
                // Redo: everything retained past the recovered prefix (which
                // may end inside a lane), re-applied and re-appended in order,
                // one event a frame.
                let retained = lane.buf.iter().flat_map(|(first, sent)| (*first..).zip(&sent[..]));
                let mut last_seq = floor;
                for (seq, c) in retained.filter(|&(seq, _)| seq > floor) {
                    // A migration leaves no event of a moved edge to replay
                    // on its old shard: it snapshots at the cut, so the
                    // recovered prefix ends at or after it.
                    debug_assert_eq!(shared.map.shard_of(c.edge), shard, "redo of a moved edge");
                    apply_crossing(&mut forms, c);
                    let frame = std::slice::from_ref(c);
                    durability.append(seq, frame, &forms).expect("redo WAL append");
                    last_seq = seq;
                }
                Metrics::add(&shared.metrics.redo_replayed, last_seq - floor);
                let durable = durability.sync().expect("redo WAL sync");
                shared.durable_seq[shard].store(durable, Ordering::Release);
                debug_assert_eq!(last_seq, lane.next_seq, "redo must reach the lane head");
                (forms, Some(durability), Vec::new())
            }
            // History lost: the disk gave nothing (the whole lane is gone),
            // or mid-log damage left a gap the trimmed buffer cannot bridge.
            // A partial history is worth nothing, so nothing is replayed and
            // nothing logged any more: the worker resumes empty at the lane
            // head and every edge the map routes to this shard is refused —
            // refusals widen every answer's bounds soundly — until the
            // offline audit → repair path has dealt with the damage.
            history_lost => {
                let lost =
                    history_lost.map_or(lane.next_seq, |(_, floor, _)| redo_from - floor - 1);
                Metrics::add(&shared.metrics.lost_events, lost);
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
    fn migrate(&mut self, moves: Vec<Migration>) -> MigrationOutcome {
        let moves: Vec<Migration> = moves.into_iter().filter(|m| m.from != m.to).collect();
        let mut involved: Vec<usize> = moves.iter().flat_map(|m| [m.from, m.to]).collect();
        involved.sort_unstable();
        involved.dedup();
        if moves.is_empty()
            || involved.iter().any(|&s| self.shared.health[s].load(Ordering::Acquire) != HEALTHY)
        {
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
        // can ever be WAL-replayed on its old shard.
        for &s in &involved {
            let st = retired.get_mut(&s).expect("retired");
            if let Some(d) = st.durability.as_mut() {
                d.snapshot_now(&st.forms).expect("migration snapshot");
                let durable = d.sync().expect("migration WAL sync");
                self.shared.durable_seq[s].store(durable, Ordering::Release);
                Metrics::bump(&self.shared.metrics.snapshots_taken);
            }
        }
        // Commit: the new assignment, the plan-cache drop, and the standing
        // bracket re-snapshot all become visible while ingest is still
        // frozen, so every layer observes the same map epoch.
        self.shared.map.commit(&committed_moves);
        self.shared.engine.invalidate();
        Metrics::bump(&self.shared.metrics.plan_invalidations);
        shared.resnapshot_and_trace([]);
        Metrics::bump(&self.shared.metrics.rebalances);
        Metrics::add(&self.shared.metrics.edges_migrated, committed_moves.len() as u64);
        self.shared.metrics.map_epoch.store(self.shared.map.epoch(), Ordering::Relaxed);
        // Respawn. Health never left HEALTHY: queries sent during the
        // window queued on the shard channels and are served by the new
        // incarnations against the migrated form set.
        let edges_moved = committed_moves.len();
        for &s in &involved {
            let st = retired.remove(&s).expect("retired");
            self.respawn(s, st);
        }
        drop(guards);
        MigrationOutcome { committed: true, edges_moved }
    }

    /// Gives up on a migration before its commit: the workers retired so far
    /// respawn with their state unchanged and routing stays as it was.
    fn abort_migration(&mut self, retired: HashMap<usize, RetiredState>) -> MigrationOutcome {
        for (shard, state) in retired {
            self.respawn(shard, state);
        }
        Metrics::bump(&self.shared.metrics.rebalance_aborted);
        MigrationOutcome { committed: false, edges_moved: 0 }
    }

    /// Spawns shard `shard`'s next incarnation over `state` and joins the one
    /// it replaces (its exit report or `Retire` reply is out: it is returning).
    fn respawn(&mut self, shard: usize, state: RetiredState) {
        let worker = ShardWorker { id: shard, state, shared: Arc::clone(&self.shared) };
        let rx = self.receivers[shard].clone();
        let events = self.events_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("stq-shard-{shard}"))
            .spawn(move || {
                if let Some(delivered) = worker.run(rx) {
                    let _ = events.send(SupervisorMsg::Worker(WorkerEvent { shard, delivered }));
                }
            })
            .expect("spawn shard worker");
        if let Some(previous) = self.handles[shard].replace(handle) {
            let _ = previous.join();
        }
    }
}
