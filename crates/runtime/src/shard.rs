//! Shard workers: each owns the tracking forms of the edges assigned to it
//! (one `stq_forms::ShardForms`), applies ingested boundary-crossing events
//! (write-ahead-logged when durability is on), and answers per-edge boundary
//! contributions for the aggregator.
//!
//! A contribution is `stq_forms::query`'s own term, evaluated over the
//! one-edge boundary, so an aggregator which re-folds the per-edge
//! contributions in boundary order reproduces the synchronous path bit for
//! bit — see `crate::aggregate`.
//!
//! ## Exits and supervision
//!
//! Shutdown and a `Retire` (the state goes to a migration) disarm a worker.
//! Any other end is a death with one path: a scheduled kill (simulated kill
//! -9, WAL tail cut included) returns from [`ShardWorker::run`] and a panic
//! outside the request guard unwinds out of it, and either way the armed
//! worker's `Drop` marks the shard down and reports to the supervisor
//! (`crate::supervisor`), which rebuilds the shard's state and respawns it.
//! A request that panics is not an exit: the panic is caught, the reply says
//! `panicked`, and the aggregator widens that shard's edges by their worst
//! case, as it does for any shard that did not report. Nor is a failed log
//! write: `Shared::log_io` drops the log, and the whole forms serve on.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use stq_core::query::QueryKind;
use stq_core::tracker::Crossing;
use stq_durability::recovery::apply_crossing;
use stq_durability::wal::DurableMark;
use stq_durability::{state_digest, ShardDurability};
use stq_forms::{snapshot_count, transient_count, BoundaryEdge, ShardForms, Time, TrackingForm};
use stq_net::MessageCtx;

use crate::dispatch::Group;
use crate::metrics::Metrics;
use crate::state::Shared;
use crate::supervisor::{Lane, SupervisorMsg};

/// Externally visible health of one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// The worker died (a kill, or a panic outside the request guard) and is not
    /// yet respawned. Queries skip the shard (degraded answers, sound bounds).
    Recovering,
}

/// Everything a shard worker can be asked to do.
pub(crate) enum ShardMsg {
    /// Answer boundary contributions for one query.
    Query(ShardRequest),
    /// Apply a lane of crossings with contiguous sequences starting at
    /// `first_seq`, logged as one WAL frame when durability is on. A single
    /// ingested event is a lane of one.
    IngestBatch { first_seq: u64, lane: Lane },
    /// Sync the WAL and reply with the highest applied sequence — the
    /// barrier tests and benchmarks use to line states up.
    Flush(Sender<u64>),
    /// Reply with `(shard, state_digest)` of the in-memory forms.
    Digest(Sender<(usize, u64)>),
    /// Reply with the counts the degraded ladder reads: for every owned edge
    /// the quarantine column does not flag, `count_until` per direction at
    /// each of `at` (`dispatch::live_counts`). Like `Digest`, this does not
    /// advance the fault-plan clock.
    Counts { at: [Time; 2], reply: Sender<Vec<(usize, InstantCounts)>> },
    /// Hand the worker's entire state back to the supervisor and exit: the
    /// quiesce step of a shard-map migration. Because the channel is FIFO,
    /// receiving `Retire` proves every previously sent ingest has been
    /// applied — no separate flush barrier is needed.
    Retire(Sender<RetiredState>),
}

/// Everything a worker owns: what the supervisor seeds it with at startup
/// and on every respawn, and what a retiring worker hands back (its edge
/// forms may move to other shards).
#[derive(Default)]
pub(crate) struct RetiredState {
    pub forms: ShardForms,
    pub durability: Option<ShardDurability>,
    /// Highest ingest sequence already folded into `forms` — the dedup
    /// floor: queued channel messages at or below it were already applied
    /// (directly or via recovery replay) and must be skipped.
    pub last_seq: u64,
    /// Fault-plan clock carried over from the previous incarnation, so
    /// crash/poison windows keyed on delivered messages stay on schedule
    /// across respawns.
    pub delivered: u64,
}

/// A fan-out request: the boundary edges of one query that this shard owns,
/// tagged with their position in the full boundary chain — the dispatcher's
/// group, shared, not copied.
pub(crate) struct ShardRequest {
    pub query_id: u64,
    pub attempt: u32,
    pub kind: QueryKind,
    pub edges: Group,
    /// The query's deadline, when it carries one: a request that is already
    /// past it is dropped at the worker without computing (the aggregator
    /// gave up at the same instant, so nobody is waiting for the answer).
    pub deadline: Option<Instant>,
    pub reply: Sender<ShardResponse>,
}

/// A shard's answer: one contribution per requested edge.
#[derive(Clone, Debug)]
pub(crate) struct ShardResponse {
    /// The query answered: a dispatcher's reply channel outlives its
    /// queries, so a late answer must say whose it is.
    pub query_id: u64,
    /// The attempt of the request answered: a panicked answer to an earlier
    /// attempt must not end the wait for the current one.
    pub attempt: u32,
    pub shard: usize,
    pub counts: Vec<EdgeCounts>,
    /// Boundary positions this shard refused to serve because the edge is
    /// quarantined by the integrity auditor.
    pub refused: Vec<usize>,
    /// Boundary edges this shard no longer owns — a shard-map migration
    /// moved them while the request was in flight. The aggregator re-routes
    /// them to their current owner.
    pub moved: Vec<(usize, BoundaryEdge)>,
    /// The worker panicked while computing; the lists are empty. The
    /// aggregator treats this as a failed attempt (retryable), not data.
    pub panicked: bool,
}

/// Per-edge boundary contribution, keyed by position in the boundary chain.
///
/// For `Snapshot` and `Transient` only `a` is used (the net inward count at
/// the query instant / over the window). For `Static`, `a` and `b` are the
/// net inward counts at the interval's two endpoints.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeCounts {
    pub idx: usize,
    pub a: f64,
    pub b: f64,
}

/// One edge's cumulative counts at a query's two instants,
/// `[instant][forward, backward]`.
pub(crate) type InstantCounts = [[f64; 2]; 2];

/// The worker-side state of one shard.
pub(crate) struct ShardWorker {
    pub id: usize,
    pub state: RetiredState,
    pub shared: Arc<Shared>,
    /// Where a death is reported; `run` disarms the worker when it leaves alive.
    pub death: Option<Sender<SupervisorMsg>>,
}

impl Drop for ShardWorker {
    /// Reports a kill or an unwind alike: the shard reads `Recovering`, and the
    /// supervisor gets the fault-plan clock, all a dead worker can still give.
    fn drop(&mut self) {
        if let Some(death) = self.death.take() {
            self.shared.health[self.id].store(false, Ordering::Release);
            let _ = death.send(SupervisorMsg::Died(self.id, self.state.delivered));
        }
    }
}

impl ShardWorker {
    /// Serves messages until shutdown, a `Retire`, or a scheduled kill. The
    /// first two disarm the worker; a kill returns with it armed.
    ///
    /// How an idle worker waits is the channel's rule, not this loop's:
    /// `recv` backs off once before it parks (`shims/crossbeam`), after a
    /// reply as after an ingest, so nothing here yields.
    pub(crate) fn run(mut self, rx: Receiver<ShardMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::Query(req) => self.handle(req),
                ShardMsg::IngestBatch { first_seq, lane } => {
                    if self.ingest_batch(first_seq, &lane) {
                        return;
                    }
                }
                ShardMsg::Flush(reply) => {
                    let _ = reply.send(self.flush());
                }
                ShardMsg::Digest(reply) => {
                    let _ = reply.send((self.id, state_digest(&self.state.forms)));
                }
                ShardMsg::Counts { at, reply } => {
                    let _ = reply.send(self.counts_at(at));
                }
                ShardMsg::Retire(reply) => {
                    match reply.send(std::mem::take(&mut self.state)) {
                        Ok(()) => break,
                        // The supervisor gave up on the migration (its
                        // receiver is gone): put the state back and keep
                        // serving as if the Retire never arrived.
                        Err(err) => self.state = err.0,
                    }
                }
            }
        }
        self.death = None;
    }

    /// Folds event `seq`, the next one, into the forms.
    fn apply(&mut self, seq: u64, c: &Crossing) {
        let state = &mut self.state;
        debug_assert_eq!(seq, state.last_seq + 1, "ingest lane must hand out contiguous sequences");
        state.last_seq = seq;
        Metrics::bump(&self.shared.metrics.ingested);
        // The WAL records the event either way; live apply and recovery
        // replay share `apply_crossing`, so both sides reject an
        // out-of-order timestamp identically and states stay byte-identical.
        if !apply_crossing(&mut state.forms, c) {
            Metrics::bump(&self.shared.metrics.late_dropped);
        }
    }

    /// Accounts for `records` WAL appends and publishes what they made
    /// durable.
    fn appended(&self, records: usize, mark: DurableMark) {
        Metrics::add(&self.shared.metrics.wal_appends, records as u64);
        if mark.snapshotted {
            Metrics::bump(&self.shared.metrics.snapshots_taken);
        }
        if let Some(durable) = mark.durable_seq {
            self.shared.durable_seq[self.id].store(durable, Ordering::Release);
        }
    }

    /// Applies one lane of crossings — the only way events reach a worker —
    /// and logs it as one WAL frame (one `wal_group_commits`). Returns true
    /// when a scheduled durability fault kills the worker.
    ///
    /// Sequences are contiguous, so whatever of the lane this incarnation
    /// already holds (a redo replay got there before the channel did) is a
    /// *prefix* of it: the rest is applied and logged as the slice it is,
    /// and nothing is copied.
    ///
    /// When a scheduled crash falls inside the lane, it is applied and logged
    /// one event a frame instead (frames no `wal_group_commits` counts), so
    /// the kill cut lands right after the faulted append, whatever the lane's
    /// length: a frame synced past the crash would leave the fault plan no
    /// tail to cut.
    fn ingest_batch(&mut self, first_seq: u64, lane: &[Crossing]) -> bool {
        let held = (self.state.last_seq + 1).saturating_sub(first_seq).min(lane.len() as u64);
        let (first_seq, lane) = (first_seq + held, &lane[held as usize..]);
        let seqs = first_seq..first_seq + lane.len() as u64;
        let crash_inside = self.state.durability.is_some()
            && seqs.clone().any(|s| self.shared.dfaults.crash_due(self.id, s));
        let frame_len = if crash_inside { 1 } else { lane.len().max(1) };
        for (frame, first) in lane.chunks(frame_len).zip(seqs.step_by(frame_len)) {
            for (seq, c) in (first..).zip(frame) {
                self.apply(seq, c);
            }
            let (forms, log) = (&self.state.forms, &mut self.state.durability);
            let logged = self.shared.log_io(self.id, log, |d| d.append(first, frame, forms));
            let Some(mark) = logged else { continue };
            self.appended(frame.len(), mark);
            if !crash_inside {
                Metrics::bump(&self.shared.metrics.wal_group_commits);
            } else if self.shared.dfaults.crash_due(self.id, first) {
                // kill -9: the unsynced tail is cut as the fault plan says;
                // memory goes with the worker, whose drop reports the death.
                if let Some(d) = self.state.durability.take() {
                    let dfaults = &self.shared.dfaults;
                    let tail = dfaults.surviving_tail_bytes(self.id, first, d.unsynced_bytes());
                    let _ = d.kill_cut(tail);
                }
                return true;
            }
        }
        false
    }

    /// Syncs the WAL (publishing the durable floor) and reports the highest
    /// applied sequence. Without a log (`NO_LOG`) there is no floor to publish
    /// and no redo buffer waiting on one.
    fn flush(&mut self) -> u64 {
        let log = &mut self.state.durability;
        if let Some(durable) = self.shared.log_io(self.id, log, ShardDurability::sync) {
            self.shared.durable_seq[self.id].store(durable, Ordering::Release);
        }
        self.state.last_seq
    }

    /// Serves one query request.
    fn handle(&mut self, req: ShardRequest) {
        // Deadline short-circuit before anything else (including the fault
        // delay): expired work is pure waste, and the aggregator's wait is
        // clamped to the same deadline, so it has already moved on.
        if req.deadline.is_some_and(|dl| Instant::now() >= dl) {
            Metrics::bump(&self.shared.metrics.shard_deadline_skips);
            return;
        }
        let seen = self.state.delivered;
        self.state.delivered += 1;
        if self.shared.fault.is_crashed(self.id, seen) {
            Metrics::bump(&self.shared.metrics.crash_dropped);
            return; // a crashed sensor neither computes nor replies
        }
        let fate = self.shared.fault.decide(MessageCtx {
            query_id: req.query_id,
            node: self.id,
            attempt: req.attempt,
        });
        if fate.drop {
            Metrics::bump(&self.shared.metrics.dropped);
            return;
        }
        if fate.delay_ms > 0 {
            Metrics::bump(&self.shared.metrics.delayed);
            // One radio message per perimeter sensor in the request: the
            // hold-up scales with the payload this shard must collect, and
            // it blocks the whole shard, like a congested radio.
            std::thread::sleep(
                Duration::from_millis(fate.delay_ms) * req.edges.len().max(1) as u32,
            );
        }
        // Audit verdicts gate serving: quarantined edges are refused (their
        // positions reported so the aggregator can widen soundly; the shard
        // may still hold their corrupted forms), healthy ones are computed
        // inside a panic guard — a poisoned payload must surface as a failed
        // response, not kill the worker and hang every later query routed to
        // this shard. The flags are the registry's column, the one copy.
        // One pass classifies and computes; `refused` and `moved` allocate
        // only when something lands in them.
        let quarantined = self.shared.subs.quarantined();
        let refuses =
            |edge: usize| quarantined.get(edge).is_some_and(|q| q.load(Ordering::Acquire));
        let poison = fate.poison || self.shared.fault.scheduled_poison(self.id, seen);
        let (query_id, attempt, shard) = (req.query_id, req.attempt, self.id);
        let blank = |panicked| ShardResponse {
            query_id,
            attempt,
            shard,
            counts: Vec::new(),
            refused: Vec::new(),
            moved: Vec::new(),
            panicked,
        };
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut resp =
                ShardResponse { counts: Vec::with_capacity(req.edges.len()), ..blank(false) };
            for &(idx, be) in req.edges.iter() {
                if refuses(be.edge) {
                    resp.refused.push(idx);
                } else if !self.state.forms.owns(be.edge) {
                    // A shard-map migration moved the edge away while this
                    // request was queued: report it back so the aggregator can
                    // re-route to the current owner instead of panicking here.
                    resp.moved.push((idx, be));
                } else {
                    // Poison corrupts the payload in flight: the edge id now
                    // addresses a sensor nobody owns, and the lookup panics.
                    let be =
                        if poison { BoundaryEdge::new(usize::MAX, be.inward_forward) } else { be };
                    resp.counts.push(self.contribution(idx, be, req.kind));
                }
            }
            resp
        }));
        let (response, refusals) = match computed {
            Ok(resp) => {
                Metrics::bump(&self.shared.metrics.shard_served);
                let refusals = resp.refused.len();
                (resp, refusals)
            }
            Err(_) => {
                Metrics::bump(&self.shared.metrics.shard_panics);
                // The panic cut the pass short, and the refusal counter is
                // owed the whole request.
                (blank(true), req.edges.iter().filter(|(_, be)| refuses(be.edge)).count())
            }
        };
        if refusals > 0 {
            Metrics::add(&self.shared.metrics.quarantine_refusals, refusals as u64);
        }
        if fate.duplicate {
            Metrics::bump(&self.shared.metrics.duplicated);
            let _ = req.reply.try_send(response.clone());
        }
        // The dispatcher may have moved on to another query or shut down, and
        // its reply channel is bounded (see `ServerState::resp_capacity`): a
        // failed or refused send is a late answer nobody is waiting for, and
        // must never block the worker behind it.
        let _ = req.reply.try_send(response);
    }

    fn contribution(&self, idx: usize, be: BoundaryEdge, kind: QueryKind) -> EdgeCounts {
        let forms = &self.state.forms;
        let net_at = |t: f64| snapshot_count(forms, &[be], t);
        match kind {
            QueryKind::Snapshot(t) => EdgeCounts { idx, a: net_at(t), b: 0.0 },
            QueryKind::Transient(t0, t1) => {
                EdgeCounts { idx, a: transient_count(forms, &[be], t0, t1), b: 0.0 }
            }
            QueryKind::Static(t0, t1) => EdgeCounts { idx, a: net_at(t0), b: net_at(t1) },
        }
    }

    /// Per owned edge the quarantine column does not flag, its counts at both
    /// of `at`. A flagged edge's form is suspect, or holds only what arrived
    /// since its shard lost its history: it is left out, so a ladder that
    /// reads it stands down.
    fn counts_at(&self, at: [Time; 2]) -> Vec<(usize, InstantCounts)> {
        let quarantined = self.shared.subs.quarantined();
        let served =
            |edge: usize| !quarantined.get(edge).is_some_and(|q| q.load(Ordering::Acquire));
        let forms = self.state.forms.iter().filter(|&(edge, _)| served(edge));
        let counts =
            |form: &TrackingForm, t| [true, false].map(|fwd| form.count_until(fwd, t) as f64);
        forms.map(|(edge, form)| (edge, at.map(|t| counts(form, t)))).collect()
    }
}

#[cfg(test)]
mod tests {
    use crossbeam::channel::{bounded, unbounded};
    use stq_durability::replay_wal;
    use stq_forms::FormStore;

    use super::*;
    use crate::server::RuntimeConfig;

    #[test]
    fn an_armed_worker_reports_its_death_once_and_a_disarmed_one_never() {
        let cfg = RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() };
        let shared = Arc::new(Shared::new(&FormStore::new(4), &cfg, &[]));
        let (deaths, reports) = unbounded();
        let worker = |id| {
            let state = RetiredState { delivered: 7, ..Default::default() };
            ShardWorker { id, state, shared: Arc::clone(&shared), death: Some(deaths.clone()) }
        };

        // Unwinding drops the armed worker: one report, and the shard is down.
        let armed = worker(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _worker = armed;
            panic!("escaped the request guard");
        }));
        assert!(unwound.is_err());
        let report = reports.try_recv().ok();
        assert!(matches!(report, Some(SupervisorMsg::Died(1, 7))));
        assert!(reports.try_recv().is_err(), "one report per death");
        assert!(!shared.healthy(1) && shared.healthy(0));

        // A closed channel and a `Retire` disarm it: no report, still up.
        let (tx, rx) = unbounded();
        drop(tx);
        worker(0).run(rx);
        let (tx, rx) = unbounded();
        let (reply, retired) = bounded(1);
        assert!(tx.send(ShardMsg::Retire(reply)).is_ok());
        worker(0).run(rx);
        assert_eq!(retired.try_recv().map(|state| state.delivered).ok(), Some(7));
        assert!(reports.try_recv().is_err(), "a worker that left alive reported a death");
        assert!(shared.healthy(0));
    }

    #[test]
    fn a_lane_whose_head_is_already_held_is_applied_and_logged_from_there() {
        let event =
            |i: u64| Crossing { time: i as f64 * 0.5, edge: (i % 4) as usize, forward: true };
        let events: Vec<Crossing> = (1..=20).map(event).collect();
        let mut want = ShardForms::default();
        assert!(events.iter().all(|c| apply_crossing(&mut want, c)));

        let dir = std::env::temp_dir().join(format!("stq-rt-prefix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for durable in [false, true] {
            let cfg = RuntimeConfig { num_shards: 1, ..RuntimeConfig::default() };
            let shared = Arc::new(Shared::new(&FormStore::new(4), &cfg, &[]));
            let forms = ShardForms::default();
            let durability = durable
                .then(|| ShardDurability::initialize(&dir, 0, &forms, 0, 1_000, 1_000).unwrap());
            let state = RetiredState { forms, durability, ..Default::default() };
            let mut worker = ShardWorker { id: 0, state, shared, death: None };
            let logged = |w: &ShardWorker| {
                let report = w.shared.metrics.report();
                (report.ingested, report.wal_appends, report.wal_group_commits)
            };
            let frames = durable as u64;

            assert!(!worker.ingest_batch(1, &events[..10]));
            assert_eq!(logged(&worker), (10, 10 * frames, frames));
            // Sequences 6..=20 over a worker that holds 1..=10: the last ten
            // are new, and they are one frame.
            assert!(!worker.ingest_batch(6, &events[5..]));
            assert_eq!(logged(&worker), (20, 20 * frames, 2 * frames));
            // All of it held: nothing applied, no empty frame, no commit.
            assert!(!worker.ingest_batch(11, &events[10..]));
            assert_eq!(logged(&worker), (20, 20 * frames, 2 * frames));
            assert_eq!(worker.flush(), 20);
            assert_eq!(state_digest(&worker.state.forms), state_digest(&want));
            if durable {
                let log = replay_wal(&dir.join("shard-0").join("wal.log"), 0).unwrap();
                assert!(!log.torn && !log.seq_break);
                assert!(log.events.iter().copied().eq((1..=20).zip(events.iter().copied())));
                assert_eq!(log.valid_bytes, 2 * (8 + 10 * 25), "two frames of ten");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
