//! The shard lifecycle core: the rules of a shard's lane ([`IngestLane`]),
//! death ([`DEATH`]), recovery ([`Rebuild::choose`], [`RECOVERY`]) and
//! migration ([`involved`], [`moved`]), with no thread, channel, disk, clock,
//! shared state or metrics. The ingest path, a worker's drop and the
//! supervisor feed it what they read and carry out what it decides, as
//! `dispatch::fan_out` does for `crate::flight`; its tests walk every order.
//!
//! ## Recovery contract
//!
//! A dead shard that keeps a log comes back from its disk (snapshot + WAL
//! replay: every event up to a prefix, which a torn tail only shortens) and
//! its lane's redo tail past that prefix, re-applied and re-appended in
//! sequence order through the live path's `apply_crossing`. The prefix never
//! ends before the published floor (synced bytes survive a crash) and the
//! lane retains from no later than the floor + 1, so the state is
//! byte-identical to an uninterrupted run's. A *lost* history — no log, an
//! unreadable disk, or a gap between prefix and lane — respawns empty at
//! `NO_LOG`, every edge the map routes to the shard quarantined: refusals
//! widen bounds soundly where a partial history would serve wrong counts.
//! The flags are never cleared (`stq recover` repairs offline). Until the
//! respawn the shard reads `Recovering`, and answers widen around it.

use std::collections::VecDeque;
use std::sync::Arc;

use stq_core::tracker::Crossing;
use stq_forms::ShardForms;

use crate::shardmap::Migration;

/// The durable floor of a shard without a log: its lane retains nothing, its disk is never read.
pub(crate) const NO_LOG: u64 = u64::MAX;

/// The events one `ingest` / `ingest_batch` call sent one shard, in order:
/// one buffer, allocated at its final length, for the channel, the redo
/// buffer, the worker and the WAL. The `Arc` shares the `Vec` as built
/// rather than a copy of it in a slice of its own.
pub(crate) type Lane = Arc<Vec<Crossing>>;

/// Per-shard ingest bookkeeping, under the shard's lane lock.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct IngestLane {
    /// Highest sequence number handed out.
    pub next_seq: u64,
    /// The lanes a death could lose part of, oldest first, each with its first
    /// event's sequence, dropped once the floor reaches their last. Always
    /// empty after a stamp at `NO_LOG`: the lane is then a sequence counter.
    pub buf: VecDeque<(u64, Lane)>,
}

impl IngestLane {
    /// Hands out `lane`'s sequences and returns the first: drops what the
    /// published `floor` covers (everything, at [`NO_LOG`]) and retains `lane`
    /// unless the shard keeps no log. The caller sends it under the same lock.
    pub(crate) fn stamp(&mut self, floor: u64, lane: &Lane) -> u64 {
        let first_seq = self.next_seq + 1;
        while self.buf.front().is_some_and(|(first, old)| first + old.len() as u64 - 1 <= floor) {
            self.buf.pop_front();
        }
        if floor != NO_LOG {
            self.buf.push_back((first_seq, Arc::clone(lane)));
        }
        self.next_seq += lane.len() as u64;
        first_seq
    }

    /// The redo tail: every retained event past `floor`, with its sequence.
    pub(crate) fn past(&self, floor: u64) -> impl Iterator<Item = (u64, &Crossing)> {
        let retained = self.buf.iter().flat_map(|(first, sent)| (*first..).zip(&sent[..]));
        retained.filter(move |&(seq, _)| seq > floor)
    }
}

/// One step of a death or a recovery, in the order [`DEATH`] and [`RECOVERY`] give.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Step {
    /// The shard reads `Healthy` (`true`) or `Recovering`.
    Health(bool),
    /// The supervisor is sent the fault-plan clock the next incarnation starts from.
    Report,
    /// The rebuilt log is synced and its floor published: `NO_LOG` without one.
    Publish,
    /// Standing brackets re-snapshot, absorbing a lost history's quarantine,
    /// and the ladder follows the column before a consult can read the old one.
    Resnapshot,
    /// The next incarnation is spawned over the rebuilt state.
    Respawn,
}

/// The shard is down before the supervisor hears of it: no query waits on a
/// dead worker, and no late flip undoes the recovery's.
pub(crate) const DEATH: [Step; 2] = [Step::Health(false), Step::Report];

/// The floor is published before the spawn takes the log; the re-snapshot
/// precedes the flip, so a delta that raced the death is overwritten before a
/// later one lands, and the flip the spawn, so the new worker's acks follow it.
pub(crate) const RECOVERY: [Step; 4] =
    [Step::Publish, Step::Resnapshot, Step::Health(true), Step::Respawn];

/// How a dead shard comes back: the recovery's one choice.
#[derive(Debug, PartialEq)]
pub(crate) enum Rebuild<D> {
    /// Take `disk`, which reaches `floor`, and redo the lane past `floor`.
    Redo { floor: u64, disk: D },
    /// Respawn empty and quarantined: `events` are gone.
    Lost { events: u64 },
}

impl<D> Rebuild<D> {
    /// `read` replays the disk to the floor it reaches (`None`: unreadable).
    /// It is not called at a `published` floor of [`NO_LOG`]: that disk
    /// stopped at a failed write, maybe before a migration.
    pub(crate) fn choose(
        published: u64,
        read: impl FnOnce() -> Option<(u64, D)>,
        lane: &IngestLane,
    ) -> Self {
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

/// The edges a lost history quarantines: those of the `edges` that `owner` routes to `shard`.
pub(crate) fn lost_edges(shard: usize, edges: usize, owner: impl Fn(usize) -> usize) -> Vec<usize> {
    (0..edges).filter(|&e| owner(e) == shard).collect()
}

/// The shards a migration of `moves` involves, ascending: the order their
/// lanes freeze and their workers retire in. A self-move involves none, and
/// a migration that moves nothing or involves a shard `healthy` says is down
/// none at all: it aborts before anything freezes.
pub(crate) fn involved(moves: &[Migration], healthy: impl Fn(usize) -> bool) -> Vec<usize> {
    let moving = moves.iter().filter(|m| m.from != m.to);
    let mut involved: Vec<usize> = moving.flat_map(|m| [m.from, m.to]).collect();
    involved.sort_unstable();
    involved.dedup();
    if !involved.iter().all(|&s| healthy(s)) {
        involved.clear();
    }
    involved
}

/// Moves each form whose edge its source still holds between the `forms` the
/// `involved` workers retired with, in that order, and returns those moves:
/// the map is committed iff there is one. Fewer forms (an unanswered
/// `Retire`) abort: nothing moves. A move whose edge is gone raced an earlier
/// migration of that edge.
pub(crate) fn moved(
    moves: &[Migration],
    involved: &[usize],
    forms: &mut [&mut ShardForms],
) -> Vec<Migration> {
    if involved.is_empty() || forms.len() < involved.len() {
        return Vec::new();
    }
    let at = |shard| involved.partition_point(|&s| s < shard);
    let mut moved = Vec::new();
    for &m in moves.iter().filter(|m| m.from != m.to) {
        let Some(form) = forms[at(m.from)].take(m.edge) else { continue };
        forms[at(m.to)].insert(m.edge, form);
        moved.push(m);
    }
    moved
}

#[cfg(test)]
mod tests {
    //! The walk: every order in which two shards' lives can interleave,
    //! explored depth-first over the world's states with a seen-set, through
    //! the core's own functions. The world is a writer with three lanes, a
    //! worker and a channel per shard, the published floors and health
    //! slots, a disk per shard when it is durable, and the supervisor with its
    //! inbox. A step is one of:
    //! - the writer stamps and sends its next lane (not while a migration
    //!   holds that shard's lane lock);
    //! - a worker takes the message at the head of its channel (a lane, a
    //!   `Retire`, a counts request); a lane's append may sync, publishing
    //!   the floor, or fail (once), publishing `NO_LOG`;
    //! - a worker dies (once), leaving any prefix of its log's records on
    //!   disk, or an unreadable disk;
    //! - a migration is asked for (once): edge 2 to shard 1, with a self-move
    //!   and a move whose source does not hold its edge;
    //! - the supervisor takes its next message, or receives a `Retire`
    //!   answer, or stops waiting for one once that shard reads `Recovering`;
    //! - a counts cut is taken (once, under every lane lock, all healthy),
    //!   or given up when a shard reads `Recovering`.
    //!
    //! Checked on every state:
    //! - `Healthy` only over a live worker, or a state a migration holds;
    //! - the floor is `NO_LOG` exactly when the shard keeps no log, and no
    //!   stamp leaves a lane retained at `NO_LOG` or covered by the floor;
    //! - every form a worker holds is of an edge the map routes to it: the
    //!   map is committed iff the forms moved;
    //! - a worker applies every sequence once, in order;
    //! - after `Redo`, the shard's digest is the uninterrupted run's;
    //! - after `Lost`, every edge with history on the shard is quarantined;
    //! - a counts cut that completes counts every edge that is not
    //!   quarantined exactly once: it never straddles a migration.
    //!
    //! And at every leaf, every shard holds the uninterrupted run's forms of
    //! the edges it serves.

    use std::cell::Cell;
    use std::collections::HashSet;
    use std::hash::{DefaultHasher, Hash, Hasher};
    use std::time::Instant;

    use stq_durability::{apply_crossing, state_digest};

    use super::*;

    const SHARDS: usize = 2;
    const EDGES: usize = 3;
    /// The writer's lanes, by edge: edge `e` starts on shard `e % 2`, and
    /// each lane stays on one shard whatever the map says.
    const LANES: [&[usize]; 3] = [&[2, 2], &[1], &[0]];

    /// The migration asked for: a self-move, a move whose source does not
    /// hold its edge, and the one that moves a form.
    fn moves() -> Vec<Migration> {
        let m = |edge, from, to| Migration { edge, from, to };
        vec![m(0, 0, 0), m(1, 0, 1), m(2, 0, 1)]
    }

    /// Lane `i` of the writer's: event `k` of the whole stream crosses at time `k`.
    fn lane(i: usize) -> Lane {
        let before: usize = LANES[..i].iter().map(|l| l.len()).sum();
        let event = |(k, &edge)| Crossing { time: (before + k) as f64, edge, forward: k % 2 == 0 };
        Arc::new(LANES[i].iter().enumerate().map(event).collect())
    }

    /// What a worker holds: its forms and the last sequence folded into them.
    #[derive(Clone)]
    struct State {
        forms: ShardForms,
        last_seq: u64,
    }

    /// A shard's directory: a snapshot of `base` at `base_seq`, then WAL
    /// records of the sequences after it, the first `synced` of them synced.
    #[derive(Clone)]
    struct Disk {
        base: ShardForms,
        base_seq: u64,
        records: Vec<Crossing>,
        synced: usize,
    }

    impl Disk {
        fn append(&mut self, seq: u64, c: &Crossing) {
            assert_eq!(seq, self.base_seq + self.records.len() as u64 + 1, "a gap in the log");
            self.records.push(*c);
        }

        /// What a replay reaches: the floor and the forms.
        fn replay(&self) -> (u64, ShardForms) {
            let mut forms = self.base.clone();
            for c in &self.records {
                apply_crossing(&mut forms, c);
            }
            (self.base_seq + self.records.len() as u64, forms)
        }
    }

    #[derive(Clone)]
    enum Msg {
        Ingest(u64, Lane),
        Retire,
        Counts,
    }

    #[derive(Clone)]
    struct Shard {
        lane: IngestLane,
        floor: u64,
        healthy: bool,
        /// It keeps a log: its worker holds a handle, or died holding one.
        logged: bool,
        channel: VecDeque<Msg>,
        /// `None`: dead, or retired into the migration.
        worker: Option<State>,
        /// `None`: memory-only, or unreadable.
        disk: Option<Disk>,
        /// The answer to a `Retire`, sent and not yet received.
        reply: Option<State>,
        /// The edges it counted for the live cut.
        counted: Option<Vec<usize>>,
    }

    #[derive(Clone, Copy, PartialEq, Hash)]
    enum Inbox {
        Died(usize),
        Migrate,
    }

    #[derive(Clone, Copy, PartialEq, Hash)]
    enum Cut {
        Unasked,
        Live,
        Over,
    }

    #[derive(Clone)]
    struct World {
        shards: Vec<Shard>,
        map: [usize; EDGES],
        inbox: VecDeque<Inbox>,
        /// The migration in flight: its shards and the states retired so far.
        migration: Option<(Vec<usize>, Vec<State>)>,
        /// The shard whose `Retire` answer the migration waits for.
        awaiting: Option<usize>,
        quarantined: [bool; EDGES],
        /// Every event stamped: its shard, sequence and edge.
        stamped: Vec<(usize, u64, usize)>,
        /// Every event stamped, applied once: the uninterrupted run.
        truth: ShardForms,
        sent: usize,
        died: bool,
        failed: bool,
        asked: bool,
        cut: Cut,
    }

    impl World {
        fn new(durable: bool) -> Self {
            let owned = |s: usize| {
                let mut forms = ShardForms::default();
                (s..EDGES).step_by(SHARDS).for_each(|e| _ = forms.insert(e, Default::default()));
                forms
            };
            let shard = |s| Shard {
                lane: IngestLane::default(),
                floor: if durable { 0 } else { NO_LOG },
                healthy: true,
                logged: durable,
                channel: VecDeque::new(),
                worker: Some(State { forms: owned(s), last_seq: 0 }),
                disk: durable.then(|| Disk {
                    base: owned(s),
                    base_seq: 0,
                    records: Vec::new(),
                    synced: 0,
                }),
                reply: None,
                counted: None,
            };
            let mut truth = owned(0);
            (1..EDGES).step_by(SHARDS).for_each(|e| _ = truth.insert(e, Default::default()));
            World {
                shards: (0..SHARDS).map(shard).collect(),
                map: std::array::from_fn(|e| e % SHARDS),
                inbox: VecDeque::new(),
                migration: None,
                awaiting: None,
                quarantined: [false; EDGES],
                stamped: Vec::new(),
                truth,
                sent: 0,
                died: false,
                failed: false,
                asked: false,
                cut: Cut::Unasked,
            }
        }

        /// Whether a migration in flight holds `shard`'s lane lock.
        fn frozen(&self, shard: usize) -> bool {
            self.migration.as_ref().is_some_and(|(involved, _)| involved.contains(&shard))
        }

        /// The digests of the truth's and of `forms`' forms of the edges the
        /// map routes to `shard` that are not quarantined.
        fn served(&self, shard: usize, forms: &ShardForms) -> (u64, u64) {
            let serves = |e: usize| self.map[e] == shard && !self.quarantined[e];
            let want = state_digest(self.truth.iter().filter(|&(e, _)| serves(e)));
            (want, state_digest(forms.iter().filter(|&(e, _)| serves(e))))
        }

        fn key(&self) -> u64 {
            let mut h = DefaultHasher::new();
            for sh in &self.shards {
                sh.lane.next_seq.hash(&mut h);
                sh.lane.buf.iter().for_each(|(first, l)| (first, l.len()).hash(&mut h));
                (sh.floor, sh.healthy, sh.logged, sh.channel.len()).hash(&mut h);
                for msg in &sh.channel {
                    match msg {
                        Msg::Ingest(first, l) => (0, first, l[0].time.to_bits()).hash(&mut h),
                        Msg::Retire => 1.hash(&mut h),
                        Msg::Counts => 2.hash(&mut h),
                    }
                }
                for st in [&sh.worker, &sh.reply] {
                    st.as_ref().map(|st| (st.last_seq, state_digest(&st.forms))).hash(&mut h);
                }
                sh.disk
                    .as_ref()
                    .map(|d| (d.base_seq, state_digest(&d.base), d.synced))
                    .hash(&mut h);
                let records = sh.disk.iter().flat_map(|d| &d.records);
                records.for_each(|c| c.time.to_bits().hash(&mut h));
                sh.counted.hash(&mut h);
            }
            (self.map, &self.inbox, self.awaiting, self.quarantined, self.sent).hash(&mut h);
            (self.died, self.failed, self.asked, self.cut).hash(&mut h);
            if let Some((involved, retired)) = &self.migration {
                involved.hash(&mut h);
                retired.iter().for_each(|st| (st.last_seq, state_digest(&st.forms)).hash(&mut h));
            }
            h.finish()
        }

        /// The invariants every state keeps.
        fn check(&self) {
            for (s, sh) in self.shards.iter().enumerate() {
                let held = self
                    .migration
                    .as_ref()
                    .is_some_and(|(involved, retired)| involved[..retired.len()].contains(&s));
                let live = sh.worker.is_some() || sh.reply.is_some() || held;
                assert!(!sh.healthy || live, "shard {s} reads Healthy over a dead worker");
                assert_eq!(sh.floor == NO_LOG, !sh.logged, "shard {s}: floor {}", sh.floor);
                for (e, _) in sh.worker.iter().flat_map(|st| st.forms.iter()) {
                    assert_eq!(self.map[e], s, "shard {s} holds edge {e}, routed elsewhere");
                }
            }
        }

        fn successors(&self) -> Vec<World> {
            let mut next = Vec::new();
            let mut step = |change: &dyn Fn(&mut World)| {
                let mut w = self.clone();
                change(&mut w);
                w.check();
                next.push(w);
            };
            if self.sent < LANES.len() && !self.frozen(self.map[LANES[self.sent][0]]) {
                step(&|w| w.write());
            }
            for s in 0..SHARDS {
                let sh = &self.shards[s];
                if sh.worker.is_none() {
                    continue;
                }
                if !sh.channel.is_empty() {
                    step(&|w| w.take(s));
                }
                // A frame's append syncs by the cadence, or fails and drops the log.
                if sh.logged && matches!(sh.channel.front(), Some(Msg::Ingest(..))) {
                    step(&|w| {
                        w.take(s);
                        w.sync(s);
                    });
                    if !self.failed {
                        step(&|w| {
                            w.take(s);
                            w.failed = true;
                            (w.shards[s].logged, w.shards[s].floor) = (false, NO_LOG);
                        });
                    }
                }
                if !self.died {
                    let written = sh.disk.as_ref().filter(|_| sh.logged).map(|d| d.records.len());
                    for kept in written.map_or(vec![None], |n| (0..=n).map(Some).collect()) {
                        step(&|w| w.die(s, kept, false));
                    }
                    if written.is_some() {
                        step(&|w| w.die(s, None, true));
                    }
                }
            }
            if !self.asked {
                step(&|w| {
                    w.asked = true;
                    w.inbox.push_back(Inbox::Migrate);
                });
            }
            match self.awaiting {
                Some(s) => {
                    if self.shards[s].reply.is_some() {
                        step(&|w| w.answered(true));
                    }
                    if !self.shards[s].healthy {
                        step(&|w| w.answered(false));
                    }
                }
                None if self.migration.is_none() && !self.inbox.is_empty() => {
                    step(&|w| w.supervise());
                }
                None => {}
            }
            let all_up = self.shards.iter().all(|sh| sh.healthy);
            if self.cut == Cut::Unasked && self.migration.is_none() && all_up {
                step(&|w| {
                    w.cut = Cut::Live;
                    w.shards.iter_mut().for_each(|sh| sh.channel.push_back(Msg::Counts));
                });
            }
            if self.cut == Cut::Live && !all_up {
                step(&|w| w.cut = Cut::Over);
            }
            next
        }

        /// The writer's next lane, stamped and sent under its lane lock.
        fn write(&mut self) {
            let lane = lane(self.sent);
            self.sent += 1;
            let s = self.map[lane[0].edge];
            let sh = &mut self.shards[s];
            let first = sh.lane.stamp(sh.floor, &lane);
            let floor = sh.floor;
            let retained = sh.lane.buf.iter().map(|(first, l)| first + l.len() as u64 - 1);
            assert!(floor != NO_LOG || sh.lane.buf.is_empty(), "a lane retained at NO_LOG");
            assert!(retained.clone().all(|last| last > floor), "a lane the floor covers retained");
            sh.channel.push_back(Msg::Ingest(first, Arc::clone(&lane)));
            for (seq, c) in (first..).zip(lane.iter()) {
                assert!(apply_crossing(&mut self.truth, c));
                self.stamped.push((s, seq, c.edge));
            }
        }

        /// Worker `s` takes the message at the head of its channel.
        fn take(&mut self, s: usize) {
            let quarantined = self.quarantined;
            let sh = &mut self.shards[s];
            let Some(msg) = sh.channel.pop_front() else { return };
            let Some(st) = sh.worker.as_mut() else { return };
            match msg {
                Msg::Ingest(first, lane) => {
                    // As the worker does: what a redo got to first is a prefix.
                    let held = (st.last_seq + 1).saturating_sub(first).min(lane.len() as u64);
                    for (seq, c) in (first + held..).zip(&lane[held as usize..]) {
                        assert_eq!(seq, st.last_seq + 1, "shard {s}: a sequence gap");
                        apply_crossing(&mut st.forms, c);
                        st.last_seq = seq;
                        if let Some(disk) = sh.disk.as_mut().filter(|_| sh.logged) {
                            disk.append(seq, c);
                        }
                    }
                }
                Msg::Retire if self.awaiting == Some(s) => sh.reply = sh.worker.take(),
                Msg::Retire => {}
                Msg::Counts if self.cut == Cut::Live => {
                    let counted = st.forms.iter().map(|(e, _)| e).filter(|&e| !quarantined[e]);
                    sh.counted = Some(counted.collect());
                    if self.shards.iter().all(|sh| sh.counted.is_some()) {
                        self.cut_complete();
                    }
                }
                Msg::Counts => {}
            }
        }

        fn cut_complete(&mut self) {
            for e in 0..EDGES {
                let counted = self.shards.iter().flat_map(|sh| sh.counted.iter().flatten());
                let times = counted.filter(|&&c| c == e).count();
                let want = if self.quarantined[e] { times <= 1 } else { times == 1 };
                assert!(want, "edge {e} counted {times} times in one cut");
            }
            self.cut = Cut::Over;
            self.shards.iter_mut().for_each(|sh| sh.counted = None);
        }

        fn sync(&mut self, s: usize) {
            let sh = &mut self.shards[s];
            if let Some(disk) = sh.disk.as_mut() {
                disk.synced = disk.records.len();
                sh.floor = disk.replay().0;
            }
        }

        /// Worker `s` dies, its disk keeping `kept` records (or none of it
        /// readable when `ruined`).
        fn die(&mut self, s: usize, kept: Option<usize>, ruined: bool) {
            self.died = true;
            let sh = &mut self.shards[s];
            sh.worker = None;
            if let (Some(disk), Some(kept)) = (sh.disk.as_mut(), kept) {
                disk.records.truncate(kept);
                disk.synced = disk.synced.min(kept);
            }
            if ruined {
                sh.disk = None;
            }
            for step in DEATH {
                match step {
                    Step::Health(up) => self.shards[s].healthy = up,
                    Step::Report => self.inbox.push_back(Inbox::Died(s)),
                    Step::Publish | Step::Resnapshot | Step::Respawn => {
                        unreachable!("a death rebuilds nothing")
                    }
                }
            }
        }

        /// The supervisor's next message.
        fn supervise(&mut self) {
            match self.inbox.pop_front() {
                Some(Inbox::Died(s)) => self.recover(s),
                Some(Inbox::Migrate) => {
                    let healthy: Vec<bool> = self.shards.iter().map(|sh| sh.healthy).collect();
                    self.migration = Some((involved(&moves(), |s| healthy[s]), Vec::new()));
                    self.migrate();
                }
                None => {}
            }
        }

        /// The migration receives its `Retire` answer, or gives up on a
        /// shard that reads `Recovering`: its worker died first, and nobody
        /// can answer until the supervisor respawns it.
        fn answered(&mut self, got: bool) {
            let Some(s) = self.awaiting.take() else { return };
            let state = self.shards[s].reply.take();
            assert_eq!(state.is_some(), got, "gave up on shard {s} with its state sent");
            let Some((_, retired)) = self.migration.as_mut() else { return };
            match state {
                Some(state) => {
                    retired.push(state);
                    self.migrate();
                }
                None => self.finish(),
            }
        }

        /// Asks the next involved shard to retire, or finishes.
        fn migrate(&mut self) {
            let Some((involved, retired)) = self.migration.as_ref() else { return };
            match involved.get(retired.len()) {
                Some(&s) => {
                    self.shards[s].channel.push_back(Msg::Retire);
                    self.awaiting = Some(s);
                }
                None => self.finish(),
            }
        }

        fn finish(&mut self) {
            let Some((involved, mut retired)) = self.migration.take() else { return };
            let mut forms: Vec<&mut ShardForms> =
                retired.iter_mut().map(|st| &mut st.forms).collect();
            let moved = moved(&moves(), &involved, &mut forms);
            for (&s, st) in involved.iter().zip(&retired) {
                let sh = &mut self.shards[s];
                if !moved.is_empty() && sh.logged {
                    sh.disk = sh.disk.as_ref().map(|_| Disk {
                        base: st.forms.clone(),
                        base_seq: st.last_seq,
                        records: Vec::new(),
                        synced: 0,
                    });
                    sh.floor = st.last_seq;
                }
            }
            for mv in &moved {
                assert_eq!(self.map[mv.edge], mv.from, "a move committed from a non-owner");
                self.map[mv.edge] = mv.to;
            }
            for (&s, st) in involved.iter().zip(retired) {
                self.shards[s].worker = Some(st);
            }
        }

        fn recover(&mut self, s: usize) {
            let map = self.map;
            let sh = &mut self.shards[s];
            let read = || sh.disk.as_ref().map(Disk::replay);
            let (mut state, lost) = match Rebuild::choose(sh.floor, read, &sh.lane) {
                Rebuild::Redo { floor, disk: mut forms } => {
                    let disk = sh.disk.as_mut().expect("a redo reads a disk");
                    for (seq, c) in sh.lane.past(floor) {
                        apply_crossing(&mut forms, c);
                        disk.append(seq, c);
                    }
                    (Some(State { forms, last_seq: sh.lane.next_seq }), Vec::new())
                }
                Rebuild::Lost { .. } => {
                    sh.logged = false;
                    let state = State { forms: ShardForms::default(), last_seq: sh.lane.next_seq };
                    (Some(state), lost_edges(s, EDGES, |e| map[e]))
                }
            };
            let redone = lost.is_empty();
            for step in RECOVERY {
                match step {
                    Step::Publish if self.shards[s].logged => self.sync(s),
                    Step::Publish => self.shards[s].floor = NO_LOG,
                    Step::Resnapshot => lost.iter().for_each(|&e| self.quarantined[e] = true),
                    Step::Health(up) => self.shards[s].healthy = up,
                    Step::Respawn => self.shards[s].worker = state.take(),
                    Step::Report => unreachable!("a recovery reports nothing"),
                }
            }
            let Some(st) = self.shards[s].worker.as_ref() else { return };
            if redone {
                let (want, got) = self.served(s, &st.forms);
                assert_eq!(got, want, "shard {s} redone unlike the uninterrupted run");
            }
            for &(on, seq, e) in &self.stamped {
                if on == s && self.map[e] == s {
                    assert!(self.quarantined[e] || redone, "seq {seq} lost, edge {e} served");
                }
            }
        }

        /// At a leaf: every shard serves the uninterrupted run's forms.
        fn settled(&self) {
            for (s, sh) in self.shards.iter().enumerate() {
                let st = sh.worker.as_ref().expect("a leaf has every worker");
                let (want, got) = self.served(s, &st.forms);
                assert_eq!(got, want, "shard {s} settled unlike the uninterrupted run");
            }
        }
    }

    /// An ingest lane holding `retained` lanes `(first seq, length)`, its
    /// head at `next_seq`.
    fn ingest_lane(retained: &[(u64, usize)], next_seq: u64) -> IngestLane {
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
            let got = Rebuild::choose(published, replay, &ingest_lane(retained, head));
            let row = format!("floor {published}, disk {disk:?}, lanes {retained:?}, head {head}");
            assert_eq!(got, want, "{row}");
            assert_eq!(
                read.get(),
                published != NO_LOG,
                "{row}: the disk is read iff there is a log"
            );
        }
    }

    /// Walks every order from a durable or memory-only start; returns the
    /// states explored.
    fn walk(durable: bool) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![World::new(durable)];
        while let Some(w) = stack.pop() {
            if seen.insert(w.key()) {
                let next = w.successors();
                if next.is_empty() {
                    w.settled();
                }
                stack.extend(next);
            }
        }
        seen.len()
    }

    #[test]
    fn every_death_and_migration_order_keeps_each_history_whole_or_refused() {
        let t0 = Instant::now();
        let mut total = 0;
        for durable in [false, true] {
            let states = walk(durable);
            println!("durable {durable}: {states} states");
            assert!(states > 1_000, "a walk this short explores nothing");
            total += states;
        }
        println!("{total} states explored in {:.2?}", t0.elapsed());
    }
}
