//! Crash recovery for one shard: load the last installed snapshot, replay
//! the WAL's trusted prefix on top, truncate any torn tail, and report what
//! happened so the caller can (a) resume appending and (b) hand suspicious
//! gaps to the audit → quarantine path.
//!
//! ## Soundness
//!
//! Replay only ever *truncates* at the first invalid byte; it never invents
//! or reorders events. The recovered state is therefore exactly the
//! uninterrupted state as of some durable prefix of the ingest stream. Any
//! events after that prefix are either re-sent by the server's redo buffer
//! (byte-identical recovery) or counted as lost — and a lost crossing can
//! only *widen* a query's `[lower, upper]` bracket via the degradation
//! bounds, never narrow it past the truth.

use std::path::Path;

use stq_core::tracker::Crossing;
use stq_forms::ShardForms;

use crate::snapshot::{load_snapshot, state_digest};
use crate::wal::{replay_wal, ShardDurability};

/// Applies one crossing to a shard's forms, skipping (and reporting
/// `false` for) an event whose timestamp would violate the per-direction
/// monotonicity invariant. Live ingest and recovery replay share this
/// function, so the rebuilt state is byte-identical to the uninterrupted one
/// *by construction* — both sides make the same accept/reject decision for
/// every event in sequence order.
pub fn apply_crossing(forms: &mut ShardForms, c: &Crossing) -> bool {
    let form = forms.get_mut_or_insert(c.edge);
    if form.timestamps(c.forward).last().is_some_and(|&last| c.time < last) {
        return false;
    }
    form.record(c.forward, c.time);
    true
}

/// What recovery found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard id recovered.
    pub shard: usize,
    /// WAL sequence the snapshot covered (0 = fresh/base snapshot).
    pub snapshot_seq: u64,
    /// Checksum-valid WAL records replayed on top of the snapshot.
    pub wal_records: u64,
    /// Highest sequence number in the recovered state.
    pub recovered_seq: u64,
    /// The WAL ended in a torn or corrupt tail that was truncated.
    pub torn_tail: bool,
    /// Bytes discarded from the tail.
    pub discarded_bytes: u64,
    /// A checksum-valid record was found out of sequence (mid-log damage);
    /// the state is still sound but the gap needs auditing.
    pub seq_break: bool,
}

/// A recovered shard: rebuilt state plus a resumable durability handle.
#[derive(Debug)]
pub struct RecoveredShard {
    /// The shard's forms, byte-identical to the durable prefix.
    pub forms: ShardForms,
    /// Durability handle resumed at the recovered sequence (WAL truncated to
    /// its valid prefix).
    pub durability: ShardDurability,
    /// What happened.
    pub report: RecoveryReport,
}

impl RecoveredShard {
    /// Digest of the recovered state (see [`state_digest`]).
    pub fn digest(&self) -> u64 {
        state_digest(&self.forms)
    }
}

/// Recovers shard `shard` from `root/shard-<shard>/`: snapshot first, then
/// the WAL's trusted prefix, truncating anything after it. Events are
/// replayed through [`apply_crossing`] — the same accept/reject rule the
/// live ingest path uses — so the rebuilt state matches the uninterrupted
/// one bit for bit.
///
/// Errors are real I/O failures or a corrupt snapshot
/// ([`std::io::ErrorKind::InvalidData`]); a missing snapshot recovers to an
/// empty state and a missing WAL to zero records.
pub fn recover_shard(
    root: &Path,
    shard: usize,
    snapshot_every: u64,
    sync_every: u64,
) -> std::io::Result<RecoveredShard> {
    let dir = ShardDurability::shard_dir(root, shard);
    let (mut forms, snapshot_seq) = match load_snapshot(&dir)? {
        Some(snap) => {
            let covered = snap.covered_seq;
            (snap.restore(), covered)
        }
        None => (ShardForms::default(), 0),
    };
    let replay = replay_wal(&dir.join("wal.log"), snapshot_seq)?;
    for (_seq, c) in &replay.events {
        apply_crossing(&mut forms, c);
    }
    let recovered_seq = replay.last_seq(snapshot_seq);
    let report = RecoveryReport {
        shard,
        snapshot_seq,
        wal_records: replay.events.len() as u64,
        recovered_seq,
        torn_tail: replay.torn,
        discarded_bytes: replay.file_bytes - replay.valid_bytes,
        seq_break: replay.seq_break,
    };
    let durability = ShardDurability::resume(
        root,
        shard,
        replay.valid_bytes,
        recovered_seq,
        replay.events.len() as u64,
        snapshot_every,
        sync_every,
    )?;
    Ok(RecoveredShard { forms, durability, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use stq_core::tracker::Crossing;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("stq-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn ev(seq: u64) -> Crossing {
        Crossing { time: seq as f64 * 0.25, edge: (seq % 5) as usize, forward: seq % 3 != 0 }
    }

    /// Runs `n` events through a fresh shard with the given cadence,
    /// returning the live in-memory state and the durability handle.
    fn run_shard(
        root: &Path,
        n: u64,
        snapshot_every: u64,
        sync_every: u64,
    ) -> (ShardForms, ShardDurability) {
        let mut forms = ShardForms::default();
        let mut d =
            ShardDurability::initialize(root, 0, &forms, 0, snapshot_every, sync_every).unwrap();
        for seq in 1..=n {
            let c = ev(seq);
            forms.get_mut_or_insert(c.edge).record(c.forward, c.time);
            d.append(seq, std::slice::from_ref(&c), &forms).unwrap();
        }
        (forms, d)
    }

    #[test]
    fn clean_shutdown_recovers_byte_identical_state() {
        let root = tmpdir("clean");
        let (forms, mut d) = run_shard(&root, 137, 32, 8);
        d.sync().unwrap();
        drop(d);
        let rec = recover_shard(&root, 0, 32, 8).unwrap();
        assert_eq!(rec.digest(), state_digest(&forms));
        assert_eq!(rec.report.recovered_seq, 137);
        assert!(!rec.report.torn_tail && !rec.report.seq_break);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn crash_with_torn_tail_recovers_durable_prefix() {
        let root = tmpdir("torn");
        let (_forms, d) = run_shard(&root, 100, 1_000, 16);
        // Last sync at seq 96; crash keeps 2.5 of the 4 unsynced records.
        let cut = crate::wal::RECORD_LEN * 2 + crate::wal::RECORD_LEN / 2;
        d.kill_cut(cut).unwrap();

        let rec = recover_shard(&root, 0, 1_000, 16).unwrap();
        assert_eq!(rec.report.recovered_seq, 98);
        assert!(rec.report.torn_tail);
        assert!(rec.report.discarded_bytes > 0);

        // The recovered state must equal an uninterrupted run over the
        // surviving prefix, bit for bit.
        let oracle_root = tmpdir("torn-oracle");
        let (oracle, _) = run_shard(&oracle_root, 98, 1_000, 16);
        assert_eq!(rec.digest(), state_digest(&oracle));
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&oracle_root).ok();
    }

    #[test]
    fn recovery_resumes_appends_without_gaps() {
        let root = tmpdir("resume");
        let (_, d) = run_shard(&root, 50, 1_000, 10);
        d.kill_cut(0).unwrap(); // lose everything unsynced (last sync at 50)

        let mut rec = recover_shard(&root, 0, 1_000, 10).unwrap();
        let next = rec.report.recovered_seq + 1;
        for seq in next..next + 20 {
            let c = ev(seq);
            rec.forms.get_mut_or_insert(c.edge).record(c.forward, c.time);
            rec.durability.append(seq, std::slice::from_ref(&c), &rec.forms).unwrap();
        }
        rec.durability.sync().unwrap();
        drop(rec);

        let rec2 = recover_shard(&root, 0, 1_000, 10).unwrap();
        assert_eq!(rec2.report.recovered_seq, next + 19);
        assert!(!rec2.report.seq_break);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn snapshot_rollover_bounds_wal_replay() {
        let root = tmpdir("rollover");
        let (forms, mut d) = run_shard(&root, 100, 30, 5);
        d.sync().unwrap();
        drop(d);
        let rec = recover_shard(&root, 0, 30, 5).unwrap();
        // Snapshots rolled at 30/60/90 → at most 10 records left to replay.
        assert_eq!(rec.report.snapshot_seq, 90);
        assert_eq!(rec.report.wal_records, 10);
        assert_eq!(rec.digest(), state_digest(&forms));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_directory_recovers_empty_state() {
        let root = tmpdir("empty");
        let rec = recover_shard(&root, 3, 64, 8).unwrap();
        assert!(rec.forms.is_empty());
        assert_eq!(rec.report.recovered_seq, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
