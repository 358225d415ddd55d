//! The per-shard write-ahead log: length-prefixed, CRC-checksummed records
//! of ingested boundary-crossing events.
//!
//! ## Durability model
//!
//! [`WalWriter`] distinguishes *written* bytes (handed to the OS, possibly
//! sitting in a buffer) from *synced* bytes (flushed and — in a real
//! deployment — fsynced). A kill -9-style crash preserves every synced byte
//! and an arbitrary prefix of the unsynced suffix, including a cut in the
//! middle of a record (a torn write). [`WalWriter::kill_cut`] applies
//! exactly that: the surviving length is chosen by the caller (normally a
//! seeded `stq_net::DurabilityFaultPlan`), so crash experiments replay
//! bit-for-bit.
//!
//! ## Replay
//!
//! [`replay_wal`] walks the log from the front and stops at the first
//! framing, checksum, or sequence violation; everything before the stop is
//! trusted (CRC-verified, contiguous sequence numbers), everything after is
//! the torn tail, reported so the caller can truncate the file and hand the
//! gap to the quarantine path.

use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use stq_core::tracker::Crossing;
use stq_forms::TrackingForm;

use crate::crc::crc32;
use crate::snapshot::install_forms;

/// Fixed payload size: `seq u64 + edge u64 + flags u8 + time-bits u64`.
pub(crate) const PAYLOAD_LEN: usize = 25;
/// Header size: `len u32 + crc u32`.
pub(crate) const HEADER_LEN: usize = 8;
/// Full record size on disk.
pub const RECORD_LEN: u64 = (HEADER_LEN + PAYLOAD_LEN) as u64;

pub(crate) fn encode_payload(seq: u64, c: &Crossing) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..8].copy_from_slice(&seq.to_le_bytes());
    c.encode_into(&mut p[8..]);
    p
}

pub(crate) fn decode_payload(p: &[u8]) -> Option<(u64, Crossing)> {
    if p.len() != PAYLOAD_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(p[0..8].try_into().unwrap());
    Crossing::decode(&p[8..]).map(|c| (seq, c))
}

/// An append-only writer over one shard's log file.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    /// Logical length: every byte appended, including buffered ones.
    written: u64,
    /// Durable boundary: bytes guaranteed to survive a crash.
    synced: u64,
    last_seq: u64,
    records: u64,
    /// The frame being encoded, header first: kept between appends so a
    /// frame costs no allocation, and handed to the file in one write.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) a fresh log whose first record will carry
    /// `base_seq + 1`.
    pub fn create(path: &Path, base_seq: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            written: 0,
            synced: 0,
            last_seq: base_seq,
            records: 0,
            frame: Vec::new(),
        })
    }

    /// Re-opens a recovered log for appending: the file is truncated to
    /// `valid_len` (dropping any torn tail) and the writer resumes after
    /// `last_seq`.
    pub fn resume(
        path: &Path,
        valid_len: u64,
        last_seq: u64,
        records: u64,
    ) -> std::io::Result<Self> {
        // Deliberately no `truncate(true)`: the surviving prefix must be
        // kept; `set_len` below drops only the torn tail.
        let file = OpenOptions::new().create(true).truncate(false).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            written: valid_len,
            synced: valid_len,
            last_seq,
            records,
            frame: Vec::new(),
        })
    }

    /// Appends one record — a one-event lane. `seq` must continue the shard's
    /// contiguous sequence — the invariant replay uses to prove nothing
    /// vanished mid-log.
    pub fn append(&mut self, seq: u64, c: &Crossing) -> std::io::Result<()> {
        self.append_lane(seq, std::slice::from_ref(c))
    }

    /// The one frame encoder. Appends `lane`, whose events carry the
    /// sequences `first_seq..`, as **one** length-prefixed frame: a single
    /// header whose length is `k × PAYLOAD_LEN` and whose CRC covers the
    /// concatenated payloads, followed by the `k` fixed-size payloads.
    /// `first_seq` must continue the log contiguously.
    ///
    /// [`replay_wal`] accepts any mix of frame sizes, and a one-event frame
    /// is the classic single record. A torn cut inside a frame loses the
    /// whole frame — the group either commits or does not, which is exactly
    /// the group-commit contract.
    ///
    /// The writer claims a sequence only once the file took its frame: after
    /// an `Err` its counters read as before the call, so a later `sync`
    /// cannot report a floor over records that were never written.
    pub fn append_lane(&mut self, first_seq: u64, lane: &[Crossing]) -> std::io::Result<()> {
        if lane.is_empty() {
            return Ok(());
        }
        assert_eq!(first_seq, self.last_seq + 1, "WAL sequence must be contiguous");
        let len = u32::try_from(lane.len() * PAYLOAD_LEN).expect("a frame's length fits its u32");
        self.frame.clear();
        self.frame.resize(HEADER_LEN, 0);
        for (seq, c) in (first_seq..).zip(lane) {
            self.frame.extend_from_slice(&encode_payload(seq, c));
        }
        let crc = crc32(&self.frame[HEADER_LEN..]);
        self.frame[0..4].copy_from_slice(&len.to_le_bytes());
        self.frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&self.frame)?;
        self.written += self.frame.len() as u64;
        self.last_seq += lane.len() as u64;
        self.records += lane.len() as u64;
        Ok(())
    }

    /// [`WalWriter::append_lane`] for records that carry their sequences,
    /// which must be contiguous among themselves as well.
    pub fn append_batch(&mut self, records: &[(u64, Crossing)]) -> std::io::Result<()> {
        let Some(&(first_seq, _)) = records.first() else { return Ok(()) };
        let contiguous =
            records.iter().map(|r| r.0).eq(first_seq..first_seq + records.len() as u64);
        assert!(contiguous, "WAL sequence must be contiguous");
        let lane: Vec<Crossing> = records.iter().map(|r| r.1).collect();
        self.append_lane(first_seq, &lane)
    }

    /// Flushes and marks everything written so far as durable. Returns the
    /// highest sequence number now guaranteed to survive a crash.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        self.file.flush()?;
        self.synced = self.written;
        Ok(self.last_seq)
    }

    /// Truncates the log to empty after a snapshot covering `covered_seq`
    /// was installed; subsequent appends continue the sequence.
    pub fn reset_after_snapshot(&mut self, covered_seq: u64) -> std::io::Result<()> {
        assert_eq!(covered_seq, self.last_seq, "snapshot must cover the full log");
        self.file.flush()?;
        let file = self.file.get_mut();
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        self.written = 0;
        self.synced = 0;
        self.records = 0;
        Ok(())
    }

    /// Bytes appended but not yet durable.
    pub fn unsynced_bytes(&self) -> u64 {
        self.written - self.synced
    }

    /// Highest appended sequence number.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Records currently in the log (since the last snapshot).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Simulates a kill -9 at this instant: synced bytes survive, plus the
    /// first `surviving_unsynced` bytes of the unsynced suffix (a torn write
    /// when that lands mid-record). Consumes the writer — the process is
    /// dead.
    pub fn kill_cut(mut self, surviving_unsynced: u64) -> std::io::Result<u64> {
        self.file.flush()?;
        let keep = self.synced + surviving_unsynced.min(self.written - self.synced);
        let file = self.file.get_mut();
        file.set_len(keep)?;
        Ok(keep)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The outcome of replaying one shard's log.
#[derive(Clone, Debug, PartialEq)]
pub struct WalReplay {
    /// Recovered events in sequence order, each tagged with its seq.
    pub events: Vec<(u64, Crossing)>,
    /// Bytes of the valid prefix (where replay stopped trusting the file).
    pub valid_bytes: u64,
    /// Total bytes on disk (> `valid_bytes` means a torn or corrupt tail).
    pub file_bytes: u64,
    /// A framing or checksum failure truncated the tail.
    pub torn: bool,
    /// A checksum-valid record carried a non-contiguous sequence number —
    /// evidence of mid-log corruption, not just a torn tail.
    pub seq_break: bool,
}

impl WalReplay {
    /// Highest recovered sequence number, or `base_seq` when empty.
    pub fn last_seq(&self, base_seq: u64) -> u64 {
        self.events.last().map(|&(s, _)| s).unwrap_or(base_seq)
    }
}

/// Replays the log at `path`, trusting only the checksum-valid,
/// sequence-contiguous prefix that follows `base_seq` (the sequence number
/// the snapshot already covers). A missing file replays as empty.
pub fn replay_wal(path: &Path, base_seq: u64) -> std::io::Result<WalReplay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let file_bytes = bytes.len() as u64;
    let mut events = Vec::new();
    let mut off = 0usize;
    let mut expected = base_seq + 1;
    let mut torn = false;
    let mut seq_break = false;
    'frames: while off + HEADER_LEN <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        // A frame carries one or more fixed-size payloads (a group-commit
        // batch writes them all behind a single header and checksum).
        if len == 0 || len % PAYLOAD_LEN != 0 || off + HEADER_LEN + len > bytes.len() {
            torn = true; // nonsense length or truncated frame
            break;
        }
        let payload = &bytes[off + HEADER_LEN..off + HEADER_LEN + len];
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        let frame_start = events.len();
        for rec in payload.chunks_exact(PAYLOAD_LEN) {
            let Some((seq, c)) = decode_payload(rec) else {
                torn = true;
                // The frame is all-or-nothing: `valid_bytes` stops before
                // it, so none of its records may be trusted either.
                events.truncate(frame_start);
                break 'frames;
            };
            if seq != expected {
                seq_break = true; // valid record, wrong position: mid-log damage
                events.truncate(frame_start);
                break 'frames;
            }
            events.push((seq, c));
            expected += 1;
        }
        off += HEADER_LEN + len;
    }
    if off < bytes.len() && !torn && !seq_break {
        torn = true; // trailing garbage shorter than a header
    }
    Ok(WalReplay { events, valid_bytes: off as u64, file_bytes, torn, seq_break })
}

/// The worker-side durability handle for one shard: WAL appends, periodic
/// syncs, and snapshot rollover in one place.
#[derive(Debug)]
pub struct ShardDurability {
    dir: PathBuf,
    shard: usize,
    wal: WalWriter,
    snapshot_every: u64,
    sync_every: u64,
    since_snapshot: u64,
    since_sync: u64,
}

/// What a [`ShardDurability::append`] made durable, if anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableMark {
    /// Highest sequence now guaranteed to survive a crash (after a sync or
    /// snapshot), `None` when this append only buffered.
    pub durable_seq: Option<u64>,
    /// This append rolled the log into a fresh snapshot.
    pub snapshotted: bool,
}

impl ShardDurability {
    /// The directory holding one shard's snapshot and log.
    pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
        root.join(format!("shard-{shard}"))
    }

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Initializes fresh durable state for a shard: installs a base snapshot
    /// of `forms` covering `base_seq` and creates an empty log.
    pub fn initialize<'a, K: Borrow<usize>>(
        root: &Path,
        shard: usize,
        forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
        base_seq: u64,
        snapshot_every: u64,
        sync_every: u64,
    ) -> std::io::Result<Self> {
        let dir = Self::shard_dir(root, shard);
        std::fs::create_dir_all(&dir)?;
        install_forms(&dir, shard, base_seq, forms)?;
        let wal = WalWriter::create(&Self::wal_path(&dir), base_seq)?;
        Ok(ShardDurability {
            dir,
            shard,
            wal,
            snapshot_every: snapshot_every.max(1),
            sync_every: sync_every.max(1),
            since_snapshot: 0,
            since_sync: 0,
        })
    }

    /// Resumes after recovery: the log is truncated to its valid prefix and
    /// appends continue from `last_seq`.
    pub fn resume(
        root: &Path,
        shard: usize,
        valid_len: u64,
        last_seq: u64,
        records: u64,
        snapshot_every: u64,
        sync_every: u64,
    ) -> std::io::Result<Self> {
        let dir = Self::shard_dir(root, shard);
        std::fs::create_dir_all(&dir)?;
        let wal = WalWriter::resume(&Self::wal_path(&dir), valid_len, last_seq, records)?;
        Ok(ShardDurability {
            dir,
            shard,
            wal,
            snapshot_every: snapshot_every.max(1),
            sync_every: sync_every.max(1),
            since_snapshot: records,
            since_sync: 0,
        })
    }

    /// Appends `lane` (sequences `first_seq..`) as one WAL frame (see
    /// [`WalWriter::append_lane`]), then applies the one rule every frame
    /// follows: snapshot if `snapshot_every` events have been appended since
    /// the last one, otherwise sync if `sync_every` have since the last sync.
    /// A one-event lane is the classic single record; a lane of `sync_every`
    /// events or more commits with its own sync, and a shorter one waits for
    /// a later frame's — the server's redo buffer holds it until then.
    /// `forms` is the shard's in-memory state *including* every event of the
    /// lane — the state a due snapshot must capture.
    pub fn append<'a, K: Borrow<usize>>(
        &mut self,
        first_seq: u64,
        lane: &[Crossing],
        forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
    ) -> std::io::Result<DurableMark> {
        self.wal.append_lane(first_seq, lane)?;
        self.since_snapshot += lane.len() as u64;
        self.since_sync += lane.len() as u64;
        if self.since_snapshot >= self.snapshot_every {
            self.snapshot_now(forms)?;
            return Ok(DurableMark { durable_seq: Some(self.wal.last_seq()), snapshotted: true });
        }
        if self.since_sync >= self.sync_every {
            let durable = self.sync()?;
            return Ok(DurableMark { durable_seq: Some(durable), snapshotted: false });
        }
        Ok(DurableMark::default())
    }

    /// Installs a snapshot of `forms` now, streamed from their own sequences,
    /// and truncates the log.
    pub fn snapshot_now<'a, K: Borrow<usize>>(
        &mut self,
        forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
    ) -> std::io::Result<()> {
        let covered = self.wal.last_seq();
        install_forms(&self.dir, self.shard, covered, forms)?;
        self.wal.reset_after_snapshot(covered)?;
        self.since_snapshot = 0;
        self.since_sync = 0;
        Ok(())
    }

    /// Flushes the log, making everything appended durable.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        self.since_sync = 0;
        self.wal.sync()
    }

    /// Highest appended sequence number.
    pub fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Bytes that a crash right now would expose to loss.
    pub fn unsynced_bytes(&self) -> u64 {
        self.wal.unsynced_bytes()
    }

    /// Simulates a kill -9 (see [`WalWriter::kill_cut`]). Consumes the
    /// handle.
    pub fn kill_cut(self, surviving_unsynced: u64) -> std::io::Result<u64> {
        self.wal.kill_cut(surviving_unsynced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("stq-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn ev(seq: u64) -> Crossing {
        Crossing { time: seq as f64 * 0.5, edge: (seq % 7) as usize, forward: seq % 2 == 0 }
    }

    #[test]
    fn roundtrip_replays_every_record() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        for s in 1..=100u64 {
            w.append(s, &ev(s)).unwrap();
        }
        w.sync().unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.events.len(), 100);
        assert!(!r.torn && !r.seq_break);
        assert_eq!(r.valid_bytes, r.file_bytes);
        for (i, &(s, c)) in r.events.iter().enumerate() {
            assert_eq!(s, i as u64 + 1);
            assert_eq!(c, ev(s));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_record() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        for s in 1..=10u64 {
            w.append(s, &ev(s)).unwrap();
        }
        w.sync().unwrap();
        // Cut mid-record: keep 7 full records plus half of the 8th.
        let keep = 7 * RECORD_LEN + RECORD_LEN / 2;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.events.len(), 7);
        assert!(r.torn);
        assert!(!r.seq_break);
        assert_eq!(r.valid_bytes, 7 * RECORD_LEN);
        assert_eq!(r.file_bytes, keep);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_stops_replay_and_flags_torn() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        for s in 1..=5u64 {
            w.append(s, &ev(s)).unwrap();
        }
        w.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = 2 * RECORD_LEN as usize + HEADER_LEN + 3; // payload of record 3
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.events.len(), 2, "replay trusts only the prefix before the flip");
        assert!(r.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_cut_preserves_synced_prefix() {
        let dir = tmpdir("kill");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        for s in 1..=6u64 {
            w.append(s, &ev(s)).unwrap();
        }
        w.sync().unwrap();
        for s in 7..=10u64 {
            w.append(s, &ev(s)).unwrap();
        }
        assert_eq!(w.unsynced_bytes(), 4 * RECORD_LEN);
        // The crash keeps 1.5 unsynced records: 7 survives whole, 8 is torn.
        w.kill_cut(RECORD_LEN + RECORD_LEN / 2).unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.last_seq(0), 7);
        assert!(r.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_continues_the_sequence() {
        let dir = tmpdir("resume");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        for s in 1..=4u64 {
            w.append(s, &ev(s)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let r = replay_wal(&path, 0).unwrap();
        let mut w = WalWriter::resume(&path, r.valid_bytes, r.last_seq(0), 4).unwrap();
        for s in 5..=8u64 {
            w.append(s, &ev(s)).unwrap();
        }
        w.sync().unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.events.len(), 8);
        assert!(!r.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn sequence_jump_rejected_at_append() {
        let dir = tmpdir("jump");
        let mut w = WalWriter::create(&dir.join("wal.log"), 0).unwrap();
        w.append(1, &ev(1)).unwrap();
        let _ = w.append(3, &ev(3));
    }

    #[test]
    fn batch_frames_replay_like_singles() {
        let dir = tmpdir("batch");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        // Mixed framing: singles, a batch, more singles, another batch.
        w.append(1, &ev(1)).unwrap();
        w.append(2, &ev(2)).unwrap();
        let batch: Vec<(u64, Crossing)> = (3..=7u64).map(|s| (s, ev(s))).collect();
        w.append_batch(&batch).unwrap();
        w.append(8, &ev(8)).unwrap();
        let batch2: Vec<(u64, Crossing)> = (9..=12u64).map(|s| (s, ev(s))).collect();
        w.append_batch(&batch2).unwrap();
        w.sync().unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.events.len(), 12);
        assert!(!r.torn && !r.seq_break);
        assert_eq!(r.valid_bytes, r.file_bytes);
        for (i, &(s, c)) in r.events.iter().enumerate() {
            assert_eq!(s, i as u64 + 1);
            assert_eq!(c, ev(s));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_record_batch_is_byte_identical_to_append() {
        let dir = tmpdir("batch-one");
        let single = dir.join("single.log");
        let batched = dir.join("batched.log");
        let mut w = WalWriter::create(&single, 0).unwrap();
        w.append(1, &ev(1)).unwrap();
        w.sync().unwrap();
        let mut w = WalWriter::create(&batched, 0).unwrap();
        w.append_batch(&[(1, ev(1))]).unwrap();
        w.sync().unwrap();
        assert_eq!(std::fs::read(&single).unwrap(), std::fs::read(&batched).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frames_are_byte_identical_to_the_two_encoders_they_replaced() {
        // The frame spelled out the plain way, as `append` and
        // `append_batch` each used to build it themselves.
        let frame_of = |records: &[(u64, Crossing)]| -> Vec<u8> {
            let mut payload = Vec::new();
            for &(seq, ref c) in records {
                payload.extend_from_slice(&encode_payload(seq, c));
            }
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        };
        let dir = tmpdir("golden");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 4).unwrap();
        let mut want = Vec::new();
        w.append(5, &ev(5)).unwrap();
        want.extend(frame_of(&[(5, ev(5))]));
        let batch: Vec<(u64, Crossing)> = (6..=300u64).map(|s| (s, ev(s))).collect();
        w.append_batch(&batch).unwrap();
        want.extend(frame_of(&batch));
        let lane: Vec<Crossing> = (301..=340u64).map(ev).collect();
        w.append_lane(301, &lane).unwrap();
        want.extend(frame_of(&(301..=340u64).map(|s| (s, ev(s))).collect::<Vec<_>>()));
        w.append(341, &ev(341)).unwrap();
        want.extend(frame_of(&[(341, ev(341))]));
        w.sync().unwrap();
        assert_eq!((w.last_seq(), w.records(), w.unsynced_bytes()), (341, 337, 0));
        assert!(std::fs::read(&path).unwrap() == want, "the log's bytes moved");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_write_claims_no_sequence() {
        // `/dev/full` refuses every write with ENOSPC. The lane is larger
        // than `BufWriter`'s 8 KiB buffer, so the write reaches the device
        // inside `append_lane` and not at some later flush.
        let mut w = WalWriter::create(Path::new("/dev/full"), 7).unwrap();
        let lane: Vec<Crossing> = (8..8 + 400u64).map(ev).collect();
        assert!(lane.len() * PAYLOAD_LEN > 8 << 10);
        w.append_lane(8, &lane).expect_err("the device is full");
        assert_eq!((w.last_seq(), w.records(), w.unsynced_bytes()), (7, 0, 0));
        // Nothing was written, so the floor a sync reports is still the base.
        assert_eq!(w.sync().unwrap(), 7);
    }

    #[test]
    fn torn_batch_frame_is_lost_as_a_unit() {
        let dir = tmpdir("batch-torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append(1, &ev(1)).unwrap();
        let batch: Vec<(u64, Crossing)> = (2..=6u64).map(|s| (s, ev(s))).collect();
        w.append_batch(&batch).unwrap();
        w.sync().unwrap();
        // Cut inside the batch frame: keep the single record plus the batch
        // header and 2.5 payloads.
        let keep = RECORD_LEN + HEADER_LEN as u64 + 2 * PAYLOAD_LEN as u64 + 12;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert_eq!(r.events.len(), 1, "the torn frame must not contribute any record");
        assert_eq!(r.valid_bytes, RECORD_LEN);
        assert!(r.torn);
        assert!(!r.seq_break);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_bit_flip_drops_the_whole_frame() {
        let dir = tmpdir("batch-flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        let batch: Vec<(u64, Crossing)> = (1..=4u64).map(|s| (s, ev(s))).collect();
        w.append_batch(&batch).unwrap();
        w.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = HEADER_LEN + 3 * PAYLOAD_LEN + 5; // last payload in the frame
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay_wal(&path, 0).unwrap();
        assert!(r.events.is_empty(), "one flipped byte poisons the frame's single CRC");
        assert!(r.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn batch_sequence_jump_rejected_at_append() {
        let dir = tmpdir("batch-jump");
        let mut w = WalWriter::create(&dir.join("wal.log"), 0).unwrap();
        let _ = w.append_batch(&[(1, ev(1)), (3, ev(3))]);
    }

    #[test]
    fn durability_batch_is_durable_after_one_call() {
        let dir = tmpdir("batch-durable");
        let forms = stq_forms::ShardForms::default();
        let mut d = ShardDurability::initialize(&dir, 0, &forms, 0, 1_000_000, 10).unwrap();
        let lane: Vec<Crossing> = (1..=10u64).map(ev).collect();
        let mark = d.append(1, &lane, &forms).unwrap();
        assert_eq!(mark.durable_seq, Some(10), "group commit publishes the batch's tail");
        assert!(!mark.snapshotted);
        assert_eq!(d.unsynced_bytes(), 0, "the single sync covered the whole frame");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_sync_rule_for_every_lane_size() {
        let dir = tmpdir("sync-rule");
        let forms = stq_forms::ShardForms::default();
        let mut d = ShardDurability::initialize(&dir, 0, &forms, 0, 1_000_000, 16).unwrap();
        // Lane sizes, and whether the frame each makes syncs: the 16th
        // one-event lane does, as the 16th single record always did; a lane
        // of 16 events or more does by itself; a shorter one waits.
        let mut lanes = vec![(1, false); 15];
        lanes.extend([(1, true), (5, false), (40, true), (3, false), (20, true)]);
        let (mut next, mut unsynced) = (1u64, 0u64);
        for &(len, syncs) in &lanes {
            let lane: Vec<Crossing> = (next..next + len).map(ev).collect();
            let mark = d.append(next, &lane, &forms).unwrap();
            next += len;
            let frame = (HEADER_LEN + len as usize * PAYLOAD_LEN) as u64;
            unsynced = if syncs { 0 } else { unsynced + frame };
            let want = DurableMark { durable_seq: syncs.then_some(next - 1), snapshotted: false };
            assert_eq!(mark, want, "the lane of {len} ending at {}", next - 1);
            assert_eq!(d.unsynced_bytes(), unsynced, "the lane of {len} ending at {}", next - 1);
        }
        let r = replay_wal(&dir.join("shard-0").join("wal.log"), 0).unwrap();
        assert!(!r.torn && !r.seq_break);
        assert!(r.events.iter().map(|&(seq, _)| seq).eq(1..next), "contiguous from 1");
        let headers = (lanes.len() * HEADER_LEN) as u64;
        assert_eq!(r.valid_bytes, headers + (next - 1) * PAYLOAD_LEN as u64, "one frame per lane");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = tmpdir("missing");
        let r = replay_wal(&dir.join("nope.log"), 9).unwrap();
        assert!(r.events.is_empty());
        assert_eq!(r.last_seq(9), 9);
        assert!(!r.torn);
        std::fs::remove_dir_all(&dir).ok();
    }
}
