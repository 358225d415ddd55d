//! Compact shard snapshots: the full per-edge timestamp state serialized
//! bit-exactly, installed with a write-temp-then-rename so a crash never
//! leaves a half-written snapshot in place.
//!
//! ## Format
//!
//! ```text
//! [magic: u64]["STQSNAP1"]          file identification
//! [shard: u64][covered_seq: u64]    which shard, which WAL seq it covers
//! [num_edges: u64]
//! per edge (ascending edge id):
//!   [edge: u64][fwd_len: u64][bwd_len: u64]
//!   [fwd time bits: u64] * fwd_len
//!   [bwd time bits: u64] * bwd_len
//! [crc32 of everything above: u32]
//! ```
//!
//! Timestamps are raw `f64` bit patterns: a load reproduces the captured
//! state byte-for-byte, which is what lets recovery tests assert digest
//! equality against an uninterrupted run.
//!
//! ## Streamed, never materialised
//!
//! There is one encoder, `write_snapshot`, and it never holds the file: it
//! walks `(edge, forward times, backward times)` slices in ascending edge
//! order, fills a fixed `CHUNK` (64 KiB) of bytes, folds each chunk into a
//! running [`Crc32`] and writes it out, so the checksum in the trailer is
//! known when the last chunk is. [`install_snapshot`] feeds it a [`ShardSnapshot`]'s
//! vectors; the running service (`install_forms`, behind
//! `ShardDurability::{initialize, snapshot_now}`) feeds it the live forms'
//! own slices, so a rollover clones no sequence and its memory is one chunk
//! whatever the shard holds. The bytes are the format's, not the encoder's:
//! the test module keeps the old build-it-all-then-checksum encoder as the
//! reference and compares files byte for byte.

use std::borrow::Borrow;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use stq_forms::{ShardForms, TrackingForm};

use crate::crc::{crc32, Crc32};

const MAGIC: &[u8; 8] = b"STQSNAP1";
/// Bytes the encoder buffers between writes. Everything the format holds is
/// an 8-byte word but the trailer, so a chunk always fills exactly.
const CHUNK: usize = 64 << 10;
const _: () = assert!(CHUNK % 8 == 0, "a chunk is a whole number of words");

/// A point-in-time capture of one shard's tracking-form state.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSnapshot {
    /// Shard id the state belongs to.
    pub shard: usize,
    /// Highest WAL sequence number already folded into this state; replay
    /// resumes at `covered_seq + 1`.
    pub covered_seq: u64,
    /// Per-edge `(edge, forward times, backward times)`, ascending by edge.
    pub edges: Vec<(usize, Vec<f64>, Vec<f64>)>,
}

impl ShardSnapshot {
    /// Captures `forms` (a [`ShardForms`], or any `(edge, form)` pairs) in edge order.
    pub fn capture<'a, K: Borrow<usize>>(
        shard: usize,
        covered_seq: u64,
        forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
    ) -> Self {
        let edges = sequences(forms).map(|(e, fwd, bwd)| (e, fwd.to_vec(), bwd.to_vec())).collect();
        ShardSnapshot { shard, covered_seq, edges }
    }

    /// Rebuilds the shard state this snapshot captured, out of its vectors.
    pub fn restore(self) -> ShardForms {
        let mut forms = ShardForms::default();
        for (e, fwd, bwd) in self.edges {
            forms.insert(e, TrackingForm::from_sequences(fwd, bwd));
        }
        forms
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < MAGIC.len() + 8 * 3 + 4 || &bytes[..8] != MAGIC {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored {
            return None;
        }
        let mut off = 8;
        let u64_at = |o: &mut usize| -> Option<u64> {
            let v = body.get(*o..*o + 8)?;
            *o += 8;
            Some(u64::from_le_bytes(v.try_into().unwrap()))
        };
        let shard = u64_at(&mut off)? as usize;
        let covered_seq = u64_at(&mut off)?;
        let num_edges = u64_at(&mut off)?;
        let mut edges = Vec::with_capacity(num_edges.min(1 << 20) as usize);
        for _ in 0..num_edges {
            let edge = u64_at(&mut off)? as usize;
            let fwd_len = u64_at(&mut off)? as usize;
            let bwd_len = u64_at(&mut off)? as usize;
            let read_times = |n: usize, o: &mut usize| -> Option<Vec<f64>> {
                // One bounds check for the sequence; the capacity is still
                // not sized by a length read from disk.
                let end = n.checked_mul(8).and_then(|bytes| o.checked_add(bytes))?;
                let raw = body.get(*o..end)?;
                *o = end;
                let mut v = Vec::with_capacity(n.min(1 << 20));
                for word in raw.chunks_exact(8) {
                    let t = f64::from_bits(u64::from_le_bytes(word.try_into().unwrap()));
                    if !t.is_finite() {
                        return None;
                    }
                    v.push(t);
                }
                Some(v)
            };
            let fwd = read_times(fwd_len, &mut off)?;
            let bwd = read_times(bwd_len, &mut off)?;
            edges.push((edge, fwd, bwd));
        }
        // Trailing bytes nothing explains, or edge ids not ascending as the format
        // promises: a repeat would restore with one of its two forms silently dropped.
        if off != body.len() || !edges.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        Some(ShardSnapshot { shard, covered_seq, edges })
    }
}

/// What a snapshot holds of `forms`, in the order it holds it: ascending
/// `(edge, forward times, backward times)`, borrowed.
fn sequences<'a, K: Borrow<usize>>(
    forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
) -> impl ExactSizeIterator<Item = (usize, &'a [f64], &'a [f64])> {
    ShardForms::ascending(forms).map(|(e, f)| (e, f.timestamps(true), f.timestamps(false)))
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

/// The file a snapshot streams into: words collect in one [`CHUNK`], and
/// every full chunk goes to the running checksum and the file.
struct ChunkedFile {
    file: File,
    crc: Crc32,
    chunk: Vec<u8>,
}

impl ChunkedFile {
    fn put(&mut self, words: impl IntoIterator<Item = u64>) -> std::io::Result<()> {
        for word in words {
            self.chunk.extend_from_slice(&word.to_le_bytes());
            if self.chunk.len() == CHUNK {
                self.crc.update(&self.chunk);
                self.file.write_all(&self.chunk)?;
                self.chunk.clear();
            }
        }
        Ok(())
    }
}

/// The one snapshot encoder. Streams `edges` — ascending by edge id, as many
/// as the iterator says it holds — to `dir/snapshot.bin` via a temp file and
/// atomic rename: a crash during installation leaves either the old snapshot
/// or the new one, never a torn hybrid.
fn write_snapshot<'a>(
    dir: &Path,
    shard: usize,
    covered_seq: u64,
    edges: impl ExactSizeIterator<Item = (usize, &'a [f64], &'a [f64])>,
) -> std::io::Result<()> {
    let tmp = dir.join("snapshot.bin.tmp");
    let mut out = ChunkedFile {
        file: File::create(&tmp)?,
        crc: Crc32::default(),
        chunk: Vec::with_capacity(CHUNK),
    };
    out.put([u64::from_le_bytes(*MAGIC), shard as u64, covered_seq, edges.len() as u64])?;
    for (edge, fwd, bwd) in edges {
        out.put([edge as u64, fwd.len() as u64, bwd.len() as u64])?;
        out.put(fwd.iter().chain(bwd).map(|t| t.to_bits()))?;
    }
    let ChunkedFile { mut file, mut crc, mut chunk } = out;
    crc.update(&chunk);
    chunk.extend_from_slice(&crc.finish().to_le_bytes());
    file.write_all(&chunk)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, snapshot_path(dir))
}

/// Writes `snap` to `dir/snapshot.bin` (temp file, then atomic rename).
pub fn install_snapshot(dir: &Path, snap: &ShardSnapshot) -> std::io::Result<()> {
    let edges = snap.edges.iter().map(|(e, fwd, bwd)| (*e, &fwd[..], &bwd[..]));
    write_snapshot(dir, snap.shard, snap.covered_seq, edges)
}

/// Writes the snapshot [`ShardSnapshot::capture`] would take of `forms`,
/// straight from the forms' own sequences: nothing is cloned on the way.
pub(crate) fn install_forms<'a, K: Borrow<usize>>(
    dir: &Path,
    shard: usize,
    covered_seq: u64,
    forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
) -> std::io::Result<()> {
    write_snapshot(dir, shard, covered_seq, sequences(forms))
}

/// Loads `dir/snapshot.bin`. `Ok(None)` when no snapshot exists; a present
/// but corrupt file is an [`std::io::ErrorKind::InvalidData`] error —
/// rename-install means that can only come from outside interference, not a
/// crash, so it is surfaced loudly rather than silently ignored.
pub fn load_snapshot(dir: &Path) -> std::io::Result<Option<ShardSnapshot>> {
    let mut bytes = Vec::new();
    match File::open(snapshot_path(dir)) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    ShardSnapshot::decode(&bytes).map(Some).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("corrupt snapshot at {}", snapshot_path(dir).display()),
        )
    })
}

/// An order-insensitive digest of a shard's state: FNV-1a over ascending
/// `(edge, direction lengths, raw time bits)`. Two states digest equal iff
/// every edge's timestamp sequences are bit-identical — the equality crash
/// recovery is required to restore.
pub fn state_digest<'a, K: Borrow<usize>>(
    forms: impl IntoIterator<Item = (K, &'a TrackingForm)>,
) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let eat = |h: &mut u64, word: u64| {
        for b in word.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (e, f) in ShardForms::ascending(forms) {
        eat(&mut h, e as u64);
        for forward in [true, false] {
            let ts = f.timestamps(forward);
            eat(&mut h, ts.len() as u64);
            for t in ts {
                eat(&mut h, t.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("stq-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_forms() -> ShardForms {
        let mut m = ShardForms::default();
        m.insert(3, TrackingForm::from_sequences(vec![0.5, 1.25, 7.0], vec![2.0]));
        m.insert(11, TrackingForm::from_sequences(vec![], vec![0.125, 0.125, 9.5]));
        m.insert(4, TrackingForm::from_sequences(vec![1e-12], vec![]));
        m
    }

    /// The format spelled out the plain way — the whole file built in
    /// memory, then checksummed: the reference the streamed encoder's files
    /// are compared against, byte for byte.
    fn reference_encode(snap: &ShardSnapshot) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + snap.edges.len() * 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(snap.shard as u64).to_le_bytes());
        out.extend_from_slice(&snap.covered_seq.to_le_bytes());
        out.extend_from_slice(&(snap.edges.len() as u64).to_le_bytes());
        for (edge, fwd, bwd) in &snap.edges {
            out.extend_from_slice(&(*edge as u64).to_le_bytes());
            out.extend_from_slice(&(fwd.len() as u64).to_le_bytes());
            out.extend_from_slice(&(bwd.len() as u64).to_le_bytes());
            for t in fwd.iter().chain(bwd.iter()) {
                out.extend_from_slice(&t.to_bits().to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn streamed_snapshot_bytes_equal_the_reference_encoding() {
        let ramp = |n: usize| -> Vec<f64> { (0..n).map(|i| 0.5 + i as f64 * 0.25).collect() };
        let shard_of = |edges: Vec<(usize, Vec<f64>, Vec<f64>)>| {
            let mut forms = ShardForms::default();
            for (e, fwd, bwd) in edges {
                forms.insert(e, TrackingForm::from_sequences(fwd, bwd));
            }
            forms
        };
        let mut owned_but_empty = sample_forms();
        owned_but_empty.insert(7, TrackingForm::default());
        let words = CHUNK / 8;
        // The file header is 4 words and an edge's header 3.
        let cases = [
            ("sample forms", sample_forms()),
            ("no edge at all", ShardForms::default()),
            ("an owned edge with no event", owned_but_empty),
            (
                "a chunk boundary inside a sequence",
                shard_of(vec![(2, ramp(words + 1_000), ramp(3)), (9, ramp(2), ramp(words * 2))]),
            ),
            (
                "a chunk boundary between two edges",
                shard_of(vec![(1, ramp(words - 4 - 3 - 5), ramp(5)), (2, ramp(4), vec![])]),
            ),
        ];
        let dir = tmpdir("bytes");
        let file = dir.join("snapshot.bin");
        for (case, forms) in cases {
            let snap = ShardSnapshot::capture(3, 77, &forms);
            let want = reference_encode(&snap);
            install_snapshot(&dir, &snap).unwrap();
            assert!(std::fs::read(&file).unwrap() == want, "{case}: from a captured snapshot");
            std::fs::remove_file(&file).unwrap();
            install_forms(&dir, 3, 77, &forms).unwrap();
            assert!(std::fs::read(&file).unwrap() == want, "{case}: from the live forms");
            assert_eq!(load_snapshot(&dir).unwrap().unwrap(), snap, "{case}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_then_load_roundtrips_bit_exactly() {
        let dir = tmpdir("roundtrip");
        let forms = sample_forms();
        let snap = ShardSnapshot::capture(2, 41, &forms);
        install_snapshot(&dir, &snap).unwrap();
        let loaded = load_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded, snap);
        assert_eq!(state_digest(&loaded.restore()), state_digest(&forms));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = tmpdir("missing");
        assert!(load_snapshot(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_invalid_data() {
        let dir = tmpdir("corrupt");
        install_snapshot(&dir, &ShardSnapshot::capture(0, 7, &sample_forms())).unwrap();
        let path = dir.join("snapshot.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_or_descending_edge_ids_are_invalid_data() {
        // Checksum-valid files (written by the encoder itself) that break the
        // format's ascending-edge promise: restoring one would keep only one
        // of the two forms and digest unlike what was captured.
        let dir = tmpdir("edge-order");
        let edge = |e: usize, t: f64| (e, vec![t], vec![]);
        for edges in [vec![edge(7, 1.0), edge(7, 2.0)], vec![edge(4, 1.0), edge(3, 2.0)]] {
            let snap = ShardSnapshot { shard: 0, covered_seq: 9, edges };
            install_snapshot(&dir, &snap).unwrap();
            let err = load_snapshot(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{:?}", snap.edges);
        }
        let ordered =
            ShardSnapshot { shard: 0, covered_seq: 9, edges: vec![edge(3, 2.0), edge(4, 1.0)] };
        install_snapshot(&dir, &ordered).unwrap();
        assert_eq!(load_snapshot(&dir).unwrap().unwrap(), ordered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reinstall_replaces_atomically() {
        let dir = tmpdir("reinstall");
        install_snapshot(&dir, &ShardSnapshot::capture(1, 5, &sample_forms())).unwrap();
        let mut forms = sample_forms();
        forms.get_mut_or_insert(3).record(true, 9.75);
        let newer = ShardSnapshot::capture(1, 6, &forms);
        install_snapshot(&dir, &newer).unwrap();
        assert_eq!(load_snapshot(&dir).unwrap().unwrap(), newer);
        assert!(!dir.join("snapshot.bin.tmp").exists(), "temp file must not linger");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_detects_any_single_timestamp_change() {
        let forms = sample_forms();
        let base = state_digest(&forms);
        let mut tweaked = sample_forms();
        let f = tweaked.get_mut_or_insert(11);
        let mut bwd = f.timestamps(false).to_vec();
        bwd[1] += 1e-9;
        *f = TrackingForm::from_sequences(f.timestamps(true).to_vec(), bwd);
        assert_ne!(state_digest(&tweaked), base);
        let mut empty_vs_missing = sample_forms();
        empty_vs_missing.insert(99, TrackingForm::from_sequences(vec![], vec![]));
        assert_ne!(state_digest(&empty_vs_missing), base, "empty edge still changes the digest");
    }
}
