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

use std::borrow::Borrow;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use stq_forms::{ShardForms, TrackingForm};

use crate::crc::crc32;

const MAGIC: &[u8; 8] = b"STQSNAP1";

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
        let edges = ShardForms::ascending(forms)
            .map(|(e, f)| (e, f.timestamps(true).to_vec(), f.timestamps(false).to_vec()))
            .collect();
        ShardSnapshot { shard, covered_seq, edges }
    }

    /// Rebuilds the shard state this snapshot captured.
    pub fn restore(&self) -> ShardForms {
        let mut forms = ShardForms::default();
        for (e, fwd, bwd) in &self.edges {
            forms.insert(*e, TrackingForm::from_sequences(fwd.clone(), bwd.clone()));
        }
        forms
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.edges.len() * 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.shard as u64).to_le_bytes());
        out.extend_from_slice(&self.covered_seq.to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u64).to_le_bytes());
        for (edge, fwd, bwd) in &self.edges {
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
                let mut v = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let raw = body.get(*o..*o + 8)?;
                    *o += 8;
                    let t = f64::from_bits(u64::from_le_bytes(raw.try_into().unwrap()));
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

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

/// Writes `snap` to `dir/snapshot.bin` via a temp file and atomic rename: a
/// crash during installation leaves either the old snapshot or the new one,
/// never a torn hybrid.
pub fn install_snapshot(dir: &Path, snap: &ShardSnapshot) -> std::io::Result<()> {
    let tmp = dir.join("snapshot.bin.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&snap.encode())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, snapshot_path(dir))
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
        // Checksum-valid files (written through `encode`) that break the
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
