//! # stq-durability
//!
//! Crash-consistent durability for sharded tracking-form state: a per-shard
//! append-only **write-ahead log** of boundary-crossing events, periodic
//! **compact snapshots** with atomic rename-install, and **recovery** that
//! replays snapshot + WAL back to a byte-identical state.
//!
//! The paper's constant-size edge summaries (§5) make shard state cheap to
//! checkpoint: a shard's entire durable footprint is its per-edge timestamp
//! sequences, which the snapshot serializes verbatim (bit-exact `f64`
//! encodings) and the WAL extends one crossing at a time. The formats are
//! deliberately boring:
//!
//! - **WAL record** — `[len: u32][crc32: u32][payload]` with
//!   `payload = [seq: u64][edge: u64][flags: u8][time bits: u64]`. The CRC
//!   covers the payload; `seq` is a per-shard contiguous counter, so replay
//!   can both detect torn tails (checksum or framing failure → truncate at
//!   the last valid record) and prove it lost nothing in the middle.
//! - **Snapshot** — magic + shard id + the WAL sequence number it covers +
//!   every edge's forward/backward sequences, CRC-trailed, written to a
//!   temp file, atomically `rename`d into place and the directory synced,
//!   so the rename is on disk before anything relies on it. After a
//!   successful snapshot the WAL is truncated: recovery cost is bounded by the
//!   snapshot interval, not the shard's lifetime.
//!
//! Boring to read, and cheap to write: each format has **one encoder**, fed
//! what the caller already holds. A WAL frame is encoded from the lane of
//! crossings a shard worker was handed ([`WalWriter::append_lane`]; a single
//! record is a one-event lane) into a buffer the writer keeps; a snapshot is
//! streamed from the live forms' own sequences through one 64 KiB chunk
//! (`snapshot::write_snapshot`), never cloned and never held whole, each
//! sequence copied into it a run at a time; and the checksum over both
//! ([`crc`]) folds 64-byte blocks with carry-less multiplies where the CPU
//! has them, eight bytes a step where it does not.
//!
//! Fault injection (fsync loss, torn mid-record writes) lives in
//! `stq_net::DurabilityFaultPlan`; this crate only provides the mechanics
//! (`WalWriter::kill_cut`) to apply a planned cut, in the same seeded,
//! replayable style as the rest of the chaos machinery.

pub mod crc;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use crc::{crc32, Crc32};
pub use recovery::{apply_crossing, recover_shard, RecoveredShard, RecoveryReport};
pub use snapshot::{install_snapshot, load_snapshot, state_digest, ShardSnapshot};
pub use wal::{replay_wal, ShardDurability, WalReplay, WalWriter};
