//! Seeded fault injection for the durability layer: process-kill crashes
//! during ingest and fsync-loss / torn-tail cuts, in the same pure,
//! replayable style as [`crate::FaultPlan`].
//!
//! A [`DurabilityFaultPlan`] answers two questions:
//!
//! 1. *When does a shard worker die?* — [`DurabilityFaultPlan::crash_due`],
//!    keyed on the shard's monotone append sequence so the crash fires
//!    exactly once per scheduled point regardless of thread interleaving.
//! 2. *How much of the unsynced WAL tail survives the kill?* —
//!    [`DurabilityFaultPlan::surviving_tail_bytes`], a seeded draw over
//!    `0..=unsynced` bytes, deliberately allowing cuts in the middle of a
//!    record (torn writes) so recovery's truncate-at-last-valid-record path
//!    is exercised, not just the clean-boundary case.

/// A scheduled ingest-time crash: the shard worker dies immediately after
/// appending its `after_appends`-th WAL record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestCrash {
    /// The shard whose worker dies.
    pub shard: usize,
    /// WAL sequence number after which the kill fires.
    pub after_appends: u64,
}

/// A seeded, replayable plan of durability faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityFaultPlan {
    /// Root seed for the torn-tail draws.
    pub seed: u64,
    /// Scheduled process kills.
    pub crashes: Vec<IngestCrash>,
}

impl DurabilityFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with one scheduled kill per `(shard, after_appends)` pair.
    pub fn killing(seed: u64, crashes: &[(usize, u64)]) -> Self {
        DurabilityFaultPlan {
            seed,
            crashes: crashes
                .iter()
                .map(|&(shard, after_appends)| IngestCrash { shard, after_appends })
                .collect(),
        }
    }

    /// Whether the worker for `shard` dies right after appending sequence
    /// number `seq`. Keyed on the monotone sequence, the predicate is true
    /// for exactly one append per scheduled crash.
    pub fn crash_due(&self, shard: usize, seq: u64) -> bool {
        self.crashes.iter().any(|c| c.shard == shard && c.after_appends == seq)
    }

    /// How many bytes of an `unsynced`-byte WAL tail survive the kill of
    /// `shard` at sequence `seq`: a seeded uniform draw over
    /// `0..=unsynced`, so the cut can land mid-record.
    pub fn surviving_tail_bytes(&self, shard: usize, seq: u64, unsynced: u64) -> u64 {
        if unsynced == 0 {
            return 0;
        }
        // SplitMix64 finalizer over (seed, shard, seq) — same construction
        // as FaultPlan::word, domain-separated by a durability salt.
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((shard as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(0xd1b5_4a32_d192_ed03); // salt: durability tail cut
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x % (unsynced + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_fires_exactly_at_the_scheduled_sequence() {
        let plan = DurabilityFaultPlan::killing(9, &[(1, 40), (2, 15)]);
        for seq in 0..100 {
            assert_eq!(plan.crash_due(1, seq), seq == 40);
            assert_eq!(plan.crash_due(2, seq), seq == 15);
            assert!(!plan.crash_due(0, seq));
        }
    }

    #[test]
    fn tail_cut_is_deterministic_and_in_range() {
        let plan = DurabilityFaultPlan::killing(1234, &[(0, 10)]);
        for unsynced in [0u64, 1, 33, 1000] {
            let a = plan.surviving_tail_bytes(0, 10, unsynced);
            let b = plan.surviving_tail_bytes(0, 10, unsynced);
            assert_eq!(a, b, "same identity, same cut");
            assert!(a <= unsynced);
        }
        assert_eq!(plan.surviving_tail_bytes(0, 10, 0), 0);
    }

    #[test]
    fn tail_cut_covers_torn_mid_record_offsets() {
        // Over many seeds, the cut must land strictly inside a record
        // boundary often (records are 33 bytes): the torn-write case.
        let record = 33u64;
        let unsynced = 10 * record;
        let torn = (0..200u64)
            .filter(|&s| {
                DurabilityFaultPlan::killing(s, &[(0, 5)]).surviving_tail_bytes(0, 5, unsynced)
                    % record
                    != 0
            })
            .count();
        assert!(torn > 150, "mid-record cuts should dominate, got {torn}/200");
    }

    #[test]
    fn different_seeds_cut_differently() {
        let distinct: std::collections::HashSet<u64> = (0..64u64)
            .map(|s| DurabilityFaultPlan::killing(s, &[]).surviving_tail_bytes(3, 7, 10_000))
            .collect();
        assert!(distinct.len() > 32, "cuts must vary with the seed, got {}", distinct.len());
    }
}
