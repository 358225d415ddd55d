//! Property tests for crash recovery: killing a shard at an **arbitrary
//! byte offset** of its WAL — including mid-record torn writes — and
//! replaying snapshot + WAL reproduces exactly the state an uninterrupted
//! run over the surviving event prefix would have built. The uninterrupted
//! run is kept in a plain `HashMap` — the reference `ShardForms` (what
//! recovery builds) is checked against, through the same `state_digest`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use stq_core::tracker::Crossing;
use stq_durability::{
    install_snapshot, load_snapshot, recover_shard, state_digest, ShardDurability, ShardSnapshot,
};
use stq_forms::{ShardForms, TrackingForm};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("stq-durprops-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic event stream: per-edge times grow strictly, so every
/// prefix is a valid monotone ingest history.
fn ev(seq: u64, edges: usize) -> Crossing {
    Crossing {
        time: seq as f64 * 0.375,
        edge: (seq.wrapping_mul(0x9E37_79B9)) as usize % edges,
        forward: seq % 2 == 1,
    }
}

fn apply(forms: &mut HashMap<usize, TrackingForm>, c: &Crossing) {
    forms
        .entry(c.edge)
        .or_insert_with(|| TrackingForm::from_sequences(vec![], vec![]))
        .record(c.forward, c.time);
}

/// Ingests events `1..=n` through a durable shard, then kills it keeping
/// `surviving_unsynced` bytes past the durable boundary. Returns the digest
/// of the uninterrupted in-memory state at each sequence (for prefix
/// comparison).
fn run_and_kill(
    root: &Path,
    n: u64,
    edges: usize,
    snapshot_every: u64,
    sync_every: u64,
    surviving_unsynced: u64,
) -> Vec<u64> {
    let mut forms: HashMap<usize, TrackingForm> = HashMap::new();
    let mut digests = vec![state_digest(&forms)]; // digests[s] = state after seq s
    let mut d =
        ShardDurability::initialize(root, 0, &forms, 0, snapshot_every, sync_every).unwrap();
    for seq in 1..=n {
        let c = ev(seq, edges);
        apply(&mut forms, &c);
        d.append(seq, std::slice::from_ref(&c), &forms).unwrap();
        digests.push(state_digest(&forms));
    }
    d.kill_cut(surviving_unsynced).unwrap();
    digests
}

/// Edge ids read back from disk are input from outside the program: today
/// any `usize` recovers, and nothing may start sizing an allocation by one.
#[test]
fn wild_edge_ids_recover_like_any_other() {
    let wild = [usize::MAX, 1 << 40, 3];
    let ev = |seq: u64| Crossing {
        time: seq as f64 * 0.5,
        edge: wild[seq as usize % wild.len()],
        forward: seq % 2 == 0,
    };
    let root = tmpdir("wild");
    let mut oracle: HashMap<usize, TrackingForm> = HashMap::new();
    apply(&mut oracle, &Crossing { time: 0.25, edge: usize::MAX, forward: true });
    apply(&mut oracle, &Crossing { time: 0.25, edge: 1 << 40, forward: false });
    // The base snapshot already names both; then single frames, a batch
    // frame, and singles again, none of them rolled into a later snapshot.
    let mut d = ShardDurability::initialize(&root, 0, &oracle, 0, 1_000, 4).unwrap();
    for seq in 1..=5 {
        apply(&mut oracle, &ev(seq));
        d.append(seq, &[ev(seq)], &oracle).unwrap();
    }
    let batch: Vec<(u64, Crossing)> = (6..=14).map(|seq| (seq, ev(seq))).collect();
    for (_, c) in &batch {
        apply(&mut oracle, c);
    }
    d.append(6, &batch.iter().map(|r| r.1).collect::<Vec<_>>(), &oracle).unwrap();
    for seq in 15..=17 {
        apply(&mut oracle, &ev(seq));
        d.append(seq, &[ev(seq)], &oracle).unwrap();
    }
    d.sync().unwrap();
    drop(d);

    let rec = recover_shard(&root, 0, 1_000, 4).expect("wild ids are not corruption");
    assert_eq!(rec.report.snapshot_seq, 0);
    assert_eq!(rec.report.wal_records, 17);
    assert!(!rec.report.torn_tail && !rec.report.seq_break);
    assert_eq!(rec.digest(), state_digest(&oracle));
    std::fs::remove_dir_all(&root).ok();
}

/// Edge ids the model below draws from: a few small ones, so operations
/// collide, and two no table could be sized by.
const MODEL_EDGES: [usize; 7] = [0, 1, 2, 6, 11, 1 << 40, usize::MAX];

fn sequences(f: &TrackingForm) -> (&[f64], &[f64]) {
    (f.timestamps(true), f.timestamps(false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ShardForms` against the plain map it replaced, over random
    /// migrations in (`insert`), migrations out (`take`), first sightings
    /// (`get_mut_or_insert`) and recorded crossings: same ownership, same
    /// ascending walk, one digest through the one `state_digest`, and
    /// byte-identical snapshot files from either.
    #[test]
    fn shard_forms_match_the_hashmap_model(
        ops in proptest::collection::vec((0u8..4, 0..MODEL_EDGES.len(), any::<bool>()), 0..120),
    ) {
        let mut shard = ShardForms::default();
        let mut model: HashMap<usize, TrackingForm> = HashMap::new();
        for (step, &(op, e, forward)) in ops.iter().enumerate() {
            let (edge, t) = (MODEL_EDGES[e], step as f64 * 0.5);
            match op {
                0 => {
                    let bwd = if forward { vec![t] } else { vec![] };
                    let form = TrackingForm::from_sequences(vec![t], bwd);
                    let (was, want) = (shard.insert(edge, form.clone()), model.insert(edge, form));
                    prop_assert_eq!(was.as_ref().map(sequences), want.as_ref().map(sequences));
                }
                1 => {
                    let (got, want) = (shard.take(edge), model.remove(&edge));
                    prop_assert_eq!(got.as_ref().map(sequences), want.as_ref().map(sequences));
                }
                2 => {
                    let want = model.entry(edge).or_default();
                    prop_assert_eq!(sequences(shard.get_mut_or_insert(edge)), sequences(want));
                }
                _ => {
                    shard.get_mut_or_insert(edge).record(forward, t);
                    model.entry(edge).or_default().record(forward, t);
                }
            }
            for &edge in &MODEL_EDGES {
                prop_assert_eq!(shard.owns(edge), model.contains_key(&edge));
                prop_assert_eq!(shard.get(edge).map(sequences), model.get(&edge).map(sequences));
            }
            let mut want: Vec<_> = model.iter().map(|(&e, f)| (e, sequences(f))).collect();
            want.sort_unstable_by_key(|&(e, _)| e);
            let walked: Vec<_> = shard.iter().map(|(e, f)| (e, sequences(f))).collect();
            prop_assert_eq!(walked, want);
            prop_assert_eq!((shard.len(), shard.is_empty()), (model.len(), model.is_empty()));
            prop_assert_eq!(state_digest(&shard), state_digest(&model));
        }
        let (ours, theirs) = (tmpdir("model-shard"), tmpdir("model-map"));
        install_snapshot(&ours, &ShardSnapshot::capture(1, 7, &shard)).unwrap();
        install_snapshot(&theirs, &ShardSnapshot::capture(1, 7, &model)).unwrap();
        prop_assert_eq!(
            std::fs::read(ours.join("snapshot.bin")).unwrap(),
            std::fs::read(theirs.join("snapshot.bin")).unwrap()
        );
        let restored = load_snapshot(&ours).unwrap().unwrap().restore();
        prop_assert_eq!(state_digest(&restored), state_digest(&model));
        std::fs::remove_dir_all(&ours).ok();
        std::fs::remove_dir_all(&theirs).ok();
    }

    /// The tentpole property: for any event count, any snapshot/sync
    /// cadence, and a crash surviving any byte length of the unsynced tail
    /// (torn mid-record cuts included), recovery lands on some prefix of
    /// the event stream and its state is bit-identical to an uninterrupted
    /// run over that prefix.
    #[test]
    fn crash_at_any_offset_recovers_an_exact_prefix(
        n in 1u64..220,
        edges in 1usize..9,
        snapshot_every in 1u64..80,
        sync_every in 1u64..24,
        cut in 0u64..4_000,
    ) {
        let root = tmpdir("prefix");
        let digests = run_and_kill(&root, n, edges, snapshot_every, sync_every, cut);
        let rec = recover_shard(&root, 0, snapshot_every, sync_every).unwrap();
        let s = rec.report.recovered_seq;
        prop_assert!(s <= n, "cannot recover events that never happened");
        prop_assert_eq!(
            rec.digest(),
            digests[s as usize],
            "recovered state must equal the uninterrupted run at seq {}", s
        );
        prop_assert!(!rec.report.seq_break, "a tail cut never looks like mid-log damage");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Durability floor: everything synced (or snapshotted) before the
    /// crash survives it, regardless of how little of the unsynced tail
    /// does.
    #[test]
    fn synced_events_always_survive(
        n in 1u64..200,
        snapshot_every in 2u64..60,
        sync_every in 1u64..16,
    ) {
        let root = tmpdir("floor");
        let mut forms: HashMap<usize, TrackingForm> = HashMap::new();
        let mut d =
            ShardDurability::initialize(&root, 0, &forms, 0, snapshot_every, sync_every).unwrap();
        let mut durable = 0u64;
        for seq in 1..=n {
            let c = ev(seq, 5);
            apply(&mut forms, &c);
            let mark = d.append(seq, std::slice::from_ref(&c), &forms).unwrap();
            if let Some(ds) = mark.durable_seq {
                durable = ds;
            }
        }
        d.kill_cut(0).unwrap(); // worst case: the whole unsynced tail is lost
        let rec = recover_shard(&root, 0, snapshot_every, sync_every).unwrap();
        prop_assert!(
            rec.report.recovered_seq >= durable,
            "recovered {} < durable floor {}", rec.report.recovered_seq, durable
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// Recovery is idempotent and resumable: recover, append more events,
    /// crash cleanly, recover again — the final state equals one
    /// uninterrupted run over the combined stream.
    #[test]
    fn recover_append_recover_composes(
        first in 1u64..120,
        more in 1u64..80,
        snapshot_every in 2u64..50,
        sync_every in 1u64..12,
        cut in 0u64..2_000,
    ) {
        let root = tmpdir("compose");
        run_and_kill(&root, first, 6, snapshot_every, sync_every, cut);
        let mut rec = recover_shard(&root, 0, snapshot_every, sync_every).unwrap();
        let base = rec.report.recovered_seq;
        // Continue the *original* stream from where the durable prefix ends,
        // as the server's redo buffer would.
        for seq in base + 1..=base + more {
            let c = ev(seq, 6);
            rec.forms.get_mut_or_insert(c.edge).record(c.forward, c.time);
            rec.durability.append(seq, std::slice::from_ref(&c), &rec.forms).unwrap();
        }
        rec.durability.sync().unwrap();
        drop(rec);

        let rec2 = recover_shard(&root, 0, snapshot_every, sync_every).unwrap();
        prop_assert_eq!(rec2.report.recovered_seq, base + more);
        let mut oracle: HashMap<usize, TrackingForm> = HashMap::new();
        for seq in 1..=base + more {
            apply(&mut oracle, &ev(seq, 6));
        }
        prop_assert_eq!(rec2.digest(), state_digest(&oracle));
        std::fs::remove_dir_all(&root).ok();
    }
}
