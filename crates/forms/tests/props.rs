//! Property tests: the identifier-free tracking forms agree with the
//! identifier-based oracle on randomly generated movement histories.

use proptest::prelude::*;
use stq_forms::form::CountSource;
use stq_forms::{
    snapshot_count, transient_count, BoundaryEdge, FormStore, OracleTracker, PrivateCounts,
};

/// A random movement history on a ring of `cells` junction cells, where cell
/// `i` borders cell `i+1 mod cells` through edge `i` (forward = towards the
/// higher cell). Objects hop to adjacent cells at integer times.
#[derive(Clone, Debug)]
struct RingWorld {
    cells: usize,
    /// Per object: starting cell and a sequence of ±1 moves.
    objects: Vec<(usize, Vec<bool>)>,
}

fn ring_world() -> impl Strategy<Value = RingWorld> {
    (3usize..10)
        .prop_flat_map(|cells| {
            let objs = proptest::collection::vec(
                (0..cells, proptest::collection::vec(any::<bool>(), 0..30)),
                1..8,
            );
            (Just(cells), objs)
        })
        .prop_map(|(cells, objects)| RingWorld { cells, objects })
}

/// Replays the world into a form store and an oracle.
fn replay(w: &RingWorld) -> (FormStore, OracleTracker) {
    let mut events: Vec<(f64, usize, bool)> = Vec::new(); // (t, edge, forward)
    let mut oracle = OracleTracker::new();
    for (oid, (start, moves)) in w.objects.iter().enumerate() {
        let mut cell = *start;
        oracle.record_arrival(oid as u64, cell, 0.0);
        for (step, &up) in moves.iter().enumerate() {
            let t = (step + 1) as f64;
            let next = if up { (cell + 1) % w.cells } else { (cell + w.cells - 1) % w.cells };
            // Crossing edge between cell and next: edge i sits between cell
            // i and i+1; moving up from cell c crosses edge c (forward),
            // moving down from c crosses edge c-1 (backward).
            let (edge, forward) =
                if up { (cell, true) } else { ((cell + w.cells - 1) % w.cells, false) };
            events.push((t, edge, forward));
            oracle.record_arrival(oid as u64, next, t);
            cell = next;
        }
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut store = FormStore::new(w.cells);
    for (t, e, fwd) in events {
        store.record(e, fwd, t);
    }
    (store, oracle)
}

/// Boundary of the contiguous region `[lo, hi)` of ring cells (`lo < hi`,
/// not the whole ring): edge `lo−1` inward-forward, edge `hi−1`
/// inward-backward.
fn region_boundary(w: &RingWorld, lo: usize, hi: usize) -> Vec<BoundaryEdge> {
    vec![
        BoundaryEdge::new((lo + w.cells - 1) % w.cells, true),
        BoundaryEdge::new((hi + w.cells - 1) % w.cells, false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The paper's central exactness claim, randomized: snapshot via forms
    /// equals the oracle's distinct count, for any region, any time, any
    /// movement pattern — objects that started inside are visible because
    /// the probe subtracts the t=0 population (all objects placed at t=0
    /// count as "already inside" and the test accounts for them).
    #[test]
    fn forms_equal_oracle_population_change(w in ring_world(), lo in 0usize..8, span in 1usize..5,
                                            probe in 0usize..30) {
        let lo = lo % w.cells;
        let span = span.min(w.cells - 1);
        let hi = lo + span;
        let inside = |j: usize| {
            let j = j % w.cells;
            (lo..hi).contains(&j) || (lo..hi).contains(&(j + w.cells))
        };
        let (store, oracle) = replay(&w);
        let boundary = region_boundary(&w, lo, hi % w.cells);
        let t = probe as f64 + 0.5;
        // Forms see the *change* since t=0 (objects were placed, not walked
        // in); oracle sees absolute population.
        let initial = oracle.snapshot_count(&inside, 0.0) as f64;
        let formed = snapshot_count(&store, &boundary, t);
        let truth = oracle.snapshot_count(&inside, t) as f64;
        prop_assert!((formed + initial - truth).abs() < 1e-9,
            "forms {formed} + initial {initial} != oracle {truth}");
    }

    #[test]
    fn transient_equals_population_difference(w in ring_world(), lo in 0usize..8,
                                              a in 0usize..15, b in 15usize..31) {
        let lo = lo % w.cells;
        let hi = lo + 1;
        let inside = |j: usize| j % w.cells == lo;
        let (store, oracle) = replay(&w);
        let boundary = region_boundary(&w, lo, hi % w.cells);
        let (t0, t1) = (a as f64 + 0.5, b as f64 + 0.5);
        let formed = transient_count(&store, &boundary, t0, t1);
        let truth = oracle.transient_count(&inside, t0, t1) as f64;
        prop_assert!((formed - truth).abs() < 1e-9);
    }

    #[test]
    fn count_window_additivity(w in ring_world(), e in 0usize..8,
                               t1 in 0.0f64..10.0, dt1 in 0.0f64..10.0, dt2 in 0.0f64..10.0) {
        let (store, _) = replay(&w);
        let e = e % w.cells;
        let (a, b, c) = (t1, t1 + dt1, t1 + dt1 + dt2);
        for fwd in [true, false] {
            let ab = store.count_between(e, fwd, a, b);
            let bc = store.count_between(e, fwd, b, c);
            let ac = store.count_between(e, fwd, a, c);
            prop_assert!((ab + bc - ac).abs() < 1e-9);
        }
    }

    #[test]
    fn counts_monotone_in_time(w in ring_world(), e in 0usize..8) {
        let (store, _) = replay(&w);
        let e = e % w.cells;
        let mut prev = -1.0;
        for k in 0..40 {
            let c = store.count_until(e, true, k as f64);
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
    }

    #[test]
    fn private_counts_bounded_noise(w in ring_world(), eps in 0.5f64..5.0, seed in 0u64..100) {
        let (store, _) = replay(&w);
        let cells = w.cells;
        let exact = replay(&w).0;
        let p = PrivateCounts::new(store, eps, 1.0, 5.0, seed);
        for e in 0..cells {
            for t in [3.0, 17.0, 29.0] {
                let noisy = p.count_until(e, true, t);
                let clean = exact.count_until(e, true, t);
                // Laplace tail: 40b bound fails with probability e^-40.
                prop_assert!((noisy - clean).abs() <= 40.0 / eps + 1e-9);
                prop_assert!(noisy >= 0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity-audit properties. The worlds here start every object in a
// "depot" cell 0 that is excluded from the audit — it plays the exterior
// component's role (unknown initial population), so every audited cell
// begins empty and the 1-form conservation law holds exactly.
// ---------------------------------------------------------------------------

use stq_forms::{audit, ComponentSpec, Evidence, TrackingForm};

/// A depot random walk: objects start in cell 0 and move ±1 per step with
/// per-object time jitter, so no two crossings collide exactly.
#[derive(Clone, Debug)]
struct DepotWalk {
    cells: usize,
    moves: Vec<Vec<bool>>,
}

fn depot_walk() -> impl Strategy<Value = DepotWalk> {
    (4usize..10)
        .prop_flat_map(|cells| {
            let moves =
                proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..40), 1..8);
            (Just(cells), moves)
        })
        .prop_map(|(cells, moves)| DepotWalk { cells, moves })
}

fn walk_store(w: &DepotWalk) -> FormStore {
    let mut store = FormStore::new(w.cells);
    let mut events: Vec<(f64, usize, bool)> = Vec::new();
    for (oid, moves) in w.moves.iter().enumerate() {
        let mut cell = 0usize;
        for (step, &up) in moves.iter().enumerate() {
            let t = (step + 1) as f64 + oid as f64 / 64.0;
            let (edge, forward) =
                if up { (cell, true) } else { ((cell + w.cells - 1) % w.cells, false) };
            events.push((t, edge, forward));
            cell = if up { (cell + 1) % w.cells } else { (cell + w.cells - 1) % w.cells };
        }
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for (t, e, fwd) in events {
        store.record(e, fwd, t);
    }
    store
}

/// Components for cells `1..cells` (cell 0 is the unaudited depot). Cell
/// `i` is entered by forward crossings of edge `i-1` and backward crossings
/// of edge `i`.
fn ring_components(cells: usize) -> Vec<ComponentSpec> {
    (1..cells).map(|i| ComponentSpec { id: i, boundary: vec![(i - 1, true), (i, false)] }).collect()
}

/// A deterministic tour world for targeted corruption: each of `objects`
/// objects leaves the depot and walks the full ring once (every edge
/// crossed forward exactly once per object, jittered per object).
fn tour_store(cells: usize, objects: usize) -> FormStore {
    let mut store = FormStore::new(cells);
    for edge in 0..cells {
        for o in 0..objects {
            store.record(edge, true, (edge + 1) as f64 + o as f64 / 64.0);
        }
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fault-free ingestion never produces evidence: physically realizable
    /// movement conserves every audited component, per-edge logs are
    /// monotone, and jittered times never duplicate. Every edge is healthy,
    /// however quiet.
    #[test]
    fn clean_walks_produce_no_hard_evidence(w in depot_walk()) {
        let store = walk_store(&w);
        let monitored: Vec<usize> = (0..w.cells).collect();
        let comps = ring_components(w.cells);
        let report = audit(&store, &monitored, &comps);
        prop_assert!(report.violations().is_empty(),
            "clean movement must conserve: {:?}", report.violations());
        for v in report.verdicts() {
            prop_assert!(v.evidence.is_empty(),
                "edge {} holds evidence {:?} on clean data", v.edge, v.evidence);
        }
    }

    /// Killing one interior edge's sensor always breaks conservation on the
    /// cell behind it: the tour's exit event arrives with no recorded
    /// entry, the running population dips negative, and the dead edge is
    /// flagged. (The depot-border edge `cells-1` is excluded: deaths there
    /// are only visible to the unaudited exterior, exactly like the real
    /// deployment's entry ramps.)
    #[test]
    fn dead_interior_edge_is_always_flagged(cells in 4usize..10, objects in 1usize..6,
                                            pick in 0usize..64) {
        let edge = pick % (cells - 1);
        let mut store = tour_store(cells, objects);
        store.set_form(edge, TrackingForm::new());
        let monitored: Vec<usize> = (0..cells).collect();
        let report = audit(&store, &monitored, &ring_components(cells));
        prop_assert!(!report.violations().is_empty(), "a silent entry edge must break conservation");
        prop_assert!(report.flagged().contains(&edge), "dead edge {edge} not flagged");
    }

    /// Flipping one interior edge's polarity turns its recorded entries
    /// into exits: the cell behind it goes negative immediately and the
    /// flipped edge is flagged.
    #[test]
    fn flipped_interior_edge_is_always_flagged(cells in 4usize..10, objects in 1usize..6,
                                               pick in 0usize..64) {
        let edge = pick % (cells - 1);
        let mut store = tour_store(cells, objects);
        let form = store.form(edge);
        let swapped = TrackingForm::from_sequences(
            form.timestamps(false).to_vec(),
            form.timestamps(true).to_vec(),
        );
        store.set_form(edge, swapped);
        let report = audit(&store, &monitored_all(cells), &ring_components(cells));
        prop_assert!(!report.violations().is_empty(), "a flipped edge must break conservation");
        prop_assert!(report.flagged().contains(&edge), "flipped edge {edge} not flagged");
    }

    /// A clock running backwards (non-monotone log) is a hard local
    /// invariant: flagged on any edge, no conservation argument needed.
    #[test]
    fn skewed_edge_is_always_flagged(cells in 4usize..10, objects in 2usize..6,
                                     pick in 0usize..64) {
        let edge = pick % cells;
        let mut store = tour_store(cells, objects);
        let mut rev: Vec<f64> = store.form(edge).timestamps(true).to_vec();
        rev.reverse();
        store.set_form(edge, TrackingForm::from_sequences(rev, Vec::new()));
        let report = audit(&store, &monitored_all(cells), &ring_components(cells));
        prop_assert!(report.flagged().contains(&edge), "skewed edge {edge} not flagged");
        let v = report.verdict(edge).unwrap();
        prop_assert!(v.evidence.iter().any(|e| matches!(e, Evidence::NonMonotone { .. })));
    }

    /// A duplicating sensor doubles every timestamp: at least two exact
    /// duplicate pairs appear and the edge is flagged.
    #[test]
    fn duplicating_edge_is_always_flagged(cells in 4usize..10, objects in 2usize..6,
                                          pick in 0usize..64) {
        let edge = pick % cells;
        let mut store = tour_store(cells, objects);
        let doubled: Vec<f64> = store.form(edge)
            .timestamps(true)
            .iter()
            .flat_map(|&t| [t, t])
            .collect();
        store.set_form(edge, TrackingForm::from_sequences(doubled, Vec::new()));
        let report = audit(&store, &monitored_all(cells), &ring_components(cells));
        prop_assert!(report.flagged().contains(&edge), "duplicating edge {edge} not flagged");
        let v = report.verdict(edge).unwrap();
        prop_assert!(v.evidence.iter().any(|e| matches!(e, Evidence::DuplicateTimestamps { .. })));
    }
}

fn monitored_all(cells: usize) -> Vec<usize> {
    (0..cells).collect()
}
