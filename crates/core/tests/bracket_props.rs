//! Properties of [`Bracket`], the one widening fold behind every answer
//! path: soundness step by step and through `finish`, bitwise agreement of
//! the ±1 delta steps with a re-fold, and bitwise agreement with the
//! aggregator arithmetic the runtime used before `Bracket` existed (the
//! transcription lives here, as the reference, not in `src`).

use proptest::prelude::*;
use stq_core::bracket::Bracket;
use stq_core::query::QueryKind;

const KINDS: [QueryKind; 3] =
    [QueryKind::Snapshot(1.0), QueryKind::Transient(1.0, 2.0), QueryKind::Static(1.0, 2.0)];

/// One boundary edge as the fold sees it, with a hidden true term per
/// endpoint inside whatever interval the step adds.
#[derive(Clone, Copy, Debug)]
enum Term {
    Exact { a: f64, b: f64 },
    Unknown { total_in: f64, total_out: f64, truth: (f64, f64) },
}

/// `lo + frac·(hi − lo)` on integers, so every sum below stays exact.
fn pick(lo: i64, hi: i64, frac: u32) -> f64 {
    (lo + (hi - lo) * i64::from(frac) / 100) as f64
}

fn term() -> impl Strategy<Value = Term> {
    (any::<bool>(), 0i64..30, 0i64..30, (0u32..=100, 0u32..=100)).prop_map(
        |(exact, tin, tout, (p, q))| {
            let (a, b) = (pick(-tout, tin, p), pick(-tout, tin, q));
            if exact {
                Term::Exact { a, b }
            } else {
                Term::Unknown { total_in: tin as f64, total_out: tout as f64, truth: (a, b) }
            }
        },
    )
}

fn bits(b: Bracket) -> [u64; 3] {
    [b.est.to_bits(), b.lo.to_bits(), b.hi.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// If every edge's true term lies in the interval its step added, the
    /// true sum lies in `[lo, hi]` after every step and after `finish` for
    /// all three kinds, and so does the estimate: an unreported edge
    /// contributes 0 to it and an interval around 0 to the bounds.
    #[test]
    fn every_step_and_finish_are_sound(terms in proptest::collection::vec(term(), 0..24)) {
        let (mut a, mut b) = (Bracket::default(), Bracket::default());
        let (mut truth_a, mut truth_b) = (0.0f64, 0.0f64);
        for t in terms {
            match t {
                Term::Exact { a: ta, b: tb } => {
                    a.add_exact(ta);
                    b.add_exact(tb);
                    truth_a += ta;
                    truth_b += tb;
                }
                Term::Unknown { total_in, total_out, truth } => {
                    a.add_unknown(total_in, total_out);
                    b.add_unknown(total_in, total_out);
                    truth_a += truth.0;
                    truth_b += truth.1;
                }
            }
            for (br, truth) in [(a, truth_a), (b, truth_b)] {
                prop_assert!(br.lo <= truth && truth <= br.hi, "{br:?} excludes {truth}");
                prop_assert!(br.lo <= br.est && br.est <= br.hi, "{br:?}");
            }
        }
        for kind in KINDS {
            let done = Bracket::finish(a, b, kind);
            let truth = match kind {
                QueryKind::Static(..) => truth_a.min(truth_b).max(0.0),
                _ => truth_a,
            };
            prop_assert!(done.lo <= truth && truth <= done.hi, "{kind:?}: {done:?} vs {truth}");
            prop_assert!(done.lo <= done.est && done.est <= done.hi, "{done:?}");
        }
    }

    /// A bracket advanced event by event with `shift` / `widen` is
    /// bit-identical to one re-folded from the counts after each event —
    /// on reported and unknown edges alike.
    #[test]
    fn delta_steps_equal_a_refold_bitwise(
        edges in proptest::collection::vec((any::<bool>(), 0u32..40, 0u32..40), 1..12),
        events in proptest::collection::vec((0usize..12, 0u8..2), 0..64),
    ) {
        // Per edge: reported or not, and its inward and outward crossings.
        struct Edge { exact: bool, inn: f64, out: f64 }
        let mut edges: Vec<Edge> = edges
            .into_iter()
            .map(|(exact, inn, out)| Edge { exact, inn: f64::from(inn), out: f64::from(out) })
            .collect();
        let refold = |edges: &[Edge]| {
            let mut b = Bracket::default();
            for e in edges {
                if e.exact {
                    b.add_exact(e.inn - e.out);
                } else {
                    b.add_unknown(e.inn, e.out);
                }
            }
            b
        };
        let mut running = refold(&edges);
        for (at, dir) in events {
            let (at, entered) = (at % edges.len(), dir == 1);
            if entered {
                edges[at].inn += 1.0;
            } else {
                edges[at].out += 1.0;
            }
            if edges[at].exact {
                running.shift(entered);
            } else {
                running.widen(entered);
            }
            prop_assert_eq!(bits(running), bits(refold(&edges)));
        }
    }

    /// `Bracket` reproduces, bit for bit and for all three kinds, the
    /// runtime aggregator's arithmetic as it stood before this type: six
    /// running sums, `lo −= total_out` / `hi += total_in` for a missing
    /// edge, and the `min` / `max(0, ·)` step for Static. Terms are
    /// arbitrary floats (learned stores report fractional counts).
    #[test]
    fn matches_the_parent_aggregator_formula(
        slots in proptest::collection::vec(
            (proptest::option::of((-50.0f64..50.0, -50.0f64..50.0)), 0u32..40, 0u32..40),
            0..24,
        ),
    ) {
        let (mut est_a, mut lo_a, mut hi_a) = (0.0f64, 0.0f64, 0.0f64);
        let (mut est_b, mut lo_b, mut hi_b) = (0.0f64, 0.0f64, 0.0f64);
        let (mut a, mut b) = (Bracket::default(), Bracket::default());
        for &(slot, total_in, total_out) in &slots {
            let (total_in, total_out) = (f64::from(total_in), f64::from(total_out));
            match slot {
                Some((ca, cb)) => {
                    est_a += ca;
                    lo_a += ca;
                    hi_a += ca;
                    est_b += cb;
                    lo_b += cb;
                    hi_b += cb;
                    a.add_exact(ca);
                    b.add_exact(cb);
                }
                None => {
                    lo_a -= total_out;
                    hi_a += total_in;
                    lo_b -= total_out;
                    hi_b += total_in;
                    a.add_unknown(total_in, total_out);
                    b.add_unknown(total_in, total_out);
                }
            }
        }
        for kind in KINDS {
            let (value, lower, upper) = match kind {
                QueryKind::Snapshot(_) | QueryKind::Transient(..) => (est_a, lo_a, hi_a),
                QueryKind::Static(..) => {
                    (est_a.min(est_b).max(0.0), lo_a.min(lo_b).max(0.0), hi_a.min(hi_b).max(0.0))
                }
            };
            let expect = [value.to_bits(), lower.to_bits(), upper.to_bits()];
            prop_assert_eq!(bits(Bracket::finish(a, b, kind)), expect);
        }
    }
}
