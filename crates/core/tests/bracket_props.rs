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
    Certified { total_in: f64, total_out: f64, cert: (f64, f64), truth: (f64, f64) },
}

/// `lo + frac·(hi − lo)` on integers, so every sum below stays exact.
fn pick(lo: i64, hi: i64, frac: u32) -> f64 {
    (lo + (hi - lo) * i64::from(frac) / 100) as f64
}

fn term() -> impl Strategy<Value = Term> {
    (
        (0u8..3, 0i64..30, 0i64..30),
        (0u32..=100, 0u32..=100, 0u32..=100, 0u32..=100),
        (0i64..4, 0i64..4),
    )
        .prop_map(|((kind, tin, tout), (p, q, ta, tb), (slack_lo, slack_hi))| {
            let (total_in, total_out) = (tin as f64, tout as f64);
            match kind {
                0 => Term::Exact { a: pick(-tout, tin, p), b: pick(-tout, tin, q) },
                1 => Term::Unknown {
                    total_in,
                    total_out,
                    truth: (pick(-tout, tin, ta), pick(-tout, tin, tb)),
                },
                _ => {
                    // A certificate that meets the worst case somewhere.
                    let (x, y) = (pick(-tout, tin, p) as i64, pick(-tout, tin, q) as i64);
                    let (lo, hi) = (x.min(y) - slack_lo, x.max(y) + slack_hi);
                    let (meet_lo, meet_hi) = (lo.max(-tout), hi.min(tin));
                    Term::Certified {
                        total_in,
                        total_out,
                        cert: (lo as f64, hi as f64),
                        truth: (pick(meet_lo, meet_hi, ta), pick(meet_lo, meet_hi, tb)),
                    }
                }
            }
        })
}

fn bits(b: Bracket) -> [u64; 3] {
    [b.est.to_bits(), b.lo.to_bits(), b.hi.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// If every edge's true term lies in the interval its step added, the
    /// true sum lies in `[lo, hi]` after every step and after `finish` for
    /// all three kinds. The estimate stays inside too for as long as every
    /// certificate contained 0 — an unreported edge contributes 0 to `est`,
    /// so a certificate that excludes 0 can move the bounds past it.
    #[test]
    fn every_step_and_finish_are_sound(terms in proptest::collection::vec(term(), 0..24)) {
        let (mut a, mut b) = (Bracket::default(), Bracket::default());
        let (mut truth_a, mut truth_b) = (0.0f64, 0.0f64);
        let mut est_inside = true;
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
                Term::Certified { total_in, total_out, cert, truth } => {
                    a.add_certified(total_in, total_out, cert.0, cert.1);
                    b.add_certified(total_in, total_out, cert.0, cert.1);
                    truth_a += truth.0;
                    truth_b += truth.1;
                    est_inside &= cert.0 <= 0.0 && 0.0 <= cert.1;
                }
            }
            for (br, truth) in [(a, truth_a), (b, truth_b)] {
                prop_assert!(br.lo <= truth && truth <= br.hi, "{br:?} excludes {truth}");
                prop_assert!(!est_inside || (br.lo <= br.est && br.est <= br.hi), "{br:?}");
            }
        }
        for kind in KINDS {
            let done = Bracket::finish(a, b, kind);
            let truth = match kind {
                QueryKind::Static(..) => truth_a.min(truth_b).max(0.0),
                _ => truth_a,
            };
            prop_assert!(done.lo <= truth && truth <= done.hi, "{kind:?}: {done:?} vs {truth}");
            prop_assert!(!est_inside || (done.lo <= done.est && done.est <= done.hi), "{done:?}");
        }
    }

    /// A bracket advanced event by event with `shift` / `widen` is
    /// bit-identical to one re-folded from the counts after each event —
    /// on reported, unknown and certified edges alike.
    #[test]
    fn delta_steps_equal_a_refold_bitwise(
        edges in proptest::collection::vec((0u8..3, 0u32..40, 0u32..40, -5i64..5, 0i64..6), 1..12),
        events in proptest::collection::vec((0usize..12, 0u8..2), 0..64),
    ) {
        // Per edge: kind, inward and outward crossing counts, and (for
        // certified edges) the certificate with the counts it was cut at.
        struct Edge { kind: u8, inn: f64, out: f64, cert: (f64, f64), base: (f64, f64) }
        let mut edges: Vec<Edge> = edges
            .into_iter()
            .map(|(kind, inn, out, lo, width)| {
                let (inn, out) = (f64::from(inn), f64::from(out));
                Edge { kind, inn, out, cert: (lo as f64, (lo + width) as f64), base: (inn, out) }
            })
            .collect();
        let refold = |edges: &[Edge]| {
            let mut b = Bracket::default();
            for e in edges {
                match e.kind {
                    0 => b.add_exact(e.inn - e.out),
                    1 => b.add_unknown(e.inn, e.out),
                    // Each exit since certification can lower the net by 1,
                    // each entry raise it by 1.
                    _ => b.add_certified(
                        e.inn,
                        e.out,
                        e.cert.0 - (e.out - e.base.1),
                        e.cert.1 + (e.inn - e.base.0),
                    ),
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
            if edges[at].kind == 0 {
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
