//! The widening fold: one sound `[lo, hi]` bracket around a boundary
//! integral whose terms are not all known.
//!
//! Every answer the system serves is the 1-form integrated along `∂Q`
//! (Theorems 4.1–4.3): a sum of per-edge net inward counts. An edge that
//! cannot report — silent shard, quarantined sensor, position shed by
//! brownout — leaves its term unknown but never unbounded: crossed
//! `total_in` times inward and `total_out` times outward over its lifetime,
//! its net inward count lies in `[−total_out, +total_in]` at every instant
//! and over every window. [`Bracket`] is that argument, written once.
//!
//! **Soundness.** If every edge's true term lies in the interval its step
//! added, the true sum lies in `[lo, hi]` (interval addition), and
//! [`finish`](Bracket::finish) applies only monotone functions to sound
//! endpoint brackets. **Exactness.** Counts are integers far below 2⁵³, so
//! every sum here is exact in `f64`: a bracket advanced by
//! [`shift`](Bracket::shift) / [`widen`](Bracket::widen) is bit-identical
//! to one re-folded from the new counts, which is what lets delta-maintained
//! standing brackets and re-executed queries be compared with `to_bits`.

use crate::query::QueryKind;

/// A running estimate with sound bounds: `lo ≤ truth ≤ hi`, and
/// `lo ≤ est ≤ hi` as long as every certified interval contained 0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Bracket {
    /// The point estimate: the sum of the reported terms (unreported edges
    /// contribute 0).
    pub est: f64,
    /// Sound lower bound on the full sum.
    pub lo: f64,
    /// Sound upper bound on the full sum.
    pub hi: f64,
}

impl Bracket {
    /// Folds in a reported edge's exact net inward count.
    pub fn add_exact(&mut self, term: f64) {
        self.est += term;
        self.lo += term;
        self.hi += term;
    }

    /// Folds in an edge that did not report: its net inward count is at
    /// least `−total_out` and at most `+total_in` (lifetime crossings in
    /// each direction, oriented inward; both ≥ 0).
    pub fn add_unknown(&mut self, total_in: f64, total_out: f64) {
        self.lo -= total_out;
        self.hi += total_in;
    }

    /// Folds in an unreported edge whose net inward count is additionally
    /// certified to lie in `[cert_lo, cert_hi]`: the lifetime worst case
    /// intersected with the certificate, so a certificate only ever
    /// tightens the widening.
    pub fn add_certified(&mut self, total_in: f64, total_out: f64, cert_lo: f64, cert_hi: f64) {
        self.lo += (-total_out).max(cert_lo);
        self.hi += total_in.min(cert_hi);
    }

    /// One more crossing on a *reported* edge: the exact term, and with it
    /// every component, moves by +1 (`entered`) or −1.
    pub fn shift(&mut self, entered: bool) {
        self.add_exact(if entered { 1.0 } else { -1.0 });
    }

    /// One more crossing on an *unreported* edge: the lifetime total in
    /// that direction grew by one, so the matching bound widens by exactly
    /// 1 and the estimate stays put. Certified edges follow the same rule —
    /// each event since certification loosens the certificate's endpoint
    /// in lockstep with the worst case's.
    pub fn widen(&mut self, entered: bool) {
        if entered {
            self.hi += 1.0;
        } else {
            self.lo -= 1.0;
        }
    }

    /// The per-kind step. `a` is the bracket at the query instant
    /// (Snapshot), over the window (Transient) or at the interval's first
    /// endpoint (Static); `b` is the second endpoint's bracket and only
    /// read for Static, whose `max(0, min(a, b))` estimator is monotone in
    /// both arguments — applying it componentwise keeps the result sound.
    pub fn finish(a: Bracket, b: Bracket, kind: QueryKind) -> Bracket {
        match kind {
            QueryKind::Snapshot(_) | QueryKind::Transient(..) => a,
            QueryKind::Static(..) => Bracket {
                est: a.est.min(b.est).max(0.0),
                lo: a.lo.min(b.lo).max(0.0),
                hi: a.hi.min(b.hi).max(0.0),
            },
        }
    }
}
