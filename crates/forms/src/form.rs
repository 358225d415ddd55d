//! Tracking forms: per-edge directed crossing logs (paper Eqs. 7–8).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{EdgeIdx, Time};

/// Rank of `t` in a sorted timestamp sequence: the number of events with
/// `time ≤ t` — the paper's `C(γ_t(e), t)` on one directed log.
///
/// This is *the* count primitive shared by every store: the exact
/// [`TrackingForm`] and the recent-event buffer of
/// `stq_learned::BufferedSeries` both answer
/// cumulative counts through this one `partition_point` rank, so boundary
/// semantics (ties included, empty sequence → 0) cannot drift between them.
pub fn events_until(seq: &[Time], t: Time) -> usize {
    seq.partition_point(|&x| x <= t)
}

/// The two timestamp sequences of one edge's tracking form.
///
/// `fwd` logs traversals in the edge's construction direction (tail → head),
/// `bwd` the opposite. Both are monotone non-decreasing: events arrive in
/// time order per edge, matching a physical sensor appending to its log
/// (`γ_t = γ_{t−1} ⊕ t`, Eq. 8).
#[derive(Clone, Debug, Default)]
pub struct TrackingForm {
    fwd: Vec<Time>,
    bwd: Vec<Time>,
}

impl TrackingForm {
    /// Creates an empty form.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a crossing at time `t` in the given direction.
    ///
    /// # Panics
    /// If `t` is not finite or precedes the last recorded event in the same
    /// direction (sensors observe time monotonically).
    pub fn record(&mut self, forward: bool, t: Time) {
        assert!(t.is_finite(), "crossing time must be finite");
        let seq = if forward { &mut self.fwd } else { &mut self.bwd };
        if let Some(&last) = seq.last() {
            assert!(t >= last, "crossing times must be monotone per direction ({t} < {last})");
        }
        seq.push(t);
    }

    /// Builds a form directly from raw timestamp sequences, bypassing the
    /// monotonicity check of [`TrackingForm::record`]. Corrupted sensors
    /// (clock skew, replayed logs) produce out-of-order sequences, and the
    /// integrity auditor in [`mod@crate::audit`] must be able to ingest them
    /// verbatim to detect exactly that.
    ///
    /// # Panics
    /// If any timestamp is not finite.
    pub fn from_sequences(fwd: Vec<Time>, bwd: Vec<Time>) -> Self {
        assert!(
            fwd.iter().chain(bwd.iter()).all(|t| t.is_finite()),
            "crossing times must be finite"
        );
        TrackingForm { fwd, bwd }
    }

    /// Whether a direction's log is monotone non-decreasing — the hard
    /// invariant every healthy sensor satisfies (it observes time in order).
    pub fn is_monotone(&self, forward: bool) -> bool {
        let seq = if forward { &self.fwd } else { &self.bwd };
        seq.windows(2).all(|w| w[0] <= w[1])
    }

    /// Events with `time ≤ t` in a direction — the paper's `C(γ_t(e), t)`.
    pub fn count_until(&self, forward: bool, t: Time) -> usize {
        events_until(if forward { &self.fwd } else { &self.bwd }, t)
    }

    /// Events in the half-open window `(t0, t1]` — `C(γ, t0, t1)` (§4.7.4).
    pub fn count_between(&self, forward: bool, t0: Time, t1: Time) -> usize {
        self.count_until(forward, t1).saturating_sub(self.count_until(forward, t0))
    }

    /// Total events in a direction.
    pub fn total(&self, forward: bool) -> usize {
        if forward {
            self.fwd.len()
        } else {
            self.bwd.len()
        }
    }

    /// The raw timestamp sequence (for model fitting in `stq-learned`).
    pub fn timestamps(&self, forward: bool) -> &[Time] {
        if forward {
            &self.fwd
        } else {
            &self.bwd
        }
    }

    /// Bytes needed to store the explicit sequences (8 bytes per timestamp)
    /// — the storage baseline the regression models are compared against
    /// (paper Fig. 11e).
    pub fn storage_bytes(&self) -> usize {
        (self.fwd.len() + self.bwd.len()) * std::mem::size_of::<Time>()
    }
}

/// Anything that can answer directed cumulative crossing counts per edge.
///
/// Implemented by the exact [`FormStore`] and by the regression-model store
/// in `stq-learned`; the query evaluators in [`crate::query`] are generic
/// over this trait, so exact and learned answers share one code path.
pub trait CountSource {
    /// Estimated number of events with `time ≤ t` on `edge` in `direction`.
    /// Fractional values are allowed (model inference).
    fn count_until(&self, edge: EdgeIdx, forward: bool, t: Time) -> f64;

    /// Estimated events in `(t0, t1]`.
    fn count_between(&self, edge: EdgeIdx, forward: bool, t0: Time, t1: Time) -> f64 {
        self.count_until(edge, forward, t1) - self.count_until(edge, forward, t0)
    }

    /// Total storage footprint in bytes.
    fn storage_bytes(&self) -> usize;
}

/// The exact store: one [`TrackingForm`] per edge.
#[derive(Clone, Debug)]
pub struct FormStore {
    forms: Vec<TrackingForm>,
}

impl FormStore {
    /// Creates a store for `num_edges` edges, all empty.
    pub fn new(num_edges: usize) -> Self {
        FormStore { forms: vec![TrackingForm::new(); num_edges] }
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.forms.len()
    }

    /// Records a crossing of `edge` in the given direction at time `t`.
    pub fn record(&mut self, edge: EdgeIdx, forward: bool, t: Time) {
        self.forms[edge].record(forward, t);
    }

    /// Access to one edge's form.
    pub fn form(&self, edge: EdgeIdx) -> &TrackingForm {
        &self.forms[edge]
    }

    /// Replaces one edge's form wholesale — used by corrupted ingestion (a
    /// faulty sensor's log is built externally) and by the repair layer
    /// (un-flipping or deduplicating a form rewrites it).
    pub fn set_form(&mut self, edge: EdgeIdx, form: TrackingForm) {
        self.forms[edge] = form;
    }

    /// Total number of recorded events across all edges and directions.
    pub fn total_events(&self) -> usize {
        self.forms.iter().map(|f| f.total(true) + f.total(false)).sum()
    }
}

impl CountSource for FormStore {
    fn count_until(&self, edge: EdgeIdx, forward: bool, t: Time) -> f64 {
        self.forms[edge].count_until(forward, t) as f64
    }

    fn storage_bytes(&self) -> usize {
        self.forms.iter().map(|f| f.storage_bytes()).sum()
    }
}

/// Hashes an edge id with one multiply. Edge ids are small integers this
/// program assigned, so there is nothing to defend against and SipHash would
/// be most of a lookup; the rotation brings the product's well-mixed high
/// bits down to where the table takes its bucket index (ids a shard owns
/// share their low bits under a modulo map). An id read from a damaged or
/// forged file can at worst collide and make that load slow.
#[derive(Default)]
struct EdgeHasher(u64);

const EDGE_HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(EDGE_HASH_MULTIPLIER);
        }
    }

    fn write_usize(&mut self, edge: usize) {
        self.0 = (edge as u64).wrapping_mul(EDGE_HASH_MULTIPLIER).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The forms one shard owns: the part of a [`FormStore`] a shard ingests into
/// and answers from, the same type from the start-up partition through
/// migration and recovery to the snapshot on disk.
///
/// Ownership is the key set, not a form's contents: an owned edge with no
/// events yet and an edge that was never here (or has migrated away) are two
/// states — [`ShardForms::owns`] tells them apart, and so do digests and
/// snapshots. How the forms are laid out is this type's private decision.
/// Callers rely on three things only: a lookup costs no keyed hash, iteration
/// is by ascending edge id (the order snapshots and digests are defined
/// over), and any `usize` is accepted as an edge id — ids decoded from a
/// snapshot or a WAL record are input from outside the program, so nothing
/// here is sized by one.
#[derive(Clone, Debug, Default)]
pub struct ShardForms {
    forms: HashMap<EdgeIdx, TrackingForm, BuildHasherDefault<EdgeHasher>>,
}

impl ShardForms {
    /// Cuts one shard's part out of `store`: a copy of the form of every edge
    /// `owned` accepts.
    pub fn cut_from(store: &FormStore, owned: impl Fn(EdgeIdx) -> bool) -> Self {
        let forms = store.forms.iter().enumerate().filter(|&(e, _)| owned(e));
        ShardForms { forms: forms.map(|(e, f)| (e, f.clone())).collect() }
    }

    /// Whether `edge` belongs to this shard (its form may still be empty).
    pub fn owns(&self, edge: EdgeIdx) -> bool {
        self.forms.contains_key(&edge)
    }

    /// The form of `edge`, `None` when the shard does not own it.
    pub fn get(&self, edge: EdgeIdx) -> Option<&TrackingForm> {
        self.forms.get(&edge)
    }

    /// The form of `edge` for writing; a shard that sees an edge for the
    /// first time starts owning it, with an empty form.
    pub fn get_mut_or_insert(&mut self, edge: EdgeIdx) -> &mut TrackingForm {
        self.forms.entry(edge).or_default()
    }

    /// Makes the shard own `edge` with `form`, returning the form it held
    /// for that edge before, if any.
    pub fn insert(&mut self, edge: EdgeIdx, form: TrackingForm) -> Option<TrackingForm> {
        self.forms.insert(edge, form)
    }

    /// Gives `edge` up: the shard no longer owns it and the caller gets its
    /// form (`None` when it was not owned).
    pub fn take(&mut self, edge: EdgeIdx) -> Option<TrackingForm> {
        self.forms.remove(&edge)
    }

    /// Number of owned edges.
    pub fn len(&self) -> usize {
        self.forms.len()
    }

    /// Whether the shard owns no edge.
    pub fn is_empty(&self) -> bool {
        self.forms.is_empty()
    }

    /// Every owned edge with its form, ascending by edge id.
    pub fn iter(&self) -> std::vec::IntoIter<(EdgeIdx, &TrackingForm)> {
        Self::ascending(&self.forms)
    }

    /// `pairs` in the order shard state is walked, snapshotted and digested
    /// in: ascending edge id. This is the one key sort — the table is
    /// unordered and only snapshots, digests and `stq recover` walk it — and
    /// whoever must order forms held elsewhere (a reference implementation's
    /// plain map) the same way calls it too.
    pub fn ascending<K: Borrow<EdgeIdx>, T>(
        pairs: impl IntoIterator<Item = (K, T)>,
    ) -> std::vec::IntoIter<(EdgeIdx, T)> {
        let mut pairs: Vec<_> = pairs.into_iter().map(|(e, t)| (*e.borrow(), t)).collect();
        pairs.sort_unstable_by_key(|&(edge, _)| edge);
        pairs.into_iter()
    }
}

impl<'a> IntoIterator for &'a ShardForms {
    type Item = (EdgeIdx, &'a TrackingForm);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for ShardForms {
    type Item = (EdgeIdx, TrackingForm);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    /// Every owned edge with its form, ascending by edge id.
    fn into_iter(self) -> Self::IntoIter {
        Self::ascending(self.forms)
    }
}

impl CountSource for ShardForms {
    /// # Panics
    /// If the shard does not own `edge`, as [`FormStore`] does out of range.
    fn count_until(&self, edge: EdgeIdx, forward: bool, t: Time) -> f64 {
        self.forms[&edge].count_until(forward, t) as f64
    }

    fn storage_bytes(&self) -> usize {
        self.forms.values().map(|f| f.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_until_boundary_conditions() {
        // Empty sequence: always 0, at any t.
        assert_eq!(events_until(&[], 5.0), 0);
        assert_eq!(events_until(&[], f64::NEG_INFINITY), 0);
        // t exactly equal to a stored timestamp: the tie is *included*.
        let seq = [1.0, 2.0, 2.0, 3.0];
        assert_eq!(events_until(&seq, 2.0), 3);
        assert_eq!(events_until(&seq, 1.0), 1);
        assert_eq!(events_until(&seq, 3.0), 4);
        // Strictly between / outside stored timestamps.
        assert_eq!(events_until(&seq, 0.5), 0);
        assert_eq!(events_until(&seq, 2.5), 3);
        assert_eq!(events_until(&seq, 99.0), 4);
    }

    #[test]
    fn record_and_count() {
        let mut f = TrackingForm::new();
        f.record(true, 1.0);
        f.record(true, 2.0);
        f.record(true, 2.0); // equal times allowed
        f.record(false, 1.5);
        assert_eq!(f.count_until(true, 0.5), 0);
        assert_eq!(f.count_until(true, 1.0), 1);
        assert_eq!(f.count_until(true, 2.0), 3);
        assert_eq!(f.count_until(true, 99.0), 3);
        assert_eq!(f.count_until(false, 1.5), 1);
    }

    #[test]
    fn window_is_half_open() {
        let mut f = TrackingForm::new();
        for t in [1.0, 2.0, 3.0] {
            f.record(true, t);
        }
        assert_eq!(f.count_between(true, 1.0, 3.0), 2); // excludes t=1, includes t=3
        assert_eq!(f.count_between(true, 0.0, 1.0), 1);
        assert_eq!(f.count_between(true, 3.0, 10.0), 0);
        assert_eq!(f.count_between(true, 5.0, 4.0), 0); // inverted window
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_rejected() {
        let mut f = TrackingForm::new();
        f.record(true, 2.0);
        f.record(true, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let mut f = TrackingForm::new();
        f.record(true, f64::NAN);
    }

    #[test]
    fn directions_independent() {
        let mut f = TrackingForm::new();
        f.record(true, 5.0);
        f.record(false, 1.0); // earlier than fwd's last: fine, separate log
        assert_eq!(f.total(true), 1);
        assert_eq!(f.total(false), 1);
    }

    #[test]
    fn store_roundtrip() {
        let mut s = FormStore::new(3);
        s.record(0, true, 1.0);
        s.record(2, false, 4.0);
        s.record(2, false, 5.0);
        assert_eq!(s.count_until(0, true, 2.0), 1.0);
        assert_eq!(s.count_until(2, false, 4.5), 1.0);
        assert_eq!(s.count_between(2, false, 4.0, 5.0), 1.0);
        assert_eq!(s.total_events(), 3);
        assert_eq!(s.storage_bytes(), 3 * 8);
    }

    #[test]
    fn shard_forms_own_by_key_and_walk_ascending() {
        let mut store = FormStore::new(9);
        store.record(5, true, 1.0);
        store.record(2, false, 3.0);
        let mut shard = ShardForms::cut_from(&store, |e| e % 3 == 2);
        let edges = |s: &ShardForms| s.iter().map(|(e, _)| e).collect::<Vec<_>>();
        assert_eq!(edges(&shard), [2, 5, 8]);
        assert!(shard.owns(8) && shard.get(8).is_some_and(|f| f.total(true) == 0));
        assert!(!shard.owns(4) && shard.get(4).is_none());
        assert_eq!(shard.count_until(5, true, 1.0), 1.0);
        assert_eq!(shard.count_between(2, false, 0.0, 3.0), 1.0);
        assert_eq!(shard.storage_bytes(), 2 * 8);

        // An id from a file can be anything; the table is not sized by it.
        shard.get_mut_or_insert(usize::MAX).record(true, 2.0);
        let moved = shard.take(5).expect("owned");
        assert_eq!(moved.total(true), 1);
        assert!(shard.take(5).is_none() && !shard.owns(5));
        assert!(shard.insert(1, moved).is_none());
        assert_eq!(edges(&shard), [1, 2, 8, usize::MAX]);
        assert_eq!(shard.len(), 4);
        let owned: Vec<EdgeIdx> = shard.into_iter().map(|(e, _)| e).collect();
        assert_eq!(owned, [1, 2, 8, usize::MAX]);
        assert!(ShardForms::default().is_empty());
    }

    #[test]
    #[should_panic]
    fn shard_forms_count_panics_on_an_edge_it_does_not_own() {
        let shard = ShardForms::cut_from(&FormStore::new(4), |e| e != 3);
        shard.count_until(3, true, 0.0);
    }
}
