//! Identifier-based ground-truth counter.
//!
//! The whole point of the paper is to answer distinct-count queries *without*
//! storing identifiers. This oracle stores them anyway — it exists solely so
//! tests and benchmarks can certify that the identifier-free tracking forms
//! are exact on fully monitored graphs, and to compute the exact static
//! interval count that aggregates cannot recover.

use crate::Time;
use std::collections::HashMap;

/// Opaque moving-object identifier.
pub type ObjectId = u64;
/// Junction (primal vertex) id — matches `stq_planar` vertex indices.
pub type Junction = usize;

/// Tracks every object's full location history.
#[derive(Clone, Debug, Default)]
pub struct OracleTracker {
    /// Per object: arrival events `(time, junction)`, time-sorted.
    trails: HashMap<ObjectId, Vec<(Time, Junction)>>,
}

impl OracleTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `object` arrived at `junction` at time `t`.
    ///
    /// # Panics
    /// If `t` precedes the object's last recorded event.
    pub fn record_arrival(&mut self, object: ObjectId, junction: Junction, t: Time) {
        assert!(t.is_finite(), "time must be finite");
        let trail = self.trails.entry(object).or_default();
        if let Some(&(last, _)) = trail.last() {
            assert!(t >= last, "object {object} moved back in time ({t} < {last})");
        }
        trail.push((t, junction));
    }

    /// The junction occupied by `object` at time `t`, or `None` if the
    /// object has no event at or before `t`.
    pub fn location_at(&self, object: ObjectId, t: Time) -> Option<Junction> {
        let trail = self.trails.get(&object)?;
        let idx = trail.partition_point(|&(ts, _)| ts <= t);
        if idx == 0 {
            None
        } else {
            Some(trail[idx - 1].1)
        }
    }

    /// Exact number of distinct objects inside the junction set at time `t`.
    pub fn snapshot_count(&self, in_region: &dyn Fn(Junction) -> bool, t: Time) -> usize {
        self.trails
            .keys()
            .filter(|&&o| self.location_at(o, t).map(&in_region).unwrap_or(false))
            .count()
    }

    /// Exact net change of population over `(t0, t1]`.
    pub fn transient_count(&self, in_region: &dyn Fn(Junction) -> bool, t0: Time, t1: Time) -> i64 {
        self.snapshot_count(in_region, t1) as i64 - self.snapshot_count(in_region, t0) as i64
    }

    /// Exact number of distinct objects that stay inside the region for the
    /// *entire* interval `[t0, t1]` — the paper's static object count
    /// (§3.3, query type 1), including the "does not temporarily leave"
    /// clause that aggregates can only lower-bound.
    pub fn static_interval_count(
        &self,
        in_region: &dyn Fn(Junction) -> bool,
        t0: Time,
        t1: Time,
    ) -> usize {
        let mut count = 0;
        'objects: for (&o, trail) in &self.trails {
            // Must be inside at t0...
            match self.location_at(o, t0) {
                Some(j) if in_region(j) => {}
                _ => continue,
            }
            // ...and never step outside during (t0, t1].
            let lo = trail.partition_point(|&(ts, _)| ts <= t0);
            for &(ts, j) in &trail[lo..] {
                if ts > t1 {
                    break;
                }
                if !in_region(j) {
                    continue 'objects;
                }
            }
            count += 1;
        }
        count
    }

    /// Exact gross counts over `(t0, t1]`: `(entries, exits)` — transitions
    /// of any object from outside to inside and vice versa.
    pub fn gross_flow(
        &self,
        in_region: &dyn Fn(Junction) -> bool,
        t0: Time,
        t1: Time,
    ) -> (usize, usize) {
        let mut entries = 0;
        let mut exits = 0;
        for (&o, trail) in &self.trails {
            let mut inside = self.location_at(o, t0).map(&in_region).unwrap_or(false);
            let lo = trail.partition_point(|&(ts, _)| ts <= t0);
            for &(ts, j) in &trail[lo..] {
                if ts > t1 {
                    break;
                }
                let now = in_region(j);
                if now && !inside {
                    entries += 1;
                } else if !now && inside {
                    exits += 1;
                }
                inside = now;
            }
        }
        (entries, exits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_set(set: &'static [Junction]) -> impl Fn(Junction) -> bool {
        move |j| set.contains(&j)
    }

    #[test]
    fn location_history() {
        let mut o = OracleTracker::new();
        o.record_arrival(1, 10, 0.0);
        o.record_arrival(1, 11, 5.0);
        o.record_arrival(1, 12, 9.0);
        assert_eq!(o.location_at(1, -1.0), None);
        assert_eq!(o.location_at(1, 0.0), Some(10));
        assert_eq!(o.location_at(1, 4.9), Some(10));
        assert_eq!(o.location_at(1, 5.0), Some(11));
        assert_eq!(o.location_at(1, 100.0), Some(12));
        assert_eq!(o.location_at(2, 0.0), None);
    }

    #[test]
    fn snapshot_and_transient() {
        let mut o = OracleTracker::new();
        // Object 1 enters region {5,6} at t=1, leaves at t=4.
        o.record_arrival(1, 0, 0.0);
        o.record_arrival(1, 5, 1.0);
        o.record_arrival(1, 9, 4.0);
        // Object 2 stays inside from t=2.
        o.record_arrival(2, 6, 2.0);
        let region = in_set(&[5, 6]);
        assert_eq!(o.snapshot_count(&region, 0.5), 0);
        assert_eq!(o.snapshot_count(&region, 1.5), 1);
        assert_eq!(o.snapshot_count(&region, 3.0), 2);
        assert_eq!(o.snapshot_count(&region, 5.0), 1);
        assert_eq!(o.transient_count(&region, 0.5, 3.0), 2);
        assert_eq!(o.transient_count(&region, 3.0, 5.0), -1);
    }

    #[test]
    fn static_interval_strictness() {
        let mut o = OracleTracker::new();
        // Object 1: inside the whole interval.
        o.record_arrival(1, 5, 0.0);
        // Object 2: inside at t0 but pops out at t=2 and returns at t=3 —
        // must NOT count (the "does not temporarily leave" clause).
        o.record_arrival(2, 5, 0.0);
        o.record_arrival(2, 9, 2.0);
        o.record_arrival(2, 5, 3.0);
        // Object 3: enters after t0 — must not count.
        o.record_arrival(3, 5, 1.5);
        let region = in_set(&[5]);
        assert_eq!(o.static_interval_count(&region, 1.0, 4.0), 1);
        // Degenerate interval = snapshot.
        assert_eq!(o.static_interval_count(&region, 1.0, 1.0), 2);
    }

    #[test]
    fn gross_flow_counts_transitions() {
        let mut o = OracleTracker::new();
        o.record_arrival(1, 0, 0.0);
        o.record_arrival(1, 5, 1.0); // enter
        o.record_arrival(1, 0, 2.0); // exit
        o.record_arrival(1, 5, 3.0); // enter again
        let region = in_set(&[5]);
        let (inn, out) = o.gross_flow(&region, 0.0, 10.0);
        assert_eq!((inn, out), (2, 1));
    }

    #[test]
    #[should_panic(expected = "back in time")]
    fn time_travel_rejected() {
        let mut o = OracleTracker::new();
        o.record_arrival(1, 0, 5.0);
        o.record_arrival(1, 1, 4.0);
    }
}
