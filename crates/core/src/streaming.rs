//! Online ingestion and streaming learned stores.
//!
//! The batch [`crate::tracker::ingest`] sorts all crossings up front; a real
//! deployment receives them continuously. [`StreamTracker`] accepts events
//! in near-real-time order — tolerating bounded out-of-order arrival, as
//! radio networks produce — by buffering events inside a watermark window
//! and releasing them in order. Released events feed either the exact
//! [`stq_forms::FormStore`] or a [`StreamingLearnedStore`] of bounded
//! per-edge memory
//! built from `stq_learned::BufferedSeries` (the paper's buffer-and-flush
//! update scheme, §4.8).

use crate::tracker::Crossing;
use stq_forms::{CountSource, Time};
use stq_learned::{BufferedSeries, RegressorKind};

/// Accepts crossings with bounded time skew and releases them in order.
///
/// Events may arrive up to `max_skew` seconds late relative to the newest
/// event seen. Older arrivals are rejected (returned as errors) rather than
/// silently reordered — the caller decides whether to drop or crash.
#[derive(Debug)]
pub struct StreamTracker {
    max_skew: Time,
    /// Buffered events, kept sorted by time (newest last).
    pending: Vec<Crossing>,
    watermark: Time,
    stats: StreamStats,
}

/// Ingestion accounting of one [`StreamTracker`]: the tracker's own counts,
/// read through [`StreamTracker::stats`] (the serving runtime keeps none of
/// them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events accepted into the watermark buffer.
    pub accepted: u64,
    /// Events rejected for arriving behind the watermark.
    pub late_dropped: u64,
    /// Exact-duplicate crossings suppressed by the idempotency guard.
    pub duplicates_suppressed: u64,
}

/// Rejected late event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LateEvent(pub Crossing);

impl std::fmt::Display for LateEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event at t={} on edge {} arrived behind the watermark", self.0.time, self.0.edge)
    }
}

impl std::error::Error for LateEvent {}

impl StreamTracker {
    /// Creates a tracker tolerating `max_skew` seconds of reordering.
    pub fn new(max_skew: Time) -> Self {
        assert!(max_skew >= 0.0, "skew must be non-negative");
        StreamTracker {
            max_skew,
            pending: Vec::new(),
            watermark: f64::NEG_INFINITY,
            stats: StreamStats::default(),
        }
    }

    /// Offers one event; returns the events *released* by the advancing
    /// watermark (in global time order), or an error if the event is older
    /// than the watermark allows. Rejections and suppressed duplicates are
    /// counted in [`StreamTracker::stats`].
    pub fn offer(&mut self, ev: Crossing) -> Result<Vec<Crossing>, LateEvent> {
        if ev.time < self.watermark {
            self.stats.late_dropped += 1;
            return Err(LateEvent(ev));
        }
        // Idempotency guard: radio links retransmit, and a retransmitted
        // crossing is byte-identical. Suppress exact duplicates still inside
        // the watermark window (older duplicates are already released and
        // beyond reach — bounded-memory streaming cannot dedup forever).
        let idx = self.pending.partition_point(|e| e.time <= ev.time);
        let first_tie = self.pending[..idx].partition_point(|e| e.time < ev.time);
        if self.pending[first_tie..idx].contains(&ev) {
            self.stats.duplicates_suppressed += 1;
            return Ok(Vec::new());
        }
        self.stats.accepted += 1;
        self.pending.insert(idx, ev);
        let newest = self.pending.last().map(|e| e.time).unwrap_or(ev.time);
        self.watermark = self.watermark.max(newest - self.max_skew);
        let release_upto = self.pending.partition_point(|e| e.time < self.watermark);
        Ok(self.pending.drain(..release_upto).collect())
    }

    /// Flushes every buffered event (end of stream).
    pub fn finish(&mut self) -> Vec<Crossing> {
        self.watermark = f64::INFINITY;
        std::mem::take(&mut self.pending)
    }

    /// Events currently held back by the watermark.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Ingestion accounting so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

/// A bounded-memory [`CountSource`]: per edge and direction, a
/// [`BufferedSeries`] (frozen model + bounded buffer) instead of the full
/// timestamp log.
pub struct StreamingLearnedStore {
    series: Vec<(BufferedSeries, BufferedSeries)>,
}

impl std::fmt::Debug for StreamingLearnedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingLearnedStore").field("edges", &self.series.len()).finish()
    }
}

impl StreamingLearnedStore {
    /// Creates a store for `num_edges` edges with the given model family and
    /// per-direction buffer capacity.
    pub fn new(num_edges: usize, kind: RegressorKind, buffer: usize) -> Self {
        StreamingLearnedStore {
            series: (0..num_edges)
                .map(|_| (BufferedSeries::new(kind, buffer), BufferedSeries::new(kind, buffer)))
                .collect(),
        }
    }

    /// Records one crossing (must be time-monotone per edge+direction, which
    /// feeding from a [`StreamTracker`] guarantees globally).
    pub fn record(&mut self, ev: Crossing) {
        let (fwd, bwd) = &mut self.series[ev.edge];
        if ev.forward {
            fwd.push(ev.time);
        } else {
            bwd.push(ev.time);
        }
    }

    /// Total events absorbed.
    pub fn total_events(&self) -> usize {
        self.series.iter().map(|(f, b)| f.total() + b.total()).sum()
    }
}

impl CountSource for StreamingLearnedStore {
    fn count_until(&self, edge: usize, forward: bool, t: Time) -> f64 {
        let (fwd, bwd) = &self.series[edge];
        if forward {
            fwd.count_until(t)
        } else {
            bwd.count_until(t)
        }
    }

    fn storage_bytes(&self) -> usize {
        self.series.iter().map(|(f, b)| f.size_bytes() + b.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_forms::FormStore;

    fn ev(time: Time, edge: usize, forward: bool) -> Crossing {
        Crossing { time, edge, forward }
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut t = StreamTracker::new(5.0);
        let mut released = Vec::new();
        for k in 0..20 {
            released.extend(t.offer(ev(k as f64, k % 3, true)).unwrap());
        }
        released.extend(t.finish());
        assert_eq!(released.len(), 20);
        assert!(released.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn bounded_reordering_is_fixed() {
        let mut t = StreamTracker::new(5.0);
        let times = [0.0, 3.0, 1.0, 4.0, 2.0, 10.0, 8.0, 12.0, 11.0];
        let mut released = Vec::new();
        for &x in &times {
            released.extend(t.offer(ev(x, 0, true)).unwrap());
        }
        released.extend(t.finish());
        assert_eq!(released.len(), times.len());
        assert!(released.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn too_late_rejected() {
        let mut t = StreamTracker::new(2.0);
        t.offer(ev(0.0, 0, true)).unwrap();
        t.offer(ev(10.0, 0, true)).unwrap(); // watermark jumps to 8
        assert!(t.offer(ev(3.0, 0, true)).is_err());
        assert!(t.offer(ev(8.0, 0, true)).is_ok()); // exactly at watermark ok
    }

    #[test]
    fn watermark_holds_recent_events() {
        let mut t = StreamTracker::new(100.0);
        for k in 0..10 {
            let out = t.offer(ev(k as f64, 0, true)).unwrap();
            assert!(out.is_empty(), "all events within skew must be held");
        }
        assert_eq!(t.pending(), 10);
        assert_eq!(t.finish().len(), 10);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn streaming_store_tracks_counts() {
        let mut store = StreamingLearnedStore::new(4, RegressorKind::PiecewiseLinear(16), 8);
        let mut tracker = StreamTracker::new(3.0);
        // A jittered stream across 4 edges.
        let mut events = Vec::new();
        for k in 0..200 {
            let base = k as f64;
            events.push(ev(base + ((k * 7) % 3) as f64 * 0.3, k % 4, k % 2 == 0));
        }
        for &e in &events {
            for r in tracker.offer(e).unwrap() {
                store.record(r);
            }
        }
        for r in tracker.finish() {
            store.record(r);
        }
        assert_eq!(store.total_events(), 200);
        // Each edge saw 50 events; mid-stream estimates must be close.
        for e in 0..4 {
            let total = store.count_until(e, true, 1e9) + store.count_until(e, false, 1e9);
            assert!((total - 50.0).abs() <= 5.0, "edge {e}: total {total}");
        }
        // Memory stays bounded: buffer + model per direction.
        assert!(store.storage_bytes() < 4 * 2 * (8 * 8 + 600));
    }

    #[test]
    fn streaming_matches_batch_on_sorted_input() {
        // Feeding the same sorted events to FormStore and the streaming
        // store keeps cumulative counts within model tolerance.
        let mut exact = FormStore::new(1);
        let mut stream = StreamingLearnedStore::new(1, RegressorKind::PiecewiseLinear(32), 16);
        let mut t = 0.0;
        for i in 0..120 {
            t += 1.0 + 0.5 * ((i as f64) * 0.2).sin();
            exact.record(0, true, t);
            stream.record(ev(t, 0, true));
        }
        for probe in [10.0, 40.0, 90.0, 130.0] {
            let e = exact.count_until(0, true, probe);
            let s = stream.count_until(0, true, probe);
            assert!((e - s).abs() <= 6.0, "probe {probe}: exact {e} stream {s}");
        }
    }

    #[test]
    #[should_panic(expected = "skew")]
    fn negative_skew_rejected() {
        let _ = StreamTracker::new(-1.0);
    }

    #[test]
    fn late_events_are_counted() {
        let mut t = StreamTracker::new(2.0);
        t.offer(ev(0.0, 0, true)).unwrap();
        t.offer(ev(10.0, 0, true)).unwrap(); // watermark jumps to 8
        assert!(t.offer(ev(3.0, 0, true)).is_err());
        assert!(t.offer(ev(4.0, 1, false)).is_err());
        let s = t.stats();
        assert_eq!(s.late_dropped, 2);
        assert_eq!(s.accepted, 2);
    }

    #[test]
    fn exact_duplicates_are_suppressed() {
        let mut t = StreamTracker::new(50.0);
        let e = ev(5.0, 3, true);
        assert!(t.offer(e).unwrap().is_empty());
        assert!(t.offer(e).unwrap().is_empty(), "retransmission swallowed");
        assert!(t.offer(e).unwrap().is_empty());
        // Same time, different identity: kept.
        t.offer(ev(5.0, 3, false)).unwrap();
        t.offer(ev(5.0, 4, true)).unwrap();
        assert_eq!(t.pending(), 3);
        let s = t.stats();
        assert_eq!(s.duplicates_suppressed, 2);
        assert_eq!(s.accepted, 3);
        let released = t.finish();
        assert_eq!(released.len(), 3, "the duplicate is delivered exactly once");
    }
}
