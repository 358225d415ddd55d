//! The write-side columnar lane of batched ingest.

use crate::{EdgeIdx, Time};

/// A write-side columnar lane: one shard's slice of an ingest batch, laid
/// out struct-of-arrays so the ingest path streams three dense columns
/// instead of an array of structs.
///
/// The batched-ingest path groups events by owning shard into one lane per
/// shard, hands each lane to its worker over the shard channel, and the
/// worker iterates the columns back into individual event applications
/// (and one group-commit WAL frame). The
/// crate deliberately knows nothing about the runtime's event type —
/// callers split it into `(edge, forward, time)` at the boundary.
#[derive(Clone, Debug, Default)]
pub struct ColumnarBatch {
    edges: Vec<EdgeIdx>,
    forwards: Vec<bool>,
    times: Vec<Time>,
}

impl ColumnarBatch {
    /// An empty lane.
    pub fn new() -> Self {
        ColumnarBatch::default()
    }

    /// An empty lane with room for `cap` events per column.
    pub fn with_capacity(cap: usize) -> Self {
        ColumnarBatch {
            edges: Vec::with_capacity(cap),
            forwards: Vec::with_capacity(cap),
            times: Vec::with_capacity(cap),
        }
    }

    /// Appends one event, preserving arrival order within the lane.
    pub fn push(&mut self, edge: EdgeIdx, forward: bool, time: Time) {
        self.edges.push(edge);
        self.forwards.push(forward);
        self.times.push(time);
    }

    /// Events in the lane.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the lane is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The events in push order, rematerialized from the columns.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeIdx, bool, Time)> + '_ {
        self.edges.iter().zip(&self.forwards).zip(&self.times).map(|((&e, &f), &t)| (e, f, t))
    }

    /// The edge column (the dispatch key the lane was grouped by).
    pub fn edges(&self) -> &[EdgeIdx] {
        &self.edges
    }

    /// Drops every event, keeping the columns' capacity.
    pub fn clear(&mut self) {
        self.edges.clear();
        self.forwards.clear();
        self.times.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columnar_batch_roundtrips_in_push_order() {
        let mut b = ColumnarBatch::with_capacity(4);
        assert!(b.is_empty());
        let events = [(3usize, true, 1.5), (0, false, 2.0), (3, true, 2.25)];
        for &(e, f, t) in &events {
            b.push(e, f, t);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.edges(), &[3, 0, 3]);
        let back: Vec<(usize, bool, f64)> = b.iter().collect();
        assert_eq!(back, events);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }
}
