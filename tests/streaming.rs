//! Integration tests for streaming ingestion across the full pipeline: a
//! jittered event stream feeds a bounded-memory deployment whose query
//! answers stay close to the batch-built exact system.

use rand::{Rng, SeedableRng};
use stq::core::prelude::*;
use stq::forms::{snapshot_count, CountSource, FormStore};
use stq::learned::RegressorKind;

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        junctions: 200,
        mix: WorkloadMix { random_waypoint: 25, commuter: 20, transit: 10 },
        seed: 4242,
        ..Default::default()
    })
}

/// The workload's crossings with simulated network delivery jitter.
fn jittered_stream(s: &Scenario, jitter: f64, seed: u64) -> Vec<Crossing> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut arrivals: Vec<(f64, Crossing)> = s
        .trajectories
        .iter()
        .flat_map(|t| crossings_of(&s.sensing, t))
        .map(|c| (c.time + rng.gen_range(0.0..jitter), c))
        .collect();
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    arrivals.into_iter().map(|(_, c)| c).collect()
}

#[test]
fn streamed_exact_store_equals_batch_everywhere() {
    let s = scenario();
    let mut tracker = StreamTracker::new(30.0);
    let mut store = FormStore::new(s.sensing.num_edges());
    let mut count = 0usize;
    for ev in jittered_stream(&s, 29.0, 7) {
        for r in tracker.offer(ev).expect("jitter within skew") {
            store.record(r.edge, r.forward, r.time);
            count += 1;
        }
    }
    for r in tracker.finish() {
        store.record(r.edge, r.forward, r.time);
        count += 1;
    }
    assert_eq!(count, s.tracked.num_crossings);

    // Arbitrary region snapshots match the batch store exactly.
    for (q, t0, _) in s.make_queries(10, 0.15, 500.0, 3) {
        let (b, _) = s.sensing.boundary_walk(q.junctions(), None);
        assert_eq!(snapshot_count(&store, &b, t0), snapshot_count(&s.tracked.store, &b, t0));
    }
}

#[test]
fn streaming_learned_store_answers_queries() {
    let s = scenario();
    let mut tracker = StreamTracker::new(30.0);
    let mut store =
        StreamingLearnedStore::new(s.sensing.num_edges(), RegressorKind::PiecewiseLinear(32), 64);
    for ev in jittered_stream(&s, 29.0, 9) {
        for r in tracker.offer(ev).unwrap() {
            store.record(r);
        }
    }
    for r in tracker.finish() {
        store.record(r);
    }
    assert_eq!(store.total_events(), s.tracked.num_crossings);

    // Bounded memory: per edge-direction at most buffer + model.
    let per_edge = store.storage_bytes() as f64 / s.sensing.num_edges() as f64;
    assert!(per_edge < 2.0 * (64.0 * 8.0 + 600.0), "per-edge {per_edge}");

    // Aggregate accuracy: total absolute deviation from the exact store
    // over a query batch stays a modest fraction of the exact mass.
    let g = SampledGraph::unsampled(&s.sensing);
    let mut num = 0.0;
    let mut den = 0.0;
    for (q, t0, _) in s.make_queries(15, 0.2, 500.0, 5) {
        let kind = QueryKind::Snapshot(t0);
        let exact = answer(&s.sensing, &g, &s.tracked.store, &q, kind, Approximation::Lower);
        let streamed = answer(&s.sensing, &g, &store, &q, kind, Approximation::Lower);
        num += (exact.value - streamed.value).abs();
        den += exact.value.abs();
    }
    assert!(den > 0.0);
    assert!(num / den < 1.0, "streamed store deviates {num}/{den}");
}

#[test]
fn late_events_are_surfaced_not_silently_dropped() {
    let s = scenario();
    let mut tracker = StreamTracker::new(1.0); // very tight skew
    let mut late = 0usize;
    let mut ok = 0usize;
    for ev in jittered_stream(&s, 50.0, 11) {
        match tracker.offer(ev) {
            Ok(rel) => ok += rel.len(),
            Err(_) => late += 1,
        }
    }
    ok += tracker.finish().len();
    assert_eq!(ok + late, s.tracked.num_crossings);
    assert!(late > 0, "50s jitter against 1s skew must reject something");
}

#[test]
fn streaming_store_usable_through_count_source_trait() {
    let s = scenario();
    let mut store = StreamingLearnedStore::new(s.sensing.num_edges(), RegressorKind::Linear, 16);
    let mut events: Vec<Crossing> =
        s.trajectories.iter().flat_map(|t| crossings_of(&s.sensing, t)).collect();
    events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
    for ev in events {
        store.record(ev);
    }
    let src: &dyn CountSource = &store;
    let (q, t0, t1) = s.make_queries(1, 0.25, 800.0, 13).remove(0);
    let (b, _) = s.sensing.boundary_walk(q.junctions(), None);
    for kind in [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1)] {
        let v = stq::core::query::evaluate(src, &b, kind);
        assert!(v.is_finite());
    }
}
