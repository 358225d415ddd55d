//! Live monitoring with bounded memory and differential privacy.
//!
//! Crossing events arrive as an out-of-order stream (as radio networks
//! deliver them); a watermark tracker re-orders them, a streaming learned
//! store absorbs them in constant memory per sensor, and analysts query the
//! deployment through an ε-differentially-private lens (the paper's [20]
//! extension).
//!
//! ```sh
//! cargo run --release -p stq --example live_monitoring
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stq::core::prelude::*;
use stq::forms::{CountSource, PrivateCounts};
use stq::learned::RegressorKind;

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        junctions: 300,
        mix: WorkloadMix { random_waypoint: 40, commuter: 40, transit: 20 },
        ..Default::default()
    });
    let sensing = &scenario.sensing;
    let duration = scenario.config.trajectory.duration;

    // Re-create the crossing stream with simulated network jitter: each
    // event is delayed by up to 20 s before reaching the collector.
    let mut rng = StdRng::seed_from_u64(7);
    let mut arrivals: Vec<(f64, Crossing)> = scenario
        .trajectories
        .iter()
        .flat_map(|t| crossings_of(sensing, t))
        .map(|c| (c.time + rng.gen_range(0.0..20.0), c))
        .collect();
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    println!("streaming {} crossing events with ≤20 s network jitter", arrivals.len());

    // Watermark-ordered ingestion into a bounded-memory learned store.
    let mut tracker = StreamTracker::new(25.0);
    let mut store =
        StreamingLearnedStore::new(sensing.num_edges(), RegressorKind::PiecewiseLinear(16), 32);
    let mut late = 0usize;
    for (_, ev) in arrivals {
        match tracker.offer(ev) {
            Ok(released) => {
                for r in released {
                    store.record(r);
                }
            }
            Err(_) => late += 1,
        }
    }
    for r in tracker.finish() {
        store.record(r);
    }
    println!(
        "ingested {} events ({late} dropped as too-late); store footprint {} KiB \
         (exact logs would be {} KiB)",
        store.total_events(),
        store.storage_bytes() / 1024,
        scenario.tracked.store.storage_bytes() / 1024,
    );

    // A city-centre monitoring region.
    let bb = sensing.road().bbox();
    let q = QueryRegion::from_rect(
        sensing,
        stq::geom::Rect::centered(bb.center(), bb.width() * 0.4, bb.height() * 0.4),
    );
    let (boundary, _) = sensing.boundary_walk(q.junctions(), None);

    // Exact vs streaming-store vs private answers over the day.
    let private = PrivateCounts::new(
        LearnedStore::fit(&scenario.tracked.store, None, RegressorKind::PiecewiseLinear(16)),
        1.0,   // ε
        2.0,   // sensitivity: one object crosses a directed edge ≤ 2 times here
        600.0, // 10-minute release buckets
        2024,
    );
    println!(
        "\nnoise scale b = {:.1}; predicted query sd ±{:.1} over {} boundary edges",
        private.noise_scale(),
        private.expected_query_sd(boundary.len()),
        boundary.len()
    );
    println!("\n{:>8} | {:>8} | {:>10} | {:>14}", "t", "exact", "streaming", "private (ε=1)");
    for k in 1..=6 {
        let t = duration * k as f64 / 7.0;
        let exact = stq::forms::snapshot_count(&scenario.tracked.store, &boundary, t);
        let streamed = stq::forms::snapshot_count(&store, &boundary, t);
        let noisy = stq::forms::snapshot_count(&private, &boundary, t);
        println!("{t:>8.0} | {exact:>8.0} | {streamed:>10.1} | {noisy:>14.1}");
    }
    println!("\nthe streaming store tracks the exact counts with bounded memory; the");
    println!("private view adds calibrated Laplace noise per 10-minute release.");
}
