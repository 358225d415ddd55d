//! Standing queries: register a region once, then watch its population
//! bracket move with the live stream.
//!
//! Three monitors subscribe to city regions through the sharded runtime.
//! Each ingested crossing on a subscribed boundary arrives as a count
//! *delta* — no query re-executes — yet at any instant the maintained
//! `[lower, upper]` bracket is **bit-identical** to re-running the region
//! as a snapshot query, and a forced re-snapshot epoch (the same sound
//! hand-off the supervisor performs after a crash) lands on the same bits.
//!
//! ```sh
//! cargo run --release -p stq --example standing_queries
//! ```

use stq::core::prelude::*;
use stq::core::tracker::Crossing;
use stq::runtime::{QuerySpec, Runtime, RuntimeConfig, UpdateCause};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        junctions: 300,
        mix: WorkloadMix { random_waypoint: 40, commuter: 40, transit: 20 },
        ..Default::default()
    });
    let cands = scenario.sensing.sensor_candidates();
    let ids =
        stq::sampling::sample(stq::sampling::SamplingMethod::QuadTree, &cands, cands.len() / 4, 5);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled =
        SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);

    let rt = Runtime::new(
        scenario.sensing.clone(),
        sampled,
        &scenario.tracked.store,
        RuntimeConfig { num_shards: 4, ..RuntimeConfig::default() },
    );

    // Register three monitors. Each handle carries a push channel: the
    // baseline arrives first, then one update per boundary delta.
    let mut monitors = Vec::new();
    for (region, _, _) in scenario.make_queries(8, 0.08, 1_500.0, 41) {
        if let Ok(h) = rt.subscribe(region.clone(), Approximation::Lower) {
            monitors.push((h, region));
            if monitors.len() == 3 {
                break;
            }
        }
    }
    println!("registered {} standing queries:", monitors.len());
    for (h, _) in &monitors {
        println!(
            "  {}: baseline [{:.0}, {:.0}] over {} boundary edges (plan cache hit: {})",
            h.id, h.baseline.lower, h.baseline.upper, h.boundary_edges, h.plan_cache_hit
        );
    }

    // Stream live crossings; every tick the brackets are already current —
    // nothing re-executes.
    let ne = scenario.sensing.num_edges();
    let t0 = scenario.config.trajectory.duration;
    let mut sent = 0usize;
    println!("\n{:>5} | {:>20} | {:>20} | {:>20}", "tick", "sub-0", "sub-1", "sub-2");
    for tick in 0..5 {
        for i in 0..400 {
            rt.ingest(Crossing {
                time: t0 + 1.0 + (sent + i) as f64 * 0.05,
                edge: (sent + i) % ne,
                forward: (sent + i) % 3 != 0,
            })
            .expect("ingest");
        }
        sent += 400;
        rt.flush_ingest();
        let cells: Vec<String> = monitors
            .iter()
            .map(|(h, _)| {
                let b = rt.standing_bracket(h.id).unwrap();
                format!("{:.0} in [{:.0}, {:.0}]", b.value, b.lower, b.upper)
            })
            .collect();
        println!("{tick:>5} | {:>20} | {:>20} | {:>20}", cells[0], cells[1], cells[2]);
    }

    // Drain one monitor's channel: a baseline, then pure deltas.
    let (h, region) = &monitors[0];
    let mut counts = [0usize; 3];
    while let Ok(u) = h.updates.try_recv() {
        match u.cause {
            UpdateCause::Registered => counts[0] += 1,
            UpdateCause::Delta => counts[1] += 1,
            UpdateCause::Resnapshot => counts[2] += 1,
        }
    }
    println!(
        "\n{} received {} baseline + {} delta pushes (p95 push latency: see metrics)",
        h.id, counts[0], counts[1]
    );

    // The receipts: the maintained bracket equals re-execution bitwise, and
    // a forced re-snapshot epoch (crash-recovery's hand-off) changes nothing.
    let b = rt.standing_bracket(h.id).unwrap();
    let served =
        rt.query(QuerySpec::new(region.clone(), QueryKind::Snapshot(1.0e12), Approximation::Lower));
    assert_eq!(b.value.to_bits(), served.value.to_bits());
    assert_eq!(b.lower.to_bits(), served.lower.to_bits());
    assert_eq!(b.upper.to_bits(), served.upper.to_bits());
    println!(
        "delta-maintained {:.0} in [{:.0}, {:.0}] == re-executed snapshot, bit for bit",
        b.value, b.lower, b.upper
    );
    rt.resnapshot_subscriptions();
    let after = rt.standing_bracket(h.id).unwrap();
    assert_eq!(after.value.to_bits(), b.value.to_bits());
    println!(
        "epoch {} -> {}: re-snapshot reproduced the same bits ({} deltas folded away)",
        b.epoch, after.epoch, b.deltas
    );

    println!("\n{}", rt.metrics().report());
    rt.shutdown();
}
