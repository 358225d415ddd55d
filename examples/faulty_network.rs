//! Serving queries from an unreliable sensor network.
//!
//! The sharded runtime (`stq::runtime`) answers range-count queries while a
//! seeded `FaultPlan` drops, delays and duplicates shard messages and takes
//! one shard down entirely. Fault-free answers are bit-identical to the
//! synchronous query path; under faults the runtime retries with
//! exponential backoff and, past the retry budget, degrades gracefully: it
//! returns widened `[lower, upper]` bounds plus an honest `coverage`
//! fraction instead of failing.
//!
//! ```sh
//! cargo run --release -p stq --example faulty_network
//! ```

use std::time::Duration;

use stq::core::prelude::*;
use stq::core::query::evaluate;
use stq::runtime::{CrashWindow, FaultPlan, QuerySpec, Runtime, RuntimeConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        junctions: 200,
        mix: WorkloadMix { random_waypoint: 25, commuter: 15, transit: 8 },
        seed: 9,
        ..Default::default()
    });
    let cands = scenario.sensing.sensor_candidates();
    let ids =
        stq::sampling::sample(stq::sampling::SamplingMethod::QuadTree, &cands, cands.len() / 4, 5);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled =
        SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);

    // A hostile network: 10% message loss, occasional 1–3 ms delays, a few
    // duplicated responses, and shard 1 crashed for its first 10 messages
    // (it reboots mid-run, so later queries see full coverage again).
    let fault = FaultPlan::lossy(42, 0.10, 0.15, 0.05, 3).with_crash(CrashWindow {
        node: 1,
        after_messages: 0,
        lasts_messages: 10,
    });
    let cfg = RuntimeConfig {
        num_shards: 4,
        dispatchers: 2,
        shard_timeout: Duration::from_millis(5),
        max_retries: 3,
        fault,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(scenario.sensing.clone(), sampled.clone(), &scenario.tracked.store, cfg);

    println!(
        "{:>3} | {:>9} | {:>9} | {:>9} | {:>9} | {:>6} | {:>6}",
        "#", "sync", "served", "lower", "upper", "cover", "retry"
    );
    for (i, (region, t0, t1)) in
        scenario.make_queries(10, 0.08, 1_500.0, 17).into_iter().enumerate()
    {
        let spec = QuerySpec::new(region, QueryKind::Transient(t0, t1), Approximation::Lower);
        // The synchronous single-threaded path the runtime must bracket.
        let covered = sampled.resolve(spec.region.junctions(), Approximation::Lower);
        if covered.is_empty() {
            continue;
        }
        let (boundary, _) = scenario.sensing.boundary_walk(&covered, Some(sampled.monitored()));
        let sync = evaluate(&scenario.tracked.store, &boundary, spec.kind);

        let served = rt.query(spec);
        assert!(served.lower <= sync && sync <= served.upper, "bounds must bracket the sync value");
        println!(
            "{i:>3} | {sync:>9.1} | {:>9.1} | {:>9.1} | {:>9.1} | {:>6.2} | {:>6}{}",
            served.value,
            served.lower,
            served.upper,
            served.coverage,
            served.retries,
            if served.degraded { "  DEGRADED" } else { "" }
        );
    }

    println!("\n{}", rt.metrics().report());
    rt.shutdown();
    println!("\nevery answer — even the degraded ones — brackets the synchronous value;");
    println!("coverage tells the analyst exactly how much of the perimeter reported.");
}
