//! Cell-tower load monitoring (the paper's Figure 1 scenario).
//!
//! A city operator monitors how many distinct users are inside each tower's
//! service region over time, comparing sensor-selection strategies —
//! including the query-adaptive submodular method when the monitoring
//! regions are known a priori.
//!
//! ```sh
//! cargo run --release -p stq --example city_traffic
//! ```

use stq::core::prelude::*;
use stq::sampling::{sample, SamplingMethod};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        junctions: 500,
        mix: WorkloadMix { random_waypoint: 50, commuter: 60, transit: 25 },
        ..Default::default()
    });
    let sensing = &scenario.sensing;
    let duration = scenario.config.trajectory.duration;

    // Service regions: a 3×3 tiling of the city — each tile is one cell
    // tower's coverage, queried repeatedly (so their layout is known ahead
    // of time: ideal for the submodular method).
    let bb = sensing.road().bbox();
    let mut towers = Vec::new();
    for ty in 0..3 {
        for tx in 0..3 {
            let lo = stq::geom::Point::new(
                bb.min.x + bb.width() * tx as f64 / 3.0,
                bb.min.y + bb.height() * ty as f64 / 3.0,
            );
            let hi = stq::geom::Point::new(
                bb.min.x + bb.width() * (tx + 1) as f64 / 3.0,
                bb.min.y + bb.height() * (ty + 1) as f64 / 3.0,
            );
            let q = QueryRegion::from_rect(sensing, stq::geom::Rect::from_corners(lo, hi));
            towers.push(q);
        }
    }
    let historical: Vec<Vec<usize>> = towers.iter().map(|q| q.junctions().to_vec()).collect();

    // Three deployments at comparable cost.
    let cands = sensing.sensor_candidates();
    let m = cands.len() / 6;
    let uniform_ids = sample(SamplingMethod::Uniform, &cands, m, 9);
    let uniform = SampledGraph::from_sensors(
        sensing,
        &uniform_ids.iter().map(|&x| x as usize).collect::<Vec<_>>(),
        Connectivity::Triangulation,
    );
    let quad_ids = sample(SamplingMethod::QuadTree, &cands, m, 9);
    let quadtree = SampledGraph::from_sensors(
        sensing,
        &quad_ids.iter().map(|&x| x as usize).collect::<Vec<_>>(),
        Connectivity::Triangulation,
    );
    let budget = uniform.num_monitored_edges() as f64;
    let submod = SampledGraph::from_submodular(sensing, &historical, budget);

    println!(
        "deployments: uniform {} links | quadtree {} links | submodular {} links",
        uniform.num_monitored_edges(),
        quadtree.num_monitored_edges(),
        submod.num_monitored_edges()
    );

    // Monitor tower loads at four times of day.
    println!("\ntower loads (exact / uniform / quadtree / submodular):");
    let times: Vec<f64> = (1..=4).map(|k| duration * k as f64 / 5.0).collect();
    let mut errs = [0.0f64; 3];
    let mut n_err = 0usize;
    for (ti, q) in towers.iter().enumerate() {
        print!("  tower {ti}: ");
        for &t in &times {
            let kind = QueryKind::Snapshot(t);
            let exact = ground_truth(sensing, &scenario.tracked.store, q, kind);
            let vals: Vec<f64> = [&uniform, &quadtree, &submod]
                .iter()
                .map(|g| {
                    answer(sensing, g, &scenario.tracked.store, q, kind, Approximation::Lower).value
                })
                .collect();
            if exact > 0.0 {
                for (k, v) in vals.iter().enumerate() {
                    errs[k] += (exact - v).abs() / exact;
                }
                n_err += 1;
            }
            print!("{:.0}/{:.0}/{:.0}/{:.0}  ", exact, vals[0], vals[1], vals[2]);
        }
        println!();
    }
    println!("\nmean relative error over {n_err} tower-readings:");
    for (label, e) in ["uniform", "quadtree", "submodular"].iter().zip(errs) {
        println!("  {label:<11} {:.1}%", 100.0 * e / n_err as f64);
    }

    // Communication: perimeter sensors contacted vs flooding every sensor
    // in the tower region (what an axis-aligned in-network system must do).
    let q = &towers[4]; // the central tower
    let out = answer(
        sensing,
        &submod,
        &scenario.tracked.store,
        q,
        QueryKind::Snapshot(times[0]),
        Approximation::Lower,
    );
    let flood = sensing.sensors_in_rect(&q.rect).len();
    println!(
        "\ncentral tower communication: {} perimeter sensors vs {} flooded ({}% saved)",
        out.nodes_accessed,
        flood,
        (100.0 * (1.0 - out.nodes_accessed as f64 / flood.max(1) as f64)).round()
    );

    // Transient counts feed a simple flow dashboard (net user change).
    println!("\nnet user change per tower over the busiest window:");
    let (w0, w1) = (duration * 0.3, duration * 0.6);
    for (ti, q) in towers.iter().enumerate() {
        let net = answer(
            sensing,
            &submod,
            &scenario.tracked.store,
            q,
            QueryKind::Transient(w0, w1),
            Approximation::Lower,
        );
        let exact = ground_truth(sensing, &scenario.tracked.store, q, QueryKind::Transient(w0, w1));
        println!("  tower {ti}: {:+.0} (exact {:+.0})", net.value, exact);
    }

    // Sanity: the nine towers tile the city, so summing exact tower loads
    // gives the city-wide population.
    let all: Vec<usize> = sensing.road().junctions().collect();
    let (all_b, _) = sensing.boundary_walk(&all, None);
    let city = stq::forms::snapshot_count(&scenario.tracked.store, &all_b, times[0]);
    let sum: f64 = towers
        .iter()
        .map(|q| ground_truth(sensing, &scenario.tracked.store, q, QueryKind::Snapshot(times[0])))
        .sum();
    println!("\ncity-wide population {city:.0} vs sum of towers {sum:.0}");
}
