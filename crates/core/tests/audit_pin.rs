//! The sensor audit, pinned. At a fixed seed an audit verdict is a pure
//! function of its inputs, so a small table of what audit → repair →
//! quarantine does on seeds 11 / 23 / 37 must equal `audit_pin.txt` byte for
//! byte. Any change to the audit re-cuts the table, and the diff of the
//! committed file shows what moved.
//!
//! Rows: seed × {no fault, one dead link, 1 % dead, 10 % dead} plus one
//! cocktail (dead + duplicating + flipped + skewed). Columns:
//! - `monitored`: links carrying a sensor;
//! - `injected`: links the fault plan corrupts;
//! - `flagged`: links the first audit flags (`Suspect` or `Dead`);
//! - `fp`: flagged links that were not injected;
//! - `recall`: injected links that were flagged, over injected;
//! - `quarantined`: links still flagged after repair, which demotion drops;
//! - `components`: components before → after demotion.

use stq_core::prelude::*;
use stq_net::{SensorFaultMix, SensorFaultPlan};
use stq_sampling::SamplingMethod;

const PINNED: &str = include_str!("audit_pin.txt");

/// `stq audit`'s pipeline at a small scale: a 150-junction city, 30 objects,
/// 30 % of the sensor candidates deployed by the quad-tree sampler.
fn deployment(seed: u64) -> (Scenario, SampledGraph) {
    let s = Scenario::build(ScenarioConfig {
        junctions: 150,
        mix: WorkloadMix { random_waypoint: 10, commuter: 10, transit: 10 },
        seed,
        ..Default::default()
    });
    let cands = s.sensing.sensor_candidates();
    let m = ((cands.len() as f64 * 0.3).round() as usize).clamp(3, cands.len());
    let ids = stq_sampling::sample(SamplingMethod::QuadTree, &cands, m, seed ^ 0x5a);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
    (s, g)
}

fn row(s: &Scenario, g: &SampledGraph, seed: u64, label: &str, mix: SensorFaultMix) -> String {
    let horizon = (0.0, s.config.trajectory.duration);
    let monitored: Vec<usize> = (0..s.sensing.num_edges()).filter(|&e| g.monitored()[e]).collect();
    let plan = SensorFaultPlan::generate(seed ^ 0xA0D1, &monitored, horizon, mix);
    let injected = plan.corrupted_edges();
    let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);
    let out = quarantine_and_repair(&s.sensing, g, &mut tracked.store);
    let flagged = out.initial.flagged();
    let fp = flagged.iter().filter(|e| !injected.contains(e)).count();
    let caught = injected.iter().filter(|e| flagged.contains(e)).count();
    format!(
        "{seed:>4} | {label:<8} | {:>9} | {:>8} | {:>7} | {fp:>4} | {:>7} | {:>11} | {:>4} → {}",
        monitored.len(),
        injected.len(),
        flagged.len(),
        format!("{caught}/{}", injected.len()),
        out.quarantined.len(),
        g.components().len(),
        out.graph.components().len(),
    )
}

fn table() -> String {
    let mut lines = vec![format!(
        "{:>4} | {:<8} | {:>9} | {:>8} | {:>7} | {:>4} | {:>7} | {:>11} | components",
        "seed", "faults", "monitored", "injected", "flagged", "fp", "recall", "quarantined"
    )];
    for seed in [11u64, 23, 37] {
        let (s, g) = deployment(seed);
        let n = g.num_monitored_edges() as f64;
        let cocktail = SensorFaultMix {
            dead: 0.05,
            duplicating: 0.02,
            flipped: 0.02,
            skewed: 0.02,
            lossy: 0.0,
        };
        for (label, mix) in [
            ("none", SensorFaultMix::none()),
            ("dead 1", SensorFaultMix::dead_only(1.0 / n)),
            ("dead 1%", SensorFaultMix::dead_only(0.01)),
            ("dead 10%", SensorFaultMix::dead_only(0.1)),
            ("cocktail", cocktail),
        ] {
            lines.push(row(&s, &g, seed, label, mix));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn the_audit_table_is_pinned() {
    let got = table();
    assert!(
        got == PINNED,
        "the audit table moved; if the change is meant, replace \
         crates/core/tests/audit_pin.txt with:\n{got}"
    );
}
