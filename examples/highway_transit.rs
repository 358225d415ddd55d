//! The double-counting problem, demonstrated (paper §3.1.2).
//!
//! A vehicle drives along a highway, exits at a ramp, takes the service
//! road, and re-enters at the next interchange — repeatedly. A naive
//! counter that increments on every entry reports it several times; the
//! paired incoming/outgoing tracking forms cancel re-entries and report the
//! distinct count, with no vehicle identifier ever stored.
//!
//! ```sh
//! cargo run --release -p stq --example highway_transit
//! ```

use stq::core::prelude::*;
use stq::forms::{gross_flow, snapshot_count};
use stq::mobility::gen::highway;
use stq::mobility::Trajectory;

fn main() {
    // A 6-interchange highway: junctions 0..6 on the highway, 6..12 on the
    // parallel service road, ramps at both ends of the corridor.
    let n = 6;
    let road = highway(n, 2).expect("highway generation");
    let sensing = SensingGraph::new(road);
    let v_ext = sensing.road().v_ext();
    let gates = sensing.road().gate_junctions();

    // The monitored region: the highway lanes only (junctions 0..n).
    let region: Vec<usize> = (0..n).collect();

    // One weaving vehicle: enters the highway, hops off at each interchange
    // onto the service road, and back on at the next one.
    let mut visits = vec![(0.0, v_ext), (0.0, gates[0])];
    let mut t = 0.0;
    // Walk from the gate onto highway junction 0 if the gate is elsewhere.
    if gates[0] != 0 {
        let (path, _) = sensing.road().shortest_path(gates[0], 0).expect("path to highway");
        for &v in path.iter().skip(1) {
            visits.push((t, v));
        }
    }
    for i in 0..n - 1 {
        t += 10.0;
        visits.push((t, n + i)); // exit to service road
        t += 10.0;
        visits.push((t, n + i + 1)); // drive along service road
        t += 10.0;
        visits.push((t, i + 1)); // re-enter the highway
    }
    let weaving = Trajectory { id: 1, visits };
    assert!(weaving.validate(sensing.road()), "weaving trajectory must be a road walk");

    // A second vehicle that just stays on the highway.
    let mut visits2 = vec![(0.0, v_ext), (0.0, gates[0])];
    if gates[0] != 0 {
        let (path, _) = sensing.road().shortest_path(gates[0], 0).expect("path");
        for &v in path.iter().skip(1) {
            visits2.push((0.0, v));
        }
    }
    for (k, j) in (1..n).enumerate() {
        visits2.push((5.0 + 30.0 * k as f64, j));
    }
    let steady = Trajectory { id: 2, visits: visits2 };
    assert!(steady.validate(sensing.road()));

    let tracked = ingest(&sensing, &[weaving, steady]);
    let (boundary, _) = sensing.boundary_walk(&region, None);
    let t_end = t + 10.0;

    // Naive counting: every boundary entry increments, exits ignored.
    let (entries, exits) = gross_flow(&tracked.store, &boundary, -1.0, t_end);
    let naive = entries;

    // Differential forms: entries minus exits (Theorem 4.1).
    let forms = snapshot_count(&tracked.store, &boundary, t_end);
    let oracle = tracked.oracle.snapshot_count(&|j| region.contains(&j), t_end);

    println!("highway with {n} interchanges; region = highway lanes only\n");
    println!("gross boundary entries (naive count): {naive:.0}");
    println!("gross boundary exits:                 {exits:.0}");
    println!("differential-form count (no IDs):     {forms:.0}");
    println!("oracle distinct count (with IDs):     {oracle}");
    assert_eq!(forms, oracle as f64, "forms must match the oracle exactly");
    assert!(naive > forms, "the naive counter must overcount the weaving vehicle");
    println!(
        "\nthe weaving vehicle was naively counted {:.0}x; the paired ξ⁺/ξ⁻ forms cancel \
         every exit/re-entry without storing identifiers.",
        naive - 1.0
    );

    // Timeline of the highway population.
    println!("\nhighway population over time (forms vs oracle):");
    for k in 0..=8 {
        let tk = t_end * k as f64 / 8.0;
        let f = snapshot_count(&tracked.store, &boundary, tk);
        let o = tracked.oracle.snapshot_count(&|j| region.contains(&j), tk);
        println!("  t={tk:>6.1}  forms={f:.0}  oracle={o}");
        assert_eq!(f, o as f64);
    }

    // Transient count over the weaving window: net change (Theorem 4.3).
    let net = stq::forms::transient_count(&tracked.store, &boundary, 1.0, t_end);
    println!("\nnet change over the weaving window: {net:+.0}");
}
