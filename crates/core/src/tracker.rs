//! Ingestion: trajectories → crossing events → tracking forms.
//!
//! Vertex–edge duality (paper §4.7.1): an object traversing road edge
//! `(u, v)` crosses that edge's dual sensing link, leaving junction cell `u`
//! and entering junction cell `v`. The tracker converts timed junction walks
//! into per-edge directed crossing events, globally time-sorted so each
//! sensor's log stays monotone, and feeds both the identifier-free
//! [`FormStore`] and (optionally) the test oracle.

use crate::sensing::SensingGraph;
use stq_forms::{FormStore, OracleTracker, Time, TrackingForm};
use stq_mobility::Trajectory;
use stq_net::SensorFaultPlan;

/// One directed crossing event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Crossing {
    /// When the crossing happened.
    pub time: Time,
    /// The road edge crossed (= dual sensing link id).
    pub edge: usize,
    /// True when traversed tail → head (the edge's construction direction).
    pub forward: bool,
}

impl Crossing {
    /// Bytes of the wire encoding: `edge u64 LE + flags u8 + time bits u64 LE`.
    pub const ENCODED_LEN: usize = 17;

    /// Serializes into `out` (exactly [`Self::ENCODED_LEN`] bytes). The time
    /// is stored as raw `f64` bits, so a decode is bit-identical — the
    /// property crash recovery needs to rebuild byte-identical state.
    pub fn encode_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), Self::ENCODED_LEN);
        out[0..8].copy_from_slice(&(self.edge as u64).to_le_bytes());
        out[8] = self.forward as u8;
        out[9..17].copy_from_slice(&self.time.to_bits().to_le_bytes());
    }

    /// Decodes an [`Self::encode_into`] image. Returns `None` for a wrong
    /// length, an out-of-range flag byte, or a non-finite time — all
    /// impossible in records this crate wrote, hence evidence of corruption.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let edge = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let forward = match bytes[8] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let time = f64::from_bits(u64::from_le_bytes(bytes[9..17].try_into().unwrap()));
        if !time.is_finite() || usize::try_from(edge).is_err() {
            return None;
        }
        Some(Crossing { time, edge: edge as usize, forward })
    }
}

/// Extracts the crossing events of one trajectory.
///
/// # Panics
/// If consecutive visited junctions are not adjacent in the network (the
/// trajectory is not a valid walk).
pub fn crossings_of(sensing: &SensingGraph, traj: &Trajectory) -> Vec<Crossing> {
    let road = sensing.road();
    let mut out = Vec::with_capacity(traj.visits.len().saturating_sub(1));
    for w in traj.visits.windows(2) {
        let (_, u) = w[0];
        let (t, v) = w[1];
        if u == v {
            continue;
        }
        let edge = road
            .edge_between(u, v)
            .unwrap_or_else(|| panic!("trajectory step {u}→{v} is not a road"));
        out.push(Crossing { time: t, edge, forward: road.is_forward_from(edge, u) });
    }
    out
}

/// The ingestion result: the exact form store plus the oracle ground truth.
#[derive(Debug)]
pub struct Tracked {
    /// Identifier-free per-edge crossing logs (what real sensors hold).
    pub store: FormStore,
    /// Identifier-based ground truth (tests/benchmarks only).
    pub oracle: OracleTracker,
    /// Number of crossing events ingested.
    pub num_crossings: usize,
}

/// Ingests a workload of trajectories.
///
/// Events are globally sorted by time (ties broken by input order) before
/// being appended to each edge's log, matching the monotone-append contract
/// of physical sensors.
pub fn ingest(sensing: &SensingGraph, trajectories: &[Trajectory]) -> Tracked {
    let mut events: Vec<Crossing> = Vec::new();
    for traj in trajectories {
        events.extend(crossings_of(sensing, traj));
    }
    events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());

    let mut store = FormStore::new(sensing.num_edges());
    for c in &events {
        store.record(c.edge, c.forward, c.time);
    }

    let mut oracle = OracleTracker::new();
    for traj in trajectories {
        for &(t, j) in &traj.visits {
            oracle.record_arrival(traj.id, j, t);
        }
    }

    Tracked { store, oracle, num_crossings: events.len() }
}

/// Ingests a workload through faulty sensors.
///
/// Each crossing passes through `plan.corrupt` *before* being logged, so the
/// resulting [`FormStore`] really contains corrupted data: dead sensors leave
/// gaps, lossy ones miss events, duplicating ones log twice, flipped ones
/// swap direction, and skewed clocks produce out-of-order timestamps. The
/// sensor writes its log in true-event order (it cannot sort by a clock it
/// does not trust), so skew shows up as non-monotone sequences — exactly the
/// signature the integrity auditor looks for. The oracle is built from the
/// trajectories themselves and stays exact: it is the ground truth faulty
/// serving is judged against.
pub fn ingest_with_faults(
    sensing: &SensingGraph,
    trajectories: &[Trajectory],
    plan: &SensorFaultPlan,
) -> Tracked {
    let mut events: Vec<Crossing> = Vec::new();
    for traj in trajectories {
        events.extend(crossings_of(sensing, traj));
    }
    events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());

    // Per-edge raw sequences, appended in arrival order. Healthy edges end
    // up monotone exactly as `ingest` would produce; corrupted ones don't.
    let mut fwd: Vec<Vec<Time>> = vec![Vec::new(); sensing.num_edges()];
    let mut bwd: Vec<Vec<Time>> = vec![Vec::new(); sensing.num_edges()];
    let mut ordinal = vec![0u64; sensing.num_edges()];
    let mut recorded = 0usize;
    for c in &events {
        let fate = plan.corrupt(c.edge, c.forward, c.time, ordinal[c.edge]);
        ordinal[c.edge] += 1;
        for (forward, t) in fate.event.into_iter().chain(fate.extra) {
            let seq = if forward { &mut fwd[c.edge] } else { &mut bwd[c.edge] };
            seq.push(t);
            recorded += 1;
        }
    }
    let mut store = FormStore::new(sensing.num_edges());
    for e in 0..sensing.num_edges() {
        store.set_form(
            e,
            TrackingForm::from_sequences(std::mem::take(&mut fwd[e]), std::mem::take(&mut bwd[e])),
        );
    }

    let mut oracle = OracleTracker::new();
    for traj in trajectories {
        for &(t, j) in &traj.visits {
            oracle.record_arrival(traj.id, j, t);
        }
    }

    Tracked { store, oracle, num_crossings: recorded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_forms::{snapshot_count, transient_count};
    use stq_mobility::gen::perturbed_grid;
    use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};

    fn setup() -> (SensingGraph, Tracked) {
        let net = perturbed_grid(6, 6, 0.15, 0.1, 4, 5).unwrap();
        let sensing = SensingGraph::new(net);
        let cfg =
            TrajectoryConfig { speed: 4.0, pause: 15.0, duration: 2_000.0, exit_probability: 0.4 };
        let mix = WorkloadMix { random_waypoint: 12, commuter: 8, transit: 6 };
        let trajs = generate_mix(sensing.road(), mix, cfg, 31);
        let tracked = ingest(&sensing, &trajs);
        (sensing, tracked)
    }

    /// The central exactness theorem: on the fully monitored graph, the
    /// identifier-free snapshot equals the identifier-based oracle count for
    /// arbitrary regions and times.
    #[test]
    fn forms_match_oracle_snapshots() {
        let (sensing, tracked) = setup();
        let all: Vec<usize> = sensing.road().junctions().collect();
        for (i, region) in all.chunks(7).enumerate() {
            let (boundary, _) = sensing.boundary_walk(region, None);
            for &t in &[0.0, 250.0, 900.0, 1500.0, 2500.0] {
                let formed = snapshot_count(&tracked.store, &boundary, t);
                let truth = tracked.oracle.snapshot_count(&|j| region.contains(&j), t) as f64;
                assert_eq!(formed, truth, "region #{i} at t={t}");
            }
        }
    }

    #[test]
    fn forms_match_oracle_transient() {
        let (sensing, tracked) = setup();
        let region: Vec<usize> = sensing.road().junctions().take(9).collect();
        let (boundary, _) = sensing.boundary_walk(&region, None);
        for &(t0, t1) in &[(0.0, 500.0), (100.0, 1200.0), (800.0, 2000.0)] {
            let formed = transient_count(&tracked.store, &boundary, t0, t1);
            let truth = tracked.oracle.transient_count(&|j| region.contains(&j), t0, t1) as f64;
            assert_eq!(formed, truth, "window [{t0},{t1}]");
        }
    }

    #[test]
    fn crossing_extraction_is_consistent() {
        let (_sensing, tracked) = setup();
        assert!(tracked.num_crossings > 0);
        assert_eq!(tracked.store.total_events(), tracked.num_crossings);
    }

    #[test]
    fn whole_domain_population_balances() {
        // Region = every junction: the only boundary edges are the ramps, so
        // the count equals objects currently inside the network.
        let (sensing, tracked) = setup();
        let region: Vec<usize> = sensing.road().junctions().collect();
        let (boundary, _) = sensing.boundary_walk(&region, None);
        for be in &boundary {
            assert!(sensing.road().ramps().contains(&be.edge));
        }
        let t = 1_000.0;
        let formed = snapshot_count(&tracked.store, &boundary, t);
        let truth = tracked.oracle.snapshot_count(&|j| region.contains(&j), t) as f64;
        assert_eq!(formed, truth);
        assert!(formed >= 0.0);
    }

    #[test]
    #[should_panic(expected = "not a road")]
    fn invalid_walk_panics() {
        let (sensing, _) = setup();
        let bad = Trajectory { id: 9, visits: vec![(0.0, 0), (1.0, 35)] };
        let _ = crossings_of(&sensing, &bad);
    }
}
