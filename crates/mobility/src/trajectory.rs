//! Moving-object trajectories: timed walks on the road network.
//!
//! A trajectory is the map-matched form the paper's pipeline produces from
//! raw GPS (§5.1.3): a time-ordered sequence of junction arrivals. Every
//! trajectory starts at the external junction `v_ext` and walks in through a
//! gate, so the differential-form population invariant stays exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::{RoadNetwork, Router};
use crate::Time;
use stq_planar::embedding::VertexId;

/// A timed walk over road-network junctions.
///
/// Consecutive visited junctions are adjacent in the network; timestamps are
/// non-decreasing. The first visit is always `(spawn_time, v_ext)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// Distinct object identifier (used only by the test oracle; the
    /// framework itself never stores it).
    pub id: u64,
    /// Junction arrivals `(time, junction)` in time order.
    pub visits: Vec<(Time, VertexId)>,
}

impl Trajectory {
    /// Number of junction arrivals.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// True when the trajectory has no visits.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Time of the first visit.
    pub fn start_time(&self) -> Time {
        self.visits.first().map(|&(t, _)| t).unwrap_or(0.0)
    }

    /// Time of the last visit.
    pub fn end_time(&self) -> Time {
        self.visits.last().map(|&(t, _)| t).unwrap_or(0.0)
    }

    /// Total travelled distance (sum of traversed edge lengths).
    pub fn distance(&self, net: &RoadNetwork) -> f64 {
        self.visits
            .windows(2)
            .map(|w| net.edge_between(w[0].1, w[1].1).map(|e| net.edge_length(e)).unwrap_or(0.0))
            .sum()
    }

    /// Validates internal consistency against the network: adjacency of
    /// consecutive junctions and monotone timestamps.
    pub fn validate(&self, net: &RoadNetwork) -> bool {
        self.visits.windows(2).all(|w| {
            w[0].0 <= w[1].0 && (w[0].1 == w[1].1 || net.edge_between(w[0].1, w[1].1).is_some())
        })
    }
}

/// Shared trajectory-generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrajectoryConfig {
    /// Travel speed in distance units per second.
    pub speed: f64,
    /// Dwell time at each waypoint before the next trip.
    pub pause: Time,
    /// Simulation horizon: activity happens within `[0, duration]`.
    pub duration: Time,
    /// Probability that an object eventually exits through a gate instead of
    /// staying until the horizon.
    pub exit_probability: f64,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig { speed: 10.0, pause: 60.0, duration: 86_400.0, exit_probability: 0.3 }
    }
}

/// Composition of the synthetic workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadMix {
    /// Objects doing uniform random-waypoint trips.
    pub random_waypoint: usize,
    /// Objects whose destinations skew towards hotspots (commuters/taxis).
    pub commuter: usize,
    /// Objects crossing border-to-border (through traffic).
    pub transit: usize,
}

impl WorkloadMix {
    /// Total number of objects.
    pub fn total(&self) -> usize {
        self.random_waypoint + self.commuter + self.transit
    }
}

/// Generates a full workload: `mix` objects with the given config,
/// deterministic under `seed`. Hotspots for the commuter share are drawn
/// once from the network extent.
///
/// Every trip is one shortest-path query, answered by one goal-directed
/// search that all trips share (`Router`): its bound is the straight-line
/// distance to the trip's destination, which never exceeds a road path's
/// length because every road weighs its segment length. On generic city
/// coordinates shortest paths are unique, so the search returns the path
/// plain Dijkstra would, and visit times are summed from `edge_length`, not
/// from the search's distances: the trajectories are the ones an
/// exhaustive search gives, bit for bit, after settling a fraction of the
/// junctions.
pub fn generate_mix(
    net: &RoadNetwork,
    mix: WorkloadMix,
    cfg: TrajectoryConfig,
    seed: u64,
) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut router = Router::new(net);
    let junctions: Vec<VertexId> = net.junctions().collect();
    let bbox = net.bbox();
    let n_hot = 3.max(net.num_junctions() / 300);
    let hotspots: Vec<(stq_geom::Point, f64)> = (0..n_hot)
        .map(|_| {
            let p = stq_geom::Point::new(
                rng.gen_range(bbox.min.x..=bbox.max.x),
                rng.gen_range(bbox.min.y..=bbox.max.y),
            );
            (p, bbox.width().max(bbox.height()) * 0.1)
        })
        .collect();
    let hot_cumulative = hotspot_cumulative(net, &hotspots);

    let mut out = Vec::with_capacity(mix.total());
    let mut id = 0u64;
    for _ in 0..mix.random_waypoint {
        out.push(random_waypoint(net, &mut router, &junctions, id, cfg, None, &mut rng));
        id += 1;
    }
    let hot = Some(hot_cumulative.as_slice());
    for _ in 0..mix.commuter {
        out.push(random_waypoint(net, &mut router, &junctions, id, cfg, hot, &mut rng));
        id += 1;
    }
    for _ in 0..mix.transit {
        out.push(transit(net, &mut router, id, cfg, &mut rng));
        id += 1;
    }
    out
}

/// Running sums of the junction sampling weights, a Gaussian mixture around
/// hotspots: entry `v` is the weight of every vertex up to and including
/// `v` (`v_ext` weighs 0), added left to right.
fn hotspot_cumulative(net: &RoadNetwork, hotspots: &[(stq_geom::Point, f64)]) -> Vec<f64> {
    let n = net.embedding().num_vertices();
    let mut w = vec![0.0; n];
    for v in net.junctions() {
        let p = net.position(v);
        let mut acc = 0.05; // uniform floor
        for &(c, sigma) in hotspots {
            let d2 = p.dist2(c);
            acc += (-d2 / (2.0 * sigma * sigma)).exp();
        }
        w[v] = acc;
    }
    let mut total = 0.0;
    for x in &mut w {
        total += *x;
        *x = total;
    }
    w
}

/// Index `i` with probability proportional to its weight, given the running
/// sums `cumulative` of the weights: the first whose running sum reaches the
/// draw. The draw never exceeds the last sum, so the index is in range.
fn sample_weighted(cumulative: &[f64], rng: &mut StdRng) -> usize {
    let total = *cumulative.last().expect("the network has junctions");
    let x = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c < x)
}

/// Walks the object in from `v_ext` to `start` instantaneously at `t`,
/// returning the visit prefix.
fn entry_walk(
    net: &RoadNetwork,
    router: &mut Router,
    start: VertexId,
    t: Time,
    rng: &mut StdRng,
) -> Vec<(Time, VertexId)> {
    let gates = net.gate_junctions();
    let gate = gates[rng.gen_range(0..gates.len())];
    let mut visits = vec![(t, net.v_ext()), (t, gate)];
    if gate != start {
        if let Some((verts, _)) = router.path(gate, start) {
            visits.extend(verts.into_iter().skip(1).map(|v| (t, v)));
        }
    }
    visits
}

/// Random-waypoint trajectory over `junctions`; with `cumulative` (running
/// weight sums), destinations are sampled from the hotspot mixture instead
/// of uniformly.
fn random_waypoint(
    net: &RoadNetwork,
    router: &mut Router,
    junctions: &[VertexId],
    id: u64,
    cfg: TrajectoryConfig,
    cumulative: Option<&[f64]>,
    rng: &mut StdRng,
) -> Trajectory {
    let pick = |rng: &mut StdRng| -> VertexId {
        match cumulative {
            Some(c) => sample_weighted(c, rng),
            None => junctions[rng.gen_range(0..junctions.len())],
        }
    };
    let spawn = rng.gen_range(0.0..cfg.duration * 0.5);
    let start = pick(rng);
    let mut visits = entry_walk(net, router, start, spawn, rng);
    let mut now = spawn;
    let mut here = start;

    loop {
        now += cfg.pause;
        if now >= cfg.duration {
            break;
        }
        let dest = pick(rng);
        if dest == here {
            continue;
        }
        let Some((verts, edges)) = router.path(here, dest) else { continue };
        for (v, e) in verts.into_iter().skip(1).zip(edges) {
            now += net.edge_length(e) / cfg.speed;
            visits.push((now, v));
            if now >= cfg.duration {
                break;
            }
        }
        here = visits.last().unwrap().1;
        if now >= cfg.duration {
            break;
        }
        if rng.gen_bool(cfg.exit_probability * 0.2) {
            // Leave through the nearest gate.
            let gates = net.gate_junctions();
            let gate = gates[rng.gen_range(0..gates.len())];
            if let Some((verts, edges)) = router.path(here, gate) {
                for (v, e) in verts.into_iter().skip(1).zip(edges) {
                    now += net.edge_length(e) / cfg.speed;
                    visits.push((now, v));
                }
                visits.push((now, net.v_ext()));
            }
            break;
        }
    }
    Trajectory { id, visits }
}

/// Border-to-border transit: enter a random gate, drive to a different gate,
/// exit. Models through traffic.
fn transit(
    net: &RoadNetwork,
    router: &mut Router,
    id: u64,
    cfg: TrajectoryConfig,
    rng: &mut StdRng,
) -> Trajectory {
    let gates = net.gate_junctions();
    let spawn = rng.gen_range(0.0..cfg.duration * 0.8);
    let a = gates[rng.gen_range(0..gates.len())];
    let b = loop {
        let g = gates[rng.gen_range(0..gates.len())];
        if g != a || gates.len() == 1 {
            break g;
        }
    };
    let mut visits = vec![(spawn, net.v_ext()), (spawn, a)];
    let mut now = spawn;
    if let Some((verts, edges)) = router.path(a, b) {
        for (v, e) in verts.into_iter().skip(1).zip(edges) {
            now += net.edge_length(e) / cfg.speed;
            visits.push((now, v));
        }
    }
    visits.push((now, net.v_ext()));
    Trajectory { id, visits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::perturbed_grid;

    fn test_net() -> RoadNetwork {
        perturbed_grid(6, 6, 0.15, 0.1, 4, 11).unwrap()
    }

    fn small_cfg() -> TrajectoryConfig {
        TrajectoryConfig { speed: 5.0, pause: 10.0, duration: 500.0, exit_probability: 0.5 }
    }

    #[test]
    fn mix_generates_requested_counts() {
        let net = test_net();
        let mix = WorkloadMix { random_waypoint: 5, commuter: 4, transit: 3 };
        let trajs = generate_mix(&net, mix, small_cfg(), 99);
        assert_eq!(trajs.len(), 12);
        // Ids are distinct.
        let mut ids: Vec<u64> = trajs.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn trajectories_are_valid_walks() {
        let net = test_net();
        let mix = WorkloadMix { random_waypoint: 10, commuter: 10, transit: 10 };
        for t in generate_mix(&net, mix, small_cfg(), 5) {
            assert!(t.validate(&net), "invalid walk for object {}", t.id);
            assert_eq!(t.visits[0].1, net.v_ext(), "must start outside");
            assert!(t.len() >= 2);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let net = test_net();
        let mix = WorkloadMix { random_waypoint: 3, commuter: 3, transit: 3 };
        let a = generate_mix(&net, mix, small_cfg(), 42);
        let b = generate_mix(&net, mix, small_cfg(), 42);
        assert_eq!(a, b);
        let c = generate_mix(&net, mix, small_cfg(), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn transit_exits_through_ext() {
        let net = test_net();
        let mix = WorkloadMix { random_waypoint: 0, commuter: 0, transit: 8 };
        for t in generate_mix(&net, mix, small_cfg(), 17) {
            assert_eq!(t.visits.first().unwrap().1, net.v_ext());
            assert_eq!(t.visits.last().unwrap().1, net.v_ext());
            assert!(t.validate(&net));
        }
    }

    #[test]
    fn times_respect_speed() {
        let net = test_net();
        let cfg = small_cfg();
        let mix = WorkloadMix { random_waypoint: 5, commuter: 0, transit: 0 };
        for t in generate_mix(&net, mix, cfg, 3) {
            for w in t.visits.windows(2) {
                if let Some(e) = net.edge_between(w[0].1, w[1].1) {
                    let dt = w[1].0 - w[0].0;
                    let travel = net.edge_length(e) / cfg.speed;
                    // Entry walks are instantaneous; moving legs take at
                    // least the travel time (pauses may inflate dt).
                    assert!(
                        dt + 1e-9 >= travel || w[0].0 == t.start_time(),
                        "leg faster than speed limit"
                    );
                }
            }
        }
    }

    #[test]
    fn hotspot_commuters_skew_density() {
        // Commuter destinations concentrate: the most-visited junction of
        // the commuter workload should collect clearly more visits than the
        // median junction.
        let net = test_net();
        let mix = WorkloadMix { random_waypoint: 0, commuter: 30, transit: 0 };
        let trajs = generate_mix(&net, mix, small_cfg(), 23);
        let mut visits = vec![0usize; net.embedding().num_vertices()];
        for t in &trajs {
            for &(_, v) in &t.visits {
                visits[v] += 1;
            }
        }
        let mut sorted: Vec<usize> = net.junctions().map(|v| visits[v]).collect();
        sorted.sort_unstable();
        let max = *sorted.last().unwrap();
        let median = sorted[sorted.len() / 2];
        assert!(max >= median * 2, "expected skew, max={max} median={median}");
    }
}
