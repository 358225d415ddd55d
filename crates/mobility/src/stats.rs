//! Workload statistics: edge loads, origin–destination structure, and
//! population curves. Used by the experiment harness for sanity reporting
//! and by the query-adaptive weighting of §4.3 ("the number of times each
//! node appeared in previous queries" generalizes to load-weighted
//! selection).

use crate::network::RoadNetwork;
use crate::trajectory::Trajectory;
use crate::Time;

/// Aggregate statistics over a trajectory workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadStats {
    /// Traversal count per road edge (both directions pooled).
    pub edge_load: Vec<usize>,
    /// Visits per junction.
    pub junction_visits: Vec<usize>,
    /// Total distance travelled by all objects.
    pub total_distance: f64,
    /// Number of objects that exited through a gate.
    pub exited: usize,
    /// Number of trajectories analysed.
    pub objects: usize,
}

impl WorkloadStats {
    /// Computes statistics for a workload.
    pub fn compute(net: &RoadNetwork, trajectories: &[Trajectory]) -> Self {
        let mut stats = WorkloadStats {
            edge_load: vec![0; net.num_edges()],
            junction_visits: vec![0; net.embedding().num_vertices()],
            ..Default::default()
        };
        stats.objects = trajectories.len();
        for traj in trajectories {
            for &(_, v) in &traj.visits {
                stats.junction_visits[v] += 1;
            }
            for w in traj.visits.windows(2) {
                if let Some(e) = net.edge_between(w[0].1, w[1].1) {
                    stats.edge_load[e] += 1;
                    stats.total_distance += net.edge_length(e);
                }
            }
            if traj.visits.len() >= 2 && traj.visits.last().map(|&(_, v)| v) == Some(net.v_ext()) {
                stats.exited += 1;
            }
        }
        stats
    }

    /// Gini coefficient of the edge-load distribution — 0 for perfectly
    /// uniform traffic, → 1 for traffic concentrated on few roads. Real
    /// city traffic is strongly concentrated; the hotspot commuter model
    /// exists to reproduce that skew.
    pub fn edge_load_gini(&self) -> f64 {
        let mut loads: Vec<f64> = self.edge_load.iter().map(|&l| l as f64).collect();
        loads.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = loads.len() as f64;
        let total: f64 = loads.iter().sum();
        if total <= 0.0 || n < 2.0 {
            return 0.0;
        }
        let weighted: f64 = loads.iter().enumerate().map(|(i, &l)| (i as f64 + 1.0) * l).sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }
}

/// Population inside the network over time: objects present at each sample
/// instant (computed from the trajectories directly; the differential-form
/// machinery is certified against this in integration tests).
pub fn population_curve(
    net: &RoadNetwork,
    trajectories: &[Trajectory],
    samples: usize,
    horizon: Time,
) -> Vec<(Time, usize)> {
    (0..samples)
        .map(|k| {
            let t = horizon * k as f64 / (samples.max(2) - 1) as f64;
            let inside = trajectories
                .iter()
                .filter(|traj| {
                    let idx = traj.visits.partition_point(|&(ts, _)| ts <= t);
                    idx > 0 && traj.visits[idx - 1].1 != net.v_ext()
                })
                .count();
            (t, inside)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::perturbed_grid;
    use crate::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};

    fn setup() -> (RoadNetwork, Vec<Trajectory>) {
        let net = perturbed_grid(6, 6, 0.1, 0.1, 4, 77).unwrap();
        let cfg =
            TrajectoryConfig { speed: 5.0, pause: 20.0, duration: 800.0, exit_probability: 0.5 };
        let mix = WorkloadMix { random_waypoint: 10, commuter: 10, transit: 10 };
        let trajs = generate_mix(&net, mix, cfg, 3);
        (net, trajs)
    }

    #[test]
    fn stats_account_every_leg() {
        let (net, trajs) = setup();
        let stats = WorkloadStats::compute(&net, &trajs);
        assert_eq!(stats.objects, 30);
        let total_legs: usize = stats.edge_load.iter().sum();
        let expected: usize =
            trajs.iter().map(|t| t.visits.windows(2).filter(|w| w[0].1 != w[1].1).count()).sum();
        assert_eq!(total_legs, expected);
        assert!(stats.total_distance > 0.0);
        // All transit objects exit.
        assert!(stats.exited >= 10);
    }

    #[test]
    fn commuter_load_more_skewed_than_uniform() {
        let net = perturbed_grid(8, 8, 0.1, 0.1, 4, 5).unwrap();
        let cfg =
            TrajectoryConfig { speed: 5.0, pause: 10.0, duration: 1500.0, exit_probability: 0.0 };
        let uni = generate_mix(
            &net,
            WorkloadMix { random_waypoint: 40, commuter: 0, transit: 0 },
            cfg,
            9,
        );
        let hot = generate_mix(
            &net,
            WorkloadMix { random_waypoint: 0, commuter: 40, transit: 0 },
            cfg,
            9,
        );
        let g_uni = WorkloadStats::compute(&net, &uni).edge_load_gini();
        let g_hot = WorkloadStats::compute(&net, &hot).edge_load_gini();
        assert!(
            g_hot > g_uni,
            "hotspot traffic must concentrate load: uniform {g_uni:.3} vs hotspot {g_hot:.3}"
        );
    }

    #[test]
    fn population_curve_bounds() {
        let (net, trajs) = setup();
        let curve = population_curve(&net, &trajs, 10, 800.0);
        assert_eq!(curve.len(), 10);
        for (t, pop) in &curve {
            assert!(*t >= 0.0 && *t <= 800.0);
            assert!(*pop <= trajs.len());
        }
        // Someone is inside at some point.
        assert!(curve.iter().any(|&(_, p)| p > 0));
    }

    #[test]
    fn gini_of_empty_and_uniform() {
        let stats = WorkloadStats { edge_load: vec![0; 10], ..Default::default() };
        assert_eq!(stats.edge_load_gini(), 0.0);
        let uniform = WorkloadStats { edge_load: vec![5; 10], ..Default::default() };
        assert!(uniform.edge_load_gini().abs() < 1e-9);
    }
}
