//! Property tests: generated road networks are valid planar cities and
//! generated trajectories are valid timed walks on them.

use proptest::collection::vec;
use proptest::prelude::*;
use stq_mobility::gen::{delaunay_city, highway, perturbed_grid, ring_radial};
use stq_mobility::network::RoadNetwork;
use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};
use stq_planar::paths::dijkstra;

/// Checks `shortest_path(source, target)` (the goal-directed search) against
/// plain Dijkstra over the same adjacency: the path must be a walk from
/// `source` to `target` that avoids `v_ext`, and its length, summed from the
/// source in path order, must be Dijkstra's distance bit for bit. Ties may
/// resolve to a different path of the same length, so only the length is
/// compared.
fn path_matches_dijkstra(
    net: &RoadNetwork,
    source: usize,
    target: usize,
) -> Result<(), TestCaseError> {
    let adj = net.adjacency(f64::INFINITY / 4.0);
    let want = dijkstra(&adj, source).dist[target];
    let Some((verts, edges)) = net.shortest_path(source, target) else {
        prop_assert!(want.is_infinite(), "{source} → {target} missed a path of length {want}");
        return Ok(());
    };
    prop_assert_eq!(verts.first(), Some(&source));
    prop_assert_eq!(verts.last(), Some(&target));
    prop_assert_eq!(verts.len(), edges.len() + 1);
    prop_assert!(!verts.contains(&net.v_ext()));
    for (pair, &e) in verts.windows(2).zip(&edges) {
        prop_assert_eq!(net.edge_between(pair[0], pair[1]), Some(e));
    }
    let got = edges.iter().fold(0.0, |acc, &e| acc + net.edge_length(e));
    prop_assert_eq!(got.to_bits(), want.to_bits(), "{} → {}: {} vs {}", source, target, got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn perturbed_grid_always_valid(nx in 3usize..9, ny in 3usize..9,
                                   jitter in 0.0f64..0.3, drop in 0.0f64..0.5,
                                   ramps in 1usize..8, seed in 0u64..500) {
        let net = perturbed_grid(nx, ny, jitter, drop, ramps, seed).unwrap();
        prop_assert_eq!(net.num_junctions(), nx * ny);
        prop_assert_eq!(net.embedding().euler_characteristic(), 2);
        prop_assert!(!net.gate_junctions().is_empty());
        // Connectivity: opposite corners reachable.
        prop_assert!(net.shortest_path(0, nx * ny - 1).is_some());
    }

    #[test]
    fn delaunay_city_always_valid(n in 10usize..120, drop in 0.0f64..0.4, seed in 0u64..500) {
        let net = delaunay_city(n, drop, 6, seed).unwrap();
        prop_assert_eq!(net.num_junctions(), n);
        prop_assert_eq!(net.embedding().euler_characteristic(), 2);
        // Planar edge bound (ramps included).
        prop_assert!(net.num_edges() <= 3 * (n + 1));
    }

    #[test]
    fn ring_radial_always_valid(rings in 1usize..5, spokes in 3usize..12, seed in 0u64..200) {
        let net = ring_radial(rings, spokes, 4, seed).unwrap();
        prop_assert_eq!(net.num_junctions(), 1 + rings * spokes);
        prop_assert_eq!(net.embedding().euler_characteristic(), 2);
    }

    #[test]
    fn highway_always_valid(n in 2usize..12) {
        let net = highway(n, 2).unwrap();
        prop_assert_eq!(net.num_junctions(), 2 * n);
        prop_assert_eq!(net.embedding().euler_characteristic(), 2);
    }

    #[test]
    fn goal_directed_paths_are_shortest(n in 30usize..300, nx in 3usize..12, rings in 1usize..6,
                                        seed in 0u64..500,
                                        picks in vec((0usize..1 << 20, 0usize..1 << 20), 4)) {
        let cities = [
            delaunay_city(n, 0.2, 6, seed).unwrap(),
            perturbed_grid(nx, nx, 0.25, 0.2, 3, seed).unwrap(),
            ring_radial(rings, 7, 4, seed).unwrap(),
            // Lattice coordinates: equal-length paths tie exactly here, and
            // every length is an integer, so tied paths sum to the same bits.
            highway(nx, 2).unwrap(),
        ];
        for net in &cities {
            let junctions: Vec<usize> = net.junctions().collect();
            for &(a, b) in &picks {
                let pick = |i: usize| junctions[i % junctions.len()];
                path_matches_dijkstra(net, pick(a), pick(b))?;
            }
        }
    }

    #[test]
    fn workloads_are_valid_walks(seed in 0u64..200, n_obj in 1usize..8,
                                 speed in 1.0f64..20.0, exit_p in 0.0f64..1.0) {
        let net = perturbed_grid(5, 5, 0.15, 0.1, 3, seed).unwrap();
        let cfg = TrajectoryConfig {
            speed,
            pause: 10.0,
            duration: 300.0,
            exit_probability: exit_p,
        };
        let mix = WorkloadMix { random_waypoint: n_obj, commuter: n_obj, transit: n_obj };
        for traj in generate_mix(&net, mix, cfg, seed) {
            prop_assert!(traj.validate(&net), "object {} produced an invalid walk", traj.id);
            prop_assert_eq!(traj.visits.first().map(|&(_, v)| v), Some(net.v_ext()));
            // Timestamps within the spawn window and a grace period for the
            // final exit walk.
            prop_assert!(traj.start_time() >= 0.0);
            let end = traj.visits.last().map_or(0.0, |&(t, _)| t);
            prop_assert!(end <= 300.0 + 400.0 / speed + 1.0);
        }
    }
}
