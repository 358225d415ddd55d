//! Pinned workloads: `generate_mix` must keep producing these exact
//! trajectories. Each digest covers every `(id, time bits, junction)` of a
//! small mix on a 600-junction Delaunay city; the values were computed with
//! the plain-Dijkstra search that preceded the goal-directed one, so a
//! search change that moves a single visit time by one ulp fails here.

use stq_mobility::gen::delaunay_city;
use stq_mobility::trajectory::{generate_mix, Trajectory, TrajectoryConfig, WorkloadMix};

/// FNV-1a over the little-endian bytes of every `(id, time bits, junction)`.
fn digest(trajectories: &[Trajectory]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in trajectories {
        for &(time, v) in &t.visits {
            for word in [t.id, time.to_bits(), v as u64] {
                for b in word.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

#[test]
fn generate_mix_digests_are_pinned() {
    let cfg =
        TrajectoryConfig { speed: 12.0, pause: 40.0, duration: 5_000.0, exit_probability: 0.05 };
    let mix = WorkloadMix { random_waypoint: 20, commuter: 20, transit: 10 };
    let pinned: [(u64, u64, usize); 3] = [
        (11, 0x4ddc_329d_f96d_8cdb, 26_641),
        (23, 0x538e_c956_6694_218f, 26_007),
        (37, 0x1753_6ee6_1cc3_f45a, 30_133),
    ];
    for (seed, want, visits) in pinned {
        let net = delaunay_city(600, 0.18, 10, seed).expect("city");
        let trajectories = generate_mix(&net, mix, cfg, seed ^ 0x5eed);
        let visits_got = trajectories.iter().map(Trajectory::len).sum::<usize>();
        assert_eq!((digest(&trajectories), visits_got), (want, visits), "seed {seed}");
    }
}
