//! GPS noise simulation and map matching (paper §5.1.3).
//!
//! "We then map-match the trajectories to the road network by mapping each
//! trajectory location to the nearest node and connecting them via the
//! shortest path in the graph." This module implements exactly that
//! pipeline, plus the inverse direction (rendering a junction walk as noisy
//! GPS fixes) so the whole loop can be tested end-to-end without real data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::{RoadNetwork, Router};
use crate::trajectory::Trajectory;
use crate::Time;
use stq_geom::Point;
use stq_spatial::GridIndex;

/// A raw GPS fix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpsFix {
    /// Fix timestamp.
    pub time: Time,
    /// Reported (noisy) position.
    pub pos: Point,
}

/// Renders a junction walk as GPS fixes sampled every `interval` seconds
/// along the walk geometry, with isotropic Gaussian-ish noise of standard
/// deviation `noise` (Box–Muller). Deterministic under `seed`.
///
/// The external junction has no geometry, so the portion of the walk at
/// `v_ext` is skipped — exactly like a GPS unit that has no fix before
/// entering the mapped area.
pub fn to_gps(
    net: &RoadNetwork,
    traj: &Trajectory,
    interval: Time,
    noise: f64,
    seed: u64,
) -> Vec<GpsFix> {
    assert!(interval > 0.0, "sampling interval must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gauss = move || {
        // Box–Muller transform.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };

    let mut fixes = Vec::new();
    let mut next_t = traj.start_time();
    for w in traj.visits.windows(2) {
        let (t0, a) = w[0];
        let (t1, b) = w[1];
        let (Some(pa), Some(pb)) = (net.embedding().position(a), net.embedding().position(b))
        else {
            next_t = next_t.max(t1);
            continue;
        };
        while next_t <= t1 {
            if next_t >= t0 {
                let frac = if t1 > t0 { (next_t - t0) / (t1 - t0) } else { 0.0 };
                let p = pa.lerp(pb, frac);
                fixes.push(GpsFix {
                    time: next_t,
                    pos: Point::new(p.x + gauss() * noise, p.y + gauss() * noise),
                });
            }
            next_t += interval;
        }
    }
    fixes
}

/// Map-matches GPS fixes back onto the network: each fix snaps to the
/// nearest junction (via a grid index), consecutive duplicates collapse, and
/// gaps are stitched with shortest paths. Returns a junction walk whose
/// timestamps interpolate the fix times along each stitched path.
pub fn map_match(net: &RoadNetwork, fixes: &[GpsFix], id: u64) -> Trajectory {
    if fixes.is_empty() {
        return Trajectory { id, visits: Vec::new() };
    }
    let entries: Vec<(Point, u32)> = net.junctions().map(|v| (net.position(v), v as u32)).collect();
    let grid_n = ((entries.len() as f64).sqrt().ceil() as usize).max(1);
    let grid = GridIndex::build(&entries, grid_n, grid_n);

    // Snap and deduplicate.
    let mut snapped: Vec<(Time, usize)> = Vec::new();
    for f in fixes {
        let v = grid.nearest(f.pos).expect("network has junctions").id as usize;
        if snapped.last().map(|&(_, lv)| lv != v).unwrap_or(true) {
            snapped.push((f.time, v));
        }
    }

    // Stitch consecutive snapped junctions with shortest paths.
    let mut router = Router::new(net);
    let mut visits: Vec<(Time, usize)> = vec![snapped[0]];
    for w in snapped.windows(2) {
        let (t0, a) = w[0];
        let (t1, b) = w[1];
        match router.path(a, b) {
            Some((verts, edges)) if !edges.is_empty() => {
                let total: f64 = edges.iter().map(|&e| net.edge_length(e)).sum();
                let mut acc = 0.0;
                for (v, e) in verts.into_iter().skip(1).zip(edges) {
                    acc += net.edge_length(e);
                    let t = if total > 0.0 { t0 + (t1 - t0) * acc / total } else { t1 };
                    visits.push((t, v));
                }
            }
            _ => visits.push((t1, b)),
        }
    }
    Trajectory { id, visits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::perturbed_grid;
    use crate::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};

    /// Fraction of matched junction arrivals that also appear in the
    /// reference walk (a simple recall-style accuracy score).
    fn match_accuracy(reference: &Trajectory, matched: &Trajectory) -> f64 {
        if matched.visits.is_empty() {
            return 0.0;
        }
        let ref_set: std::collections::HashSet<usize> =
            reference.visits.iter().map(|&(_, v)| v).collect();
        let hits = matched.visits.iter().filter(|&&(_, v)| ref_set.contains(&v)).count();
        hits as f64 / matched.visits.len() as f64
    }

    fn setup() -> (RoadNetwork, Trajectory) {
        let net = perturbed_grid(6, 6, 0.1, 0.0, 4, 21).unwrap();
        let cfg =
            TrajectoryConfig { speed: 2.0, pause: 5.0, duration: 400.0, exit_probability: 0.0 };
        let mix = WorkloadMix { random_waypoint: 1, commuter: 0, transit: 0 };
        let traj = generate_mix(&net, mix, cfg, 7).pop().unwrap();
        (net, traj)
    }

    #[test]
    fn gps_rendering_skips_outside() {
        let (net, traj) = setup();
        let fixes = to_gps(&net, &traj, 3.0, 0.0, 1);
        assert!(!fixes.is_empty());
        // All fixes lie within (a slightly inflated) network bbox.
        let bb = net.bbox().inflated(1e-6);
        for f in &fixes {
            assert!(bb.contains(f.pos), "fix {} outside bbox", f.pos);
        }
        // Times are strictly increasing by the interval grid.
        for w in fixes.windows(2) {
            assert!(w[1].time > w[0].time);
        }
    }

    #[test]
    fn noiseless_matching_recovers_walk() {
        let (net, traj) = setup();
        let fixes = to_gps(&net, &traj, 1.0, 0.0, 2);
        let matched = map_match(&net, &fixes, traj.id);
        assert!(matched.validate(&net));
        assert!(match_accuracy(&traj, &matched) > 0.95);
    }

    #[test]
    fn noisy_matching_still_reasonable() {
        let (net, traj) = setup();
        // Noise of 0.15 on unit-ish street spacing.
        let fixes = to_gps(&net, &traj, 1.0, 0.15, 3);
        let matched = map_match(&net, &fixes, traj.id);
        assert!(matched.validate(&net));
        assert!(match_accuracy(&traj, &matched) > 0.6);
    }

    #[test]
    fn empty_fixes_give_empty_trajectory() {
        let (net, _) = setup();
        let matched = map_match(&net, &[], 0);
        assert!(matched.is_empty());
    }

    #[test]
    fn matched_times_monotone() {
        let (net, traj) = setup();
        let fixes = to_gps(&net, &traj, 2.0, 0.1, 5);
        let matched = map_match(&net, &fixes, 0);
        for w in matched.visits.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let (net, traj) = setup();
        let _ = to_gps(&net, &traj, 0.0, 0.0, 1);
    }
}
