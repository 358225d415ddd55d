//! End-to-end scenario builder shared by examples, integration tests and the
//! experiment harness: city → workload → tracking → queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::query::QueryRegion;
use crate::sensing::SensingGraph;
use crate::tracker::{ingest, Tracked};
use stq_geom::{Point, Rect};
use stq_mobility::gen::delaunay_city;
use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};
use stq_mobility::Trajectory;

/// Parameters for a synthetic evaluation scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Junction count of the Delaunay city.
    pub junctions: usize,
    /// Fraction of triangulation edges removed.
    pub drop: f64,
    /// Gates to the outside world.
    pub ramps: usize,
    /// Workload composition.
    pub mix: WorkloadMix,
    /// Trajectory parameters.
    pub trajectory: TrajectoryConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            junctions: 600,
            drop: 0.18,
            ramps: 10,
            mix: WorkloadMix { random_waypoint: 60, commuter: 60, transit: 30 },
            trajectory: TrajectoryConfig {
                speed: 12.0,
                pause: 40.0,
                duration: 10_000.0,
                // Low exit pressure keeps a dense steady-state population,
                // like the multi-year T-Drive/Geolife fleets.
                exit_probability: 0.05,
            },
            seed: 2024,
        }
    }
}

/// A fully built scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The sensing graph built over the generated city.
    pub sensing: SensingGraph,
    /// The generated workload (kept for oracles and re-ingestion).
    pub trajectories: Vec<Trajectory>,
    /// The ingested exact store plus the test oracle.
    pub tracked: Tracked,
    /// The parameters the scenario was built from.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// Builds the city, generates the workload, and ingests it.
    pub fn build(config: ScenarioConfig) -> Self {
        let road = delaunay_city(config.junctions, config.drop, config.ramps, config.seed)
            .expect("scenario city generation");
        let sensing = SensingGraph::new(road);
        let trajectories =
            generate_mix(sensing.road(), config.mix, config.trajectory, config.seed ^ 0x5eed);
        let tracked = ingest(&sensing, &trajectories);
        Scenario { sensing, trajectories, tracked, config }
    }

    /// Generates `n` rectangular query regions whose area is `area_frac` of
    /// the total sensing area, uniformly placed, with random temporal
    /// windows of length `window` inside the simulation horizon (§5.1.5).
    /// Regions that cover no junction are re-drawn (bounded retries). On an
    /// axis the square is wider than, it is centred on the city instead.
    pub fn make_queries(
        &self,
        n: usize,
        area_frac: f64,
        window: f64,
        seed: u64,
    ) -> Vec<(QueryRegion, f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bb = self.sensing.road().bbox();
        let total_area = bb.area();
        let side = (total_area * area_frac).sqrt();
        let duration = self.config.trajectory.duration;
        let window = window.min(duration * 0.9);
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < n * 50 {
            attempts += 1;
            let cx = centre_on_axis(&mut rng, bb.min.x, bb.max.x, side);
            let cy = centre_on_axis(&mut rng, bb.min.y, bb.max.y, side);
            let rect = Rect::centered(Point::new(cx, cy), side, side);
            let q = QueryRegion::from_rect(&self.sensing, rect);
            if q.is_empty() {
                continue;
            }
            let t0 = rng.gen_range(duration * 0.05..=duration * 0.95 - window);
            out.push((q, t0, t0 + window));
        }
        out
    }

    /// Historical query regions (junction sets) for the submodular method —
    /// the "100 query regions chosen uniformly" of §5.1.5.
    pub fn historical_regions(&self, n: usize, area_frac: f64, seed: u64) -> Vec<Vec<usize>> {
        self.make_queries(n, area_frac, 0.0, seed)
            .into_iter()
            .map(|(q, _, _)| q.junctions().to_vec())
            .collect()
    }
}

/// Where a square of `side` centres on the axis `[lo, hi]`: a uniform draw
/// that keeps it inside where it fits, the midpoint (no draw) where it does
/// not.
fn centre_on_axis(rng: &mut StdRng, lo: f64, hi: f64, side: f64) -> f64 {
    let (first, last) = (lo + side * 0.5, hi - side * 0.5);
    if first <= last {
        rng.gen_range(first..=last)
    } else {
        (lo + hi) * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::build(ScenarioConfig {
            junctions: 100,
            mix: WorkloadMix { random_waypoint: 8, commuter: 5, transit: 4 },
            trajectory: TrajectoryConfig {
                speed: 10.0,
                pause: 20.0,
                duration: 2_000.0,
                exit_probability: 0.3,
            },
            ..Default::default()
        })
    }

    #[test]
    fn scenario_builds_consistently() {
        let s = tiny();
        assert_eq!(s.trajectories.len(), 17);
        assert!(s.tracked.num_crossings > 0);
        assert!(s.sensing.num_sensors() > 10);
    }

    #[test]
    fn queries_cover_junctions_and_windows() {
        let s = tiny();
        let qs = s.make_queries(20, 0.05, 500.0, 1);
        assert_eq!(qs.len(), 20);
        for (q, t0, t1) in &qs {
            assert!(!q.is_empty());
            assert!(*t0 < *t1);
            assert!(*t1 <= s.config.trajectory.duration);
        }
    }

    #[test]
    fn full_area_squares_centre_and_fitting_squares_draw_as_before() {
        let s = tiny();
        // A square of the city's whole area is wider than its shorter side.
        let full = s.make_queries(5, 1.0, 500.0, 9);
        assert_eq!(full.len(), 5);
        assert!(full.iter().all(|(q, _, _)| !q.is_empty()));

        // Where the square fits, the centres are the unguarded draws.
        let bb = s.sensing.road().bbox();
        let duration = s.config.trajectory.duration;
        for frac in [0.05, 0.3] {
            let side = (bb.area() * frac).sqrt();
            let mut rng = StdRng::seed_from_u64(4);
            let mut want = Vec::new();
            for _ in 0..8 * 50 {
                if want.len() == 8 {
                    break;
                }
                let cx = rng.gen_range(bb.min.x + side * 0.5..=bb.max.x - side * 0.5);
                let cy = rng.gen_range(bb.min.y + side * 0.5..=bb.max.y - side * 0.5);
                let rect = Rect::centered(Point::new(cx, cy), side, side);
                let q = QueryRegion::from_rect(&s.sensing, rect);
                if !q.is_empty() {
                    let t0 = rng.gen_range(duration * 0.05..=duration * 0.95 - 500.0);
                    want.push((q.junctions().to_vec(), t0));
                }
            }
            let got: Vec<(Vec<usize>, f64)> = s
                .make_queries(8, frac, 500.0, 4)
                .into_iter()
                .map(|(q, t0, _)| (q.junctions().to_vec(), t0))
                .collect();
            assert_eq!(got, want, "area {frac}");
        }
    }

    #[test]
    fn historical_regions_nonempty_sorted() {
        let s = tiny();
        let hist = s.historical_regions(10, 0.08, 3);
        assert_eq!(hist.len(), 10);
        for h in &hist {
            assert!(!h.is_empty());
            assert!(h.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
