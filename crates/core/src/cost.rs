//! The theoretical cost model of §4.9 and its empirical counterpart.
//!
//! The paper argues that the querying cost (≈ sensors on the query
//! perimeter) is
//!
//! - unsampled: `|N_P| = α · (A(Q)/A(T)) · |N|` — *linear* in the query
//!   area, because axis-aligned in-network systems flood the region,
//! - sampled:   `|Ñ_P| = (A(Q)/A(T)) · m · k · ℓ_G` with `ℓ_G = g(|N|)`
//!   sub-linear (logarithmic for small-world graphs), so the sampled cost
//!   grows much more slowly.
//!
//! [`CostModel`] computes the predictions; [`measure_costs`] measures the
//! actual perimeter sizes so experiments (the `theory` binary) can compare
//! prediction against measurement.

use crate::query::{Approximation, QueryRegion};
use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_planar::paths::mean_path_length;

/// Parameters of the §4.9 cost model for one deployment.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Total sensors `|N|` in the full sensing graph.
    pub total_sensors: usize,
    /// Communication sensors `m` of the sampled graph.
    pub m: usize,
    /// Average connectivity degree `k` (≈ 6 − 12/m for triangulations, by
    /// Euler's formula, or the chosen k-NN `k`).
    pub k: f64,
    /// Mean shortest-path hop length `ℓ_G` in the sensing graph.
    pub ell_g: f64,
    /// Perimeter-band fraction `α` of the unsampled model (fitted, ~O(1)).
    pub alpha: f64,
}

impl CostModel {
    /// Builds the model for a sampled deployment by measuring `ℓ_G` on the
    /// sensing graph's communication topology (sampled hop lengths, seeded).
    pub fn for_deployment(sensing: &SensingGraph, sampled: &SampledGraph, alpha: f64) -> Self {
        let adj: Vec<Vec<usize>> = sensing
            .dual_adjacency()
            .iter()
            .map(|nbrs| nbrs.iter().filter(|&&(_, _, w)| w < 1e9).map(|&(v, _, _)| v).collect())
            .collect();
        let ell_g = mean_path_length(&adj, 64, 0xe11);
        let m = sampled.sensors().len();
        // Triangulation degree from Euler's formula: k = (3m − 6)/m.
        let k = if m >= 3 { (3 * m - 6) as f64 / m as f64 } else { 1.0 };
        CostModel { total_sensors: sensing.num_sensors(), m, k, ell_g, alpha }
    }

    /// Predicted sensors flooded by the unsampled system for a query of
    /// relative area `area_frac`.
    pub fn predicted_unsampled(&self, area_frac: f64) -> f64 {
        self.alpha * area_frac * self.total_sensors as f64
    }

    /// Predicted perimeter nodes of the sampled system (§4.9:
    /// `(A(Q)/A(T)) · m · k · ℓ_G`).
    pub fn predicted_sampled(&self, area_frac: f64) -> f64 {
        area_frac * self.m as f64 * self.k * self.ell_g
    }
}

/// Measured communication for one query on one deployment.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasuredCost {
    /// Sensors on the (lower-bound) sampled perimeter.
    pub sampled_perimeter: usize,
    /// Sensors inside the query rectangle (the flood set).
    pub flooded: usize,
}

/// Measures the §4.9 quantities for a batch of queries.
pub fn measure_costs(
    sensing: &SensingGraph,
    sampled: &SampledGraph,
    queries: &[QueryRegion],
) -> Vec<MeasuredCost> {
    queries
        .iter()
        .map(|q| {
            let plan = crate::engine::QueryPlan::compile(sensing, sampled, q, Approximation::Lower);
            MeasuredCost {
                sampled_perimeter: plan.nodes_accessed,
                flooded: sensing.sensors_in_rect(&q.rect).len(),
            }
        })
        .collect()
}

/// Least-squares slope of `y` against `x` through the origin — used to fit
/// `α` and to test linearity of cost growth.
pub fn fit_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    if sxx <= 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryRegion;
    use crate::scenario::{Scenario, ScenarioConfig};
    use stq_mobility::trajectory::WorkloadMix;

    fn setup() -> (Scenario, SampledGraph) {
        let s = Scenario::build(ScenarioConfig {
            junctions: 300,
            mix: WorkloadMix { random_waypoint: 5, commuter: 5, transit: 2 },
            seed: 9,
            ..Default::default()
        });
        let cands = s.sensing.sensor_candidates();
        let ids = stq_sampling::sample(
            stq_sampling::SamplingMethod::QuadTree,
            &cands,
            cands.len() / 8,
            3,
        );
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = crate::sampled::SampledGraph::from_sensors(
            &s.sensing,
            &faces,
            crate::sampled::Connectivity::Triangulation,
        );
        (s, g)
    }

    #[test]
    fn model_parameters_sane() {
        let (s, g) = setup();
        let model = CostModel::for_deployment(&s.sensing, &g, 1.0);
        assert_eq!(model.total_sensors, s.sensing.num_sensors());
        assert_eq!(model.m, g.sensors().len());
        assert!(model.k > 1.0 && model.k < 3.0);
        assert!(model.ell_g > 1.0, "mean hop length must exceed 1, got {}", model.ell_g);
        // Predictions scale linearly in area.
        let p1 = model.predicted_sampled(0.01);
        let p2 = model.predicted_sampled(0.02);
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flood_grows_linearly_with_area() {
        let (s, g) = setup();
        let mut areas = Vec::new();
        let mut floods = Vec::new();
        for &frac in &[0.02, 0.05, 0.1, 0.2, 0.4] {
            let qs: Vec<QueryRegion> =
                s.make_queries(15, frac, 100.0, 5).into_iter().map(|(q, _, _)| q).collect();
            let measured = measure_costs(&s.sensing, &g, &qs);
            let mean_flood =
                measured.iter().map(|m| m.flooded as f64).sum::<f64>() / measured.len() as f64;
            areas.push(frac);
            floods.push(mean_flood);
        }
        // The fitted linear model should explain flooding well: residuals
        // below 30% of the prediction at the largest area.
        let slope = fit_slope(&areas, &floods);
        assert!(slope > 0.0);
        let predicted = slope * areas[4];
        assert!((floods[4] - predicted).abs() < 0.3 * predicted.max(1.0));
    }

    #[test]
    fn sampled_perimeter_grows_sublinearly() {
        let (s, g) = setup();
        // Mean over *resolved* queries only: a miss reports perimeter 0,
        // and misses concentrate at small areas, so including them deflates
        // the small-area mean and masks the actual per-query growth rate.
        let mean_perimeter = |frac: f64| {
            let qs: Vec<QueryRegion> =
                s.make_queries(15, frac, 100.0, 7).into_iter().map(|(q, _, _)| q).collect();
            let resolved: Vec<f64> = measure_costs(&s.sensing, &g, &qs)
                .iter()
                .filter(|m| m.sampled_perimeter > 0)
                .map(|m| m.sampled_perimeter as f64)
                .collect();
            resolved.iter().sum::<f64>() / (resolved.len() as f64).max(1.0)
        };
        let p_small = mean_perimeter(0.05);
        let p_large = mean_perimeter(0.4);
        // Area grew 8x; the perimeter must grow by clearly less (the paper's
        // near-constant / logarithmic access, Fig. 11c).
        assert!(
            p_large < 8.0 * p_small.max(1.0) * 0.75,
            "perimeter {p_small} → {p_large} is not sublinear"
        );
    }

    #[test]
    fn fit_slope_basics() {
        assert_eq!(fit_slope(&[1.0, 2.0], &[2.0, 4.0]), 2.0);
        assert_eq!(fit_slope(&[], &[]), 0.0);
        assert_eq!(fit_slope(&[0.0], &[5.0]), 0.0);
    }
}
