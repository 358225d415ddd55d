//! # stq-core
//!
//! The framework of the paper, assembled from the substrate crates:
//!
//! 1. [`SensingGraph`] — the dual of a road network: one sensor per block,
//!    one sensing link per road, one sensing cell per junction (§3.2),
//! 2. [`tracker`] — trajectories → directed crossing events → tracking
//!    forms (§4.7), with an identifier-based oracle for exactness tests,
//! 3. [`SampledGraph`] — communication-sensor selection (sampling §4.3 or
//!    submodular maximization §4.4) with triangulation / k-NN connectivity
//!    materialized as shortest paths (§4.5),
//! 4. [`query`] — lower/upper-bound region resolution (§4.6) and the three
//!    count queries (Theorems 4.1–4.3),
//! 5. [`LearnedStore`] — constant-size regression models per edge (§4.8),
//! 6. [`geometric`] — a crossing tracker for free-roaming objects,
//! 7. [`scenario`] — end-to-end synthetic scenario builder for examples,
//!    tests and the experiment harness.
//!
//! ## Quick tour
//!
//! ```
//! use stq_core::prelude::*;
//!
//! // A small city with a tracked workload.
//! let scenario = Scenario::build(ScenarioConfig {
//!     junctions: 120,
//!     mix: WorkloadMix { random_waypoint: 10, commuter: 5, transit: 5 },
//!     ..Default::default()
//! });
//! let sensing = &scenario.sensing;
//!
//! // Select 20% of sensors with quadtree sampling, triangulate, materialize.
//! let cands = sensing.sensor_candidates();
//! let ids = stq_sampling::sample(
//!     stq_sampling::SamplingMethod::QuadTree, &cands, cands.len() / 5, 7);
//! let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
//! let sampled = SampledGraph::from_sensors(sensing, &faces, Connectivity::Triangulation);
//!
//! // Ask a spatiotemporal range count.
//! let (q, t0, t1) = scenario.make_queries(1, 0.05, 1_000.0, 3).remove(0);
//! let out = answer(sensing, &sampled, &scenario.tracked.store, &q,
//!                  QueryKind::Transient(t0, t1), Approximation::Lower);
//! assert!(out.value.is_finite());
//! ```

pub mod abstracted;
pub mod bracket;
pub mod cost;
pub mod degraded;
pub mod engine;
pub mod geometric;
pub mod impute;
pub mod learned_store;
pub mod query;
pub mod render;
pub mod repair;
pub mod sampled;
pub mod scenario;
pub mod sensing;
pub mod streaming;
pub mod tracker;

pub use bracket::Bracket;
pub use degraded::{DegradedAnswer, DegradedAnswerer, DegradedPolicy, DegradedStrategy};
pub use engine::{EngineStats, PlanId, QueryEngine, QueryPlan};
pub use impute::{ImputedInterval, Imputer};
pub use learned_store::LearnedStore;
pub use query::{
    answer, ground_truth, relative_error, Approximation, QueryKind, QueryOutcome, QueryRegion,
};
pub use repair::{
    answer_with_bounds, bounds_from_plans, net_flow_interval, quarantine_and_repair, BoundedAnswer,
    RepairConfig, RepairKind, RepairOutcome, RepairedEdge,
};
pub use sampled::{Connectivity, SampledGraph};
pub use sensing::SensingGraph;
pub use tracker::{crossings_of, ingest, ingest_with_faults, Crossing, Tracked};

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::abstracted::AbstractTopology;
    pub use crate::bracket::Bracket;
    pub use crate::cost::{measure_costs, CostModel};
    pub use crate::degraded::{DegradedAnswer, DegradedAnswerer, DegradedPolicy, DegradedStrategy};
    pub use crate::engine::{EngineStats, PlanId, QueryEngine, QueryPlan};
    pub use crate::geometric::Subdivision;
    pub use crate::impute::{ImputedInterval, Imputer};
    pub use crate::learned_store::LearnedStore;
    pub use crate::query::{
        answer, ground_truth, relative_error, Approximation, QueryKind, QueryOutcome, QueryRegion,
    };
    pub use crate::render::Scene;
    pub use crate::repair::{
        answer_with_bounds, quarantine_and_repair, BoundedAnswer, RepairConfig, RepairOutcome,
    };
    pub use crate::sampled::{Connectivity, SampledGraph};
    pub use crate::scenario::{Scenario, ScenarioConfig};
    pub use crate::sensing::SensingGraph;
    pub use crate::streaming::{StreamStats, StreamTracker, StreamingLearnedStore};
    pub use crate::tracker::{crossings_of, ingest, ingest_with_faults, Crossing, Tracked};
    pub use stq_mobility::trajectory::{TrajectoryConfig, WorkloadMix};
}
