//! The fixed parts of the method: the `town` dataset, the runtime
//! configuration, and the standing-subscription population.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stq_core::prelude::*;
use stq_forms::{FormStore, TrackingForm};
use stq_runtime::{DurabilityConfig, Runtime, RuntimeConfig, SubscriptionHandle};

pub const NUM_SHARDS: usize = 2;
pub const SUBSCRIPTIONS: usize = 512;
pub const PLAN_CACHE: usize = 256;
/// Where everything the benchmark writes goes (relative to the checkout
/// root, which `run.sh` makes the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// The dataset is fixed; `--seed` keys the workload drawn over it. A city
/// per seed would put seed-to-seed differences in graph size into every
/// metric's spread.
const DATASET_SEED: u64 = 11;
const JUNCTIONS: usize = 2_500;
const OBJECTS_PER_KIND: usize = 200;

pub struct World {
    pub scenario: Scenario,
    pub sampled: SampledGraph,
    pub scenario_s: f64,
    pub sampled_s: f64,
}

impl World {
    /// `town`: 2 500 junctions, 600 objects, QuadTree 25 % sensors joined by
    /// triangulation.
    pub fn build() -> World {
        let t0 = Instant::now();
        let scenario = Scenario::build(ScenarioConfig {
            junctions: JUNCTIONS,
            mix: WorkloadMix {
                random_waypoint: OBJECTS_PER_KIND,
                commuter: OBJECTS_PER_KIND,
                transit: OBJECTS_PER_KIND,
            },
            seed: DATASET_SEED,
            ..Default::default()
        });
        let scenario_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let cands = scenario.sensing.sensor_candidates();
        let ids = stq_sampling::sample(
            stq_sampling::SamplingMethod::QuadTree,
            &cands,
            cands.len() / 4,
            DATASET_SEED ^ 0x51,
        );
        let faces: Vec<usize> = ids.into_iter().map(|f| f as usize).collect();
        let sampled =
            SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
        World { scenario, sampled, scenario_s, sampled_s: t0.elapsed().as_secs_f64() }
    }

    pub fn base_store(&self) -> &FormStore {
        &self.scenario.tracked.store
    }

    /// `Runtime::new`, its threads placed on the runtime's CPUs.
    pub fn start_runtime(&self, wal_dir: Option<PathBuf>) -> Runtime {
        crate::pin::on_runtime_cpus(|| {
            Runtime::new(
                self.scenario.sensing.clone(),
                self.sampled.clone(),
                self.base_store(),
                runtime_config(wal_dir),
            )
        })
    }
}

/// No faults, no overload control, no rebalancing, zero injected delay. The
/// 1 s shard timeout keeps a scheduling stall from being served as a
/// degraded answer, which would count as a failed query.
pub fn runtime_config(wal_dir: Option<PathBuf>) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: NUM_SHARDS,
        dispatchers: 2,
        queue_capacity: 64,
        shard_timeout: Duration::from_secs(1),
        max_retries: 1,
        plan_cache: PLAN_CACHE,
        durability: wal_dir.map(DurabilityConfig::new),
        ..RuntimeConfig::default()
    }
}

/// Registers [`SUBSCRIPTIONS`] standing queries round-robin over `regions`.
pub fn subscribe_all(rt: &Runtime, regions: &[QueryRegion]) -> Vec<SubscriptionHandle> {
    if regions.is_empty() {
        return Vec::new();
    }
    (0..SUBSCRIPTIONS)
        .map(|k| {
            rt.subscribe(regions[k % regions.len()].clone(), Approximation::Lower)
                .expect("subscription regions were pre-checked resolvable")
        })
        .collect()
}

/// Empties every subscription's update channel.
pub fn drain(subs: &[SubscriptionHandle]) {
    for s in subs {
        while s.updates.try_recv().is_ok() {}
    }
}

/// The forms shard `shard` owns under the modulo map — what the runtime
/// hands that shard at start-up, and what its digest covers.
pub fn shard_forms(store: &FormStore, shard: usize) -> HashMap<usize, TrackingForm> {
    (shard..store.num_edges()).step_by(NUM_SHARDS).map(|e| (e, store.form(e).clone())).collect()
}

/// A fresh directory under [`OUT_DIR`] private to this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
    dir
}
