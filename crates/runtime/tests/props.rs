//! Property tests: fault-injected answers always bracket the synchronous
//! value, and fault-free (full-coverage) runs reproduce it bit for bit.

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_runtime::{FaultPlan, QuerySpec, Runtime, RuntimeConfig};

struct Fixture {
    scenario: Scenario,
    sampled: SampledGraph,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let scenario = Scenario::build(ScenarioConfig {
            junctions: 140,
            mix: WorkloadMix { random_waypoint: 14, commuter: 8, transit: 4 },
            seed: 61,
            ..Default::default()
        });
        let cands = scenario.sensing.sensor_candidates();
        let ids =
            stq_sampling::sample(stq_sampling::SamplingMethod::KdTree, &cands, cands.len() / 4, 5);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let sampled =
            SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
        Fixture { scenario, sampled }
    })
}

fn sync_value(f: &Fixture, spec: &QuerySpec) -> Option<f64> {
    let covered = f.sampled.resolve(spec.region.junctions(), spec.approx);
    if covered.is_empty() {
        return None;
    }
    let (boundary, _) = f.scenario.sensing.boundary_walk(&covered, Some(f.sampled.monitored()));
    Some(evaluate(&f.scenario.tracked.store, &boundary, spec.kind))
}

fn specs_for(f: &Fixture, frac: f64, seed: u64, upper: bool) -> Vec<QuerySpec> {
    let approx = if upper { Approximation::Upper } else { Approximation::Lower };
    f.scenario
        .make_queries(2, frac, 1_200.0, seed)
        .into_iter()
        .flat_map(|(region, t0, t1)| {
            [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1), QueryKind::Static(t0, t1)]
                .into_iter()
                .map(move |kind| QuerySpec { region: region.clone(), kind, approx, deadline: None })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under arbitrary (seeded) message loss and duplication, every served
    /// answer brackets the synchronous path's value, with an honest
    /// coverage fraction; full-coverage answers are exact to the bit.
    #[test]
    fn faulty_answers_bracket_the_sync_value(
        fault_seed in 0u64..1_000_000,
        drop_p in 0.0f64..0.6,
        dup_p in 0.0f64..0.3,
        shards in 1usize..6,
        frac in 0.08f64..0.3,
        query_seed in 0u64..10_000,
        upper in proptest::prelude::any::<bool>(),
    ) {
        let f = fixture();
        let cfg = RuntimeConfig {
            num_shards: shards,
            dispatchers: 2,
            shard_timeout: Duration::from_millis(3),
            max_retries: 2,
            fault: FaultPlan::lossy(fault_seed, drop_p, 0.0, dup_p, 0),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(
            f.scenario.sensing.clone(),
            f.sampled.clone(),
            &f.scenario.tracked.store,
            cfg,
        );
        for spec in specs_for(f, frac, query_seed, upper) {
            let served = rt.query(spec.clone());
            match sync_value(f, &spec) {
                None => prop_assert!(served.miss),
                Some(exact) => {
                    prop_assert!(!served.miss);
                    prop_assert!((0.0..=1.0).contains(&served.coverage));
                    prop_assert!(
                        served.lower <= exact && exact <= served.upper,
                        "[{}, {}] must bracket {exact} (coverage {})",
                        served.lower, served.upper, served.coverage
                    );
                    prop_assert!(served.lower <= served.value && served.value <= served.upper);
                    if served.coverage == 1.0 {
                        prop_assert_eq!(served.value.to_bits(), exact.to_bits());
                        prop_assert!(!served.degraded);
                    } else {
                        prop_assert!(served.degraded);
                    }
                }
            }
        }
        rt.shutdown();
    }

    /// Without faults the runtime is a drop-in replacement for the
    /// synchronous path regardless of shard count or thread interleaving:
    /// same values, bit for bit, on every run.
    #[test]
    fn fault_free_runs_are_deterministic_across_shard_counts(
        frac in 0.1f64..0.3,
        query_seed in 0u64..10_000,
    ) {
        let f = fixture();
        let mut reference: Option<Vec<u64>> = None;
        for shards in [1usize, 4] {
            let rt = Runtime::new(
                f.scenario.sensing.clone(),
                f.sampled.clone(),
                &f.scenario.tracked.store,
                RuntimeConfig { num_shards: shards, ..RuntimeConfig::default() },
            );
            let bits: Vec<u64> = specs_for(f, frac, query_seed, false)
                .into_iter()
                .map(|spec| {
                    let served = rt.query(spec.clone());
                    if let Some(exact) = sync_value(f, &spec) {
                        prop_assert_eq!(served.value.to_bits(), exact.to_bits());
                        prop_assert_eq!(served.coverage, 1.0);
                    }
                    Ok(served.value.to_bits())
                })
                .collect::<Result<_, _>>()?;
            match &reference {
                None => reference = Some(bits),
                Some(prev) => prop_assert_eq!(prev, &bits, "shard count changed the answer"),
            }
            rt.shutdown();
        }
    }
}
