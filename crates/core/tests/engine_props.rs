//! Differential properties of the query engine: plan/execute — batched or
//! cached — is bit-identical to the scalar `answer` path, on clean and
//! quarantined deployments.
//!
//! `engine_equivalence_suite` is the CI entry point: `STQ_EQUIV_SEED`
//! re-keys the whole scenario, so a matrix over seeds exercises different
//! cities, workloads and deployments against the same assertions.

use proptest::prelude::*;
use stq_core::prelude::*;

/// A small random scenario (kept tiny: each case builds a whole city).
fn small_scenario() -> impl Strategy<Value = Scenario> {
    (60usize..140, 0u64..200, 2usize..8).prop_map(|(junctions, seed, objs)| {
        Scenario::build(ScenarioConfig {
            junctions,
            mix: WorkloadMix { random_waypoint: objs, commuter: objs, transit: objs / 2 },
            trajectory: TrajectoryConfig {
                speed: 8.0,
                pause: 30.0,
                duration: 1_500.0,
                exit_probability: 0.2,
            },
            seed,
            ..Default::default()
        })
    })
}

fn deployment(s: &Scenario, frac: f64, seed: u64) -> SampledGraph {
    let cands = s.sensing.sensor_candidates();
    let m = ((cands.len() as f64 * frac) as usize).max(3);
    let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, seed);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation)
}

/// Demotes every `stride`-th monitored edge — the shape quarantine leaves
/// behind after an integrity audit.
fn quarantined(s: &Scenario, g: &SampledGraph, stride: usize) -> SampledGraph {
    let dead: Vec<usize> = g
        .monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .map(|(e, _)| e)
        .step_by(stride)
        .collect();
    g.demote_edges(&s.sensing, &dead)
}

/// Bitwise outcome equality: the value compares by f64 bit pattern, the
/// accounting exactly.
fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, ctx: &str) {
    assert_eq!(a.value.to_bits(), b.value.to_bits(), "{ctx}: value {} vs {}", a.value, b.value);
    assert_eq!(a.miss, b.miss, "{ctx}: miss");
    assert_eq!(a.nodes_accessed, b.nodes_accessed, "{ctx}: nodes");
    assert_eq!(a.edges_accessed, b.edges_accessed, "{ctx}: edges");
    assert_eq!(a.covered_cells, b.covered_cells, "{ctx}: cells");
}

fn three_kinds(t0: f64, t1: f64) -> [QueryKind; 3] {
    [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1), QueryKind::Static(t0, t1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine-batched answers are bit-identical to the scalar path for all
    /// three query kinds, both resolutions, on clean AND quarantined
    /// graphs.
    #[test]
    fn batched_equals_scalar_on_clean_and_quarantined(s in small_scenario(),
                                                      frac in 0.1f64..0.5,
                                                      seed in 0u64..100,
                                                      stride in 2usize..6) {
        let g = deployment(&s, frac, seed);
        let gq = quarantined(&s, &g, stride);
        for graph in [&g, &gq] {
            let engine = QueryEngine::new(64);
            let mut batch = Vec::new();
            let mut scalar = Vec::new();
            for (q, t0, t1) in s.make_queries(3, 0.15, 300.0, seed ^ 0x99) {
                for kind in three_kinds(t0, t1) {
                    for approx in [Approximation::Lower, Approximation::Upper] {
                        scalar.push(answer(&s.sensing, graph, &s.tracked.store, &q, kind, approx));
                        let (plan, _) = engine.plan(&s.sensing, graph, &q, approx);
                        batch.push((plan, kind));
                    }
                }
            }
            let batched = engine.execute_batch(&s.tracked.store, &batch);
            for (i, expect) in scalar.iter().enumerate() {
                assert_outcomes_identical(&batched[i], expect, "batched vs scalar");
            }
        }
    }

    /// A plan-cache hit returns byte-identical outcomes, before AND after a
    /// quarantine-driven invalidation forces a recompile.
    #[test]
    fn cache_hit_outcomes_survive_invalidation(s in small_scenario(),
                                               frac in 0.1f64..0.5,
                                               seed in 0u64..100) {
        let g = deployment(&s, frac, seed);
        let (q, t0, t1) = s.make_queries(1, 0.15, 300.0, seed ^ 0x31).remove(0);
        for kind in three_kinds(t0, t1) {
            // Fresh engine per kind: plans are kind-independent, so a shared
            // cache would make every later first lookup a hit.
            let engine = QueryEngine::new(32);
            let (p1, h1) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
            prop_assert!(!h1, "first plan must compile");
            let cold = p1.execute(&s.tracked.store, kind);
            let (p2, h2) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
            prop_assert!(h2, "second plan must hit the cache");
            assert_outcomes_identical(&p2.execute(&s.tracked.store, kind), &cold, "cache hit");

            // Quarantine invalidates; the recompiled plan answers the same.
            engine.invalidate();
            let (p3, h3) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
            prop_assert!(!h3, "invalidation must force a recompile");
            assert_outcomes_identical(
                &p3.execute(&s.tracked.store, kind),
                &cold,
                "post-invalidation",
            );
            let st = engine.stats();
            prop_assert_eq!((st.invalidations, st.hits, st.misses), (1, 1, 2));
        }
    }
}

/// The CI engine-equivalence job's entry point: one deterministic
/// scenario per `STQ_EQUIV_SEED`, differential over 3 kinds × 2
/// resolutions × clean/quarantined graphs × cold/warm cache.
#[test]
fn engine_equivalence_suite() {
    let seed: u64 = std::env::var("STQ_EQUIV_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(11);
    let s = Scenario::build(ScenarioConfig {
        junctions: 240,
        mix: WorkloadMix { random_waypoint: 12, commuter: 8, transit: 6 },
        trajectory: TrajectoryConfig {
            speed: 10.0,
            pause: 30.0,
            duration: 3_000.0,
            exit_probability: 0.15,
        },
        seed,
        ..Default::default()
    });
    let g = deployment(&s, 0.25, seed ^ 0xce);
    let gq = quarantined(&s, &g, 3);
    let queries = s.make_queries(10, 0.1, 1_000.0, seed ^ 0x40);
    assert!(!queries.is_empty());
    for graph in [&g, &gq] {
        let engine = QueryEngine::new(128);
        // Two passes: the first compiles every plan, the second must be
        // served entirely from the cache — both bit-identical to scalar.
        for pass in 0..2 {
            let mut batch = Vec::new();
            let mut scalar = Vec::new();
            let mut hits = 0usize;
            for (q, t0, t1) in &queries {
                for kind in three_kinds(*t0, *t1) {
                    for approx in [Approximation::Lower, Approximation::Upper] {
                        scalar.push(answer(&s.sensing, graph, &s.tracked.store, q, kind, approx));
                        let (plan, hit) = engine.plan(&s.sensing, graph, q, approx);
                        hits += usize::from(hit);
                        batch.push((plan, kind));
                    }
                }
            }
            if pass == 1 {
                assert_eq!(hits, batch.len(), "warm pass must be all cache hits");
            }
            let batched = engine.execute_batch(&s.tracked.store, &batch);
            for (i, expect) in scalar.iter().enumerate() {
                assert_outcomes_identical(&batched[i], expect, "suite: batched vs scalar");
            }
        }
    }
}
