//! Differential properties of the query engine: plan/execute — batched or
//! cached — is bit-identical to the scalar `answer` path, on clean and
//! quarantined deployments; and plan compilation itself equals an
//! independent reference.
//!
//! `answer` *is* `QueryPlan::compile(..).execute(..)`, so the first family
//! checks caching and batching but cannot catch a compile bug. [`reference`]
//! is the oracle for that: a transcription of the hash-container resolution
//! and boundary walk the bitset compile replaced, kept here (tests only) to
//! compare every plan field against.
//!
//! `engine_equivalence_suite` and `compile_matches_hashset_reference` are
//! the CI entry points: `STQ_EQUIV_SEED` re-keys the whole scenario, so a
//! matrix over seeds exercises different cities, workloads and deployments
//! against the same assertions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stq_core::prelude::*;
use stq_geom::{Point, Rect};

/// The compile path as it was before it stopped hashing: `HashMap`/`HashSet`
/// region resolution and a boundary walk that probes a `HashSet` per
/// half-edge endpoint and dedups through a `seen` set. Slow and obviously
/// right; shares no code with `stq-core`'s resolution or walk.
mod reference {
    use std::collections::{HashMap, HashSet};

    use stq_core::prelude::*;
    use stq_forms::BoundaryEdge;

    pub struct Plan {
        pub id: PlanId,
        pub interior: Vec<usize>,
        pub boundary: Vec<BoundaryEdge>,
        pub nodes_accessed: usize,
        pub miss: bool,
    }

    fn resolve_lower(g: &SampledGraph, query: &HashSet<usize>) -> HashSet<usize> {
        let mut in_query_count = HashMap::new();
        for &j in query {
            *in_query_count.entry(g.component_of(j)).or_insert(0usize) += 1;
        }
        let mut covered = HashSet::new();
        for (&comp, &cnt) in &in_query_count {
            if cnt == g.components()[comp].len() {
                covered.extend(g.components()[comp].iter().copied());
            }
        }
        covered
    }

    fn resolve_upper(g: &SampledGraph, query: &HashSet<usize>) -> HashSet<usize> {
        let comps: HashSet<usize> = query.iter().map(|&j| g.component_of(j)).collect();
        if comps.contains(&g.ext_component()) {
            return HashSet::new();
        }
        let mut covered = HashSet::new();
        for comp in comps {
            covered.extend(g.components()[comp].iter().copied());
        }
        covered
    }

    fn walk_boundary(
        sensing: &SensingGraph,
        region: &HashSet<usize>,
        monitored: Option<&[bool]>,
    ) -> (Vec<BoundaryEdge>, usize) {
        let emb = sensing.road().embedding();
        let mut verts: Vec<usize> = region.iter().copied().collect();
        verts.sort_unstable();
        let mut out = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut sensors: HashSet<usize> = HashSet::new();
        for &u in &verts {
            for &h in emb.rotation(u) {
                let e = emb.edge_of(h);
                let (a, b) = emb.edge_endpoints(e);
                let inside_a = region.contains(&a);
                let inside_b = region.contains(&b);
                if inside_a == inside_b || !seen.insert(e) {
                    continue;
                }
                if monitored.is_some_and(|mon| !mon[e]) {
                    continue;
                }
                let (f, g) = sensing.dual().edge_faces[e];
                sensors.insert(f);
                sensors.insert(g);
                out.push(BoundaryEdge::new(e, inside_b));
            }
        }
        (out, sensors.len())
    }

    /// The resolution tag, then each sorted junction id, one
    /// multiply-rotate step apiece; the high half folded into the low.
    fn fingerprint(junctions: &[usize], tag: u8) -> PlanId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in std::iter::once(u64::from(tag)).chain(junctions.iter().map(|&j| j as u64)) {
            h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        }
        PlanId(h ^ (h >> 32))
    }

    fn sorted(set: &HashSet<usize>) -> Vec<usize> {
        let mut v: Vec<usize> = set.iter().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn compile(
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        region: &QueryRegion,
        approx: Approximation,
    ) -> Plan {
        let query: HashSet<usize> = region.junctions().iter().copied().collect();
        let (tag, covered) = match approx {
            Approximation::Lower => (0, resolve_lower(sampled, &query)),
            Approximation::Upper => (1, resolve_upper(sampled, &query)),
        };
        let id = fingerprint(&sorted(&query), tag);
        if covered.is_empty() {
            return Plan {
                id,
                interior: Vec::new(),
                boundary: Vec::new(),
                nodes_accessed: 0,
                miss: true,
            };
        }
        let (boundary, nodes_accessed) =
            walk_boundary(sensing, &covered, Some(sampled.monitored()));
        Plan { id, interior: sorted(&covered), boundary, nodes_accessed, miss: false }
    }

    pub fn compile_exact(sensing: &SensingGraph, region: &QueryRegion) -> Plan {
        let query: HashSet<usize> = region.junctions().iter().copied().collect();
        let interior = sorted(&query);
        let id = fingerprint(&interior, 2);
        let (boundary, nodes_accessed) = walk_boundary(sensing, &query, None);
        Plan { id, interior, boundary, nodes_accessed, miss: false }
    }
}

/// Every field of a compiled plan equals the reference's — chain order and
/// orientation included.
fn assert_plan_matches(plan: &QueryPlan, expect: &reference::Plan, ctx: &str) {
    assert_eq!(plan.id, expect.id, "{ctx}: id");
    assert_eq!(plan.miss, expect.miss, "{ctx}: miss");
    assert_eq!(plan.interior, expect.interior, "{ctx}: interior");
    assert_eq!(plan.boundary, expect.boundary, "{ctx}: boundary");
    assert_eq!(plan.nodes_accessed, expect.nodes_accessed, "{ctx}: nodes_accessed");
}

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

/// Every `stride`-th monitored edge — the failures the suites inject.
fn every_nth_monitored(g: &SampledGraph, stride: usize) -> Vec<usize> {
    g.monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .map(|(e, _)| e)
        .step_by(stride)
        .collect()
}

/// Demotes every `stride`-th monitored edge — the shape quarantine leaves
/// behind after an integrity audit.
fn quarantined(s: &Scenario, g: &SampledGraph, stride: usize) -> SampledGraph {
    g.demote_edges(&s.sensing, &every_nth_monitored(g, stride))
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
            let batched: Vec<_> =
                batch.iter().map(|(plan, kind)| plan.execute(&s.tracked.store, *kind)).collect();
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

fn suite_seed() -> u64 {
    std::env::var("STQ_EQUIV_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(11)
}

fn suite_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig {
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
    })
}

/// Compile against the independent reference: every plan field, on random
/// rectangles (some empty, some reaching the outside-world component), both
/// resolutions, clean / quarantined / rerouted graphs, through
/// `QueryPlan::compile` and through an engine miss; plus `compile_exact`.
#[test]
fn compile_matches_hashset_reference() {
    let seed = suite_seed();
    let s = suite_scenario(seed);
    let g = deployment(&s, 0.25, seed ^ 0xce);
    let graphs = [
        ("clean", g.clone()),
        ("quarantined", quarantined(&s, &g, 3)),
        ("rerouted", g.reroute_around(&s.sensing, &every_nth_monitored(&g, 3))),
    ];

    let bb = s.sensing.road().bbox();
    let (w, h) = (bb.max.x - bb.min.x, bb.max.y - bb.min.y);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb175);
    // Centres may fall outside the city and sides may be tiny or most of
    // it, so the draw includes empty regions and ones along the rim.
    let mut rects: Vec<Rect> = (0..60)
        .map(|_| {
            let cx = bb.min.x + w * rng.gen_range(-0.2..=1.2);
            let cy = bb.min.y + h * rng.gen_range(-0.2..=1.2);
            Rect::centered(
                Point::new(cx, cy),
                w * rng.gen_range(0.0..=0.7),
                h * rng.gen_range(0.0..=0.7),
            )
        })
        .collect();
    rects.push(bb.inflated(1.0)); // every junction: reaches the outside-world component
    rects.push(Rect::centered(Point::new(bb.min.x - 10.0 * w, bb.min.y), w, h)); // no junction

    let (mut empty, mut misses, mut answered, mut reach_ext) = (0, 0, 0, 0);
    for (i, rect) in rects.into_iter().enumerate() {
        let q = QueryRegion::from_rect(&s.sensing, rect);
        empty += usize::from(q.is_empty());
        let exact = QueryPlan::compile_exact(&s.sensing, &q);
        assert_plan_matches(&exact, &reference::compile_exact(&s.sensing, &q), "exact");
        for (name, graph) in &graphs {
            reach_ext += usize::from(
                q.junctions().iter().any(|&j| graph.component_of(j) == graph.ext_component()),
            );
            let engine = QueryEngine::new(4);
            for approx in [Approximation::Lower, Approximation::Upper] {
                let ctx = format!("rect {i}, {name}, {approx:?}");
                let expect = reference::compile(&s.sensing, graph, &q, approx);
                assert_plan_matches(
                    &QueryPlan::compile(&s.sensing, graph, &q, approx),
                    &expect,
                    &ctx,
                );
                let (planned, hit) = engine.plan(&s.sensing, graph, &q, approx);
                assert!(!hit, "{ctx}: a fresh engine compiles");
                assert_plan_matches(&planned, &expect, &ctx);
                if expect.miss {
                    misses += 1;
                } else {
                    answered += 1;
                    assert!(!expect.boundary.is_empty(), "{ctx}: a resolved region has a boundary");
                }
            }
        }
    }
    // The draw must actually have exercised every shape it promises.
    assert!(
        empty > 0 && misses > 0 && answered > 0 && reach_ext > 0,
        "{empty} {misses} {answered} {reach_ext}"
    );
}

/// The CI engine-equivalence job's entry point: one deterministic
/// scenario per `STQ_EQUIV_SEED`, differential over 3 kinds × 2
/// resolutions × clean/quarantined graphs × cold/warm cache.
#[test]
fn engine_equivalence_suite() {
    let seed = suite_seed();
    let s = suite_scenario(seed);
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
            let batched: Vec<_> =
                batch.iter().map(|(plan, kind)| plan.execute(&s.tracked.store, *kind)).collect();
            for (i, expect) in scalar.iter().enumerate() {
                assert_outcomes_identical(&batched[i], expect, "suite: batched vs scalar");
            }
        }
    }
}
