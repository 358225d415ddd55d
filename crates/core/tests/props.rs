//! Framework-level property tests: on randomly generated cities, workloads
//! and deployments, the paper's structural guarantees hold.

use proptest::prelude::*;
use stq_core::prelude::*;
use stq_forms::snapshot_count;
use stq_geom::Rect;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactness on the unsampled graph for arbitrary rectangles and times.
    #[test]
    fn unsampled_snapshot_is_exact(s in small_scenario(),
                                   fx in 0.0f64..0.6, fy in 0.0f64..0.6,
                                   w in 0.2f64..0.4, t_frac in 0.05f64..0.95) {
        let bb = s.sensing.road().bbox();
        let rect = Rect::from_corners(
            bb.min.lerp(bb.max, fx),
            bb.min.lerp(bb.max, (fx + w).min(1.0)).midpoint(bb.min.lerp(bb.max, (fy + w).min(1.0))),
        );
        let q = QueryRegion::from_rect(&s.sensing, rect);
        if q.is_empty() { return Ok(()); }
        let t = 1_500.0 * t_frac;
        let (boundary, _) = s.sensing.boundary_walk(q.junctions(), None);
        let formed = snapshot_count(&s.tracked.store, &boundary, t);
        let truth = s.tracked.oracle.snapshot_count(&|j| q.contains(j), t) as f64;
        prop_assert_eq!(formed, truth);
    }

    /// Lower/upper bracket the truth on random sampled deployments.
    #[test]
    fn bounds_bracket_for_random_deployments(s in small_scenario(),
                                             frac in 0.05f64..0.6,
                                             seed in 0u64..100,
                                             knn in proptest::option::of(2usize..7)) {
        let cands = s.sensing.sensor_candidates();
        let m = ((cands.len() as f64 * frac) as usize).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, m, seed);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let conn = match knn {
            Some(k) => Connectivity::Knn(k),
            None => Connectivity::Triangulation,
        };
        let g = SampledGraph::from_sensors(&s.sensing, &faces, conn);

        let (q, t0, _) = s.make_queries(1, 0.15, 300.0, seed ^ 0x77).remove(0);
        let kind = QueryKind::Snapshot(t0);
        let truth = ground_truth(&s.sensing, &s.tracked.store, &q, kind);
        let lo = answer(&s.sensing, &g, &s.tracked.store, &q, kind, Approximation::Lower);
        let hi = answer(&s.sensing, &g, &s.tracked.store, &q, kind, Approximation::Upper);
        if !lo.miss {
            prop_assert!(lo.value <= truth + 1e-9, "lower {} > truth {truth}", lo.value);
        }
        if !hi.miss {
            prop_assert!(hi.value + 1e-9 >= truth, "upper {} < truth {truth}", hi.value);
        }
    }

    /// Structural duality invariants of every sampled deployment.
    #[test]
    fn sampled_graph_invariants(s in small_scenario(), frac in 0.05f64..0.7, seed in 0u64..100) {
        let cands = s.sensing.sensor_candidates();
        let m = ((cands.len() as f64 * frac) as usize).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, seed);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);

        let emb = s.sensing.road().embedding();
        // Unmonitored edges never straddle components; component boundaries
        // are fully monitored.
        for (e, &(u, v)) in emb.edges().iter().enumerate() {
            if !g.monitored()[e] {
                prop_assert_eq!(g.component_of(u), g.component_of(v));
            }
        }
        for comp in g.components().iter().take(20) {
            for be in s.sensing.boundary_walk(comp, None).0 {
                prop_assert!(g.monitored()[be.edge]);
            }
        }
        // Components partition all junctions + v_ext.
        let total: usize = g.components().iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, emb.num_vertices());
    }

    /// Streaming ingestion with bounded skew reproduces batch counts
    /// exactly when fed into an exact store.
    #[test]
    fn streaming_equals_batch(s in small_scenario(), skew in 1.0f64..50.0, seed in 0u64..50) {
        use rand::{Rng, SeedableRng};
        let mut events: Vec<Crossing> = s
            .trajectories
            .iter()
            .flat_map(|t| crossings_of(&s.sensing, t))
            .collect();
        // Jitter arrival order within the skew bound.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut arrivals: Vec<(f64, Crossing)> =
            events.iter().map(|&c| (c.time + rng.gen_range(0.0..skew * 0.99), c)).collect();
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

        let mut tracker = StreamTracker::new(skew);
        let mut store = stq_forms::FormStore::new(s.sensing.num_edges());
        let mut released = Vec::new();
        for (_, ev) in arrivals {
            released.extend(tracker.offer(ev).expect("within skew bound"));
        }
        released.extend(tracker.finish());
        prop_assert_eq!(released.len(), events.len());
        for ev in released {
            store.record(ev.edge, ev.forward, ev.time);
        }

        // Same counts as the batch-built store, everywhere.
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
        let t_probe = 750.0;
        for e in (0..s.sensing.num_edges()).step_by(7) {
            prop_assert_eq!(
                store.form(e).count_until(true, t_probe),
                s.tracked.store.form(e).count_until(true, t_probe)
            );
        }
    }
}

use stq_net::{SensorFault, SensorFaultKind, SensorFaultPlan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of quarantine-and-repair under random fail-stop deaths:
    /// after demoting everything untrusted — the (heartbeat-known) dead
    /// edges, whatever the audit still flags, and any edge the repair pass
    /// rewrote — every remaining monitored log is byte-identical to a
    /// clean ingestion, so `answer_with_bounds` must bracket the oracle on
    /// all three query kinds.
    #[test]
    fn repair_bounds_bracket_oracle_under_dead_sensors(s in small_scenario(),
                                                       stride in 2usize..6,
                                                       seed in 0u64..100) {
        let cands = s.sensing.sensor_candidates();
        let m = (cands.len() / 4).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, m, seed);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);

        let dead: Vec<usize> = g.monitored().iter().enumerate()
            .filter(|&(_, &on)| on).map(|(e, _)| e)
            .step_by(stride)
            .collect();
        let plan = SensorFaultPlan::from_faults(seed, dead.iter().map(|&edge| SensorFault {
            edge,
            kind: SensorFaultKind::Dead,
            from: f64::NEG_INFINITY,
            until: f64::INFINITY,
        }).collect());
        let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);
        let out = quarantine_and_repair(&s.sensing, &g, &mut tracked.store,
                                        (0.0, 1_500.0), &RepairConfig::default());
        let untrusted: Vec<usize> = dead.iter().copied()
            .chain(out.repaired.iter().map(|r| r.edge))
            .collect();
        let graph = out.graph.demote_edges(&s.sensing, &untrusted);

        let (q, t0, t1) = s.make_queries(1, 0.2, 400.0, seed ^ 0x5d).remove(0);
        let inside = |j: usize| q.contains(j);
        for kind in [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1),
                     QueryKind::Static(t0, t1)] {
            let b = answer_with_bounds(&s.sensing, &graph, &tracked.store, &q, kind);
            let truth = match kind {
                QueryKind::Snapshot(t) => tracked.oracle.snapshot_count(&inside, t) as f64,
                QueryKind::Transient(a, z) => tracked.oracle.transient_count(&inside, a, z) as f64,
                QueryKind::Static(a, z) =>
                    tracked.oracle.static_interval_count(&inside, a, z) as f64,
            };
            prop_assert!(b.contains(truth),
                "{kind:?}: oracle {truth} outside [{}, {}] (miss {})",
                b.lower, b.upper, b.miss);
            prop_assert!((0.0..=1.0).contains(&b.coverage));
        }
    }

    /// Audit→repair is idempotent: a second cycle on the already-repaired
    /// store and demoted graph rewrites nothing — un-flip / de-dup applied
    /// twice is byte-identical to once. Without this, every re-audit (e.g.
    /// on recovery or epoch advance) would walk repaired logs further away
    /// from the truth.
    #[test]
    fn repair_cycles_are_idempotent(s in small_scenario(),
                                    flip in 0.05f64..0.25,
                                    dup in 0.05f64..0.25,
                                    seed in 0u64..100) {
        use stq_net::SensorFaultMix;
        let cands = s.sensing.sensor_candidates();
        let m = (cands.len() / 4).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, m, seed);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);

        let monitored: Vec<usize> = g.monitored().iter().enumerate()
            .filter(|&(_, &on)| on).map(|(e, _)| e).collect();
        let mix = SensorFaultMix { flipped: flip, duplicating: dup, ..SensorFaultMix::none() };
        let plan = SensorFaultPlan::generate(seed ^ 0x1de, &monitored, (0.0, 1_500.0), mix);
        let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);

        let first = quarantine_and_repair(&s.sensing, &g, &mut tracked.store,
                                          (0.0, 1_500.0), &RepairConfig::default());
        let once = tracked.store.clone();
        let second = quarantine_and_repair(&s.sensing, &first.graph, &mut tracked.store,
                                           (0.0, 1_500.0), &RepairConfig::default());
        prop_assert!(second.repaired.is_empty(),
            "second cycle rewrote {} logs on an already-repaired graph",
            second.repaired.len());
        for e in 0..once.num_edges() {
            prop_assert_eq!(once.form(e).timestamps(true), tracked.store.form(e).timestamps(true),
                "edge {} forward log changed on the second cycle", e);
            prop_assert_eq!(once.form(e).timestamps(false), tracked.store.form(e).timestamps(false),
                "edge {} backward log changed on the second cycle", e);
        }
    }
}
