//! End-to-end pipeline integration: city generation → workload → tracking →
//! sampling → query answering, across every workspace crate.

use stq::core::prelude::*;
use stq::sampling::{sample, SamplingMethod};

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        junctions: 250,
        mix: WorkloadMix { random_waypoint: 25, commuter: 20, transit: 10 },
        seed: 99,
        ..Default::default()
    })
}

#[test]
fn full_pipeline_produces_consistent_answers() {
    let s = scenario();
    let sensing = &s.sensing;

    // Every sampling method builds a working sampled graph end to end.
    let cands = sensing.sensor_candidates();
    let m = cands.len() / 5;
    let queries = s.make_queries(10, 0.08, 2_000.0, 5);
    for method in SamplingMethod::ALL {
        let ids = sample(method, &cands, m, 11);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(sensing, &faces, Connectivity::Triangulation);
        assert!(g.num_monitored_edges() > 0, "{method:?}");
        for (q, t0, t1) in &queries {
            let out = answer(
                sensing,
                &g,
                &s.tracked.store,
                q,
                QueryKind::Transient(*t0, *t1),
                Approximation::Lower,
            );
            assert!(out.value.is_finite());
            if !out.miss {
                assert!(out.nodes_accessed > 0);
                assert!(out.edges_accessed > 0);
            }
        }
    }
}

#[test]
fn unsampled_graph_is_exact_for_all_query_kinds() {
    let s = scenario();
    let sensing = &s.sensing;
    let g = SampledGraph::unsampled(sensing);
    for (q, t0, t1) in s.make_queries(15, 0.1, 1_500.0, 13) {
        let inside = |j: usize| q.contains(j);
        let snap = answer(
            sensing,
            &g,
            &s.tracked.store,
            &q,
            QueryKind::Snapshot(t0),
            Approximation::Lower,
        );
        assert_eq!(snap.value, s.tracked.oracle.snapshot_count(&inside, t0) as f64);

        let tr = answer(
            sensing,
            &g,
            &s.tracked.store,
            &q,
            QueryKind::Transient(t0, t1),
            Approximation::Lower,
        );
        assert_eq!(tr.value, s.tracked.oracle.transient_count(&inside, t0, t1) as f64);

        let st = answer(
            sensing,
            &g,
            &s.tracked.store,
            &q,
            QueryKind::Static(t0, t1),
            Approximation::Lower,
        );
        let exact_static = s.tracked.oracle.static_interval_count(&inside, t0, t1) as f64;
        assert!(st.value + 1e-9 >= exact_static, "static estimator upper-bounds the oracle");
    }
}

#[test]
fn submodular_pipeline_end_to_end() {
    let s = scenario();
    let sensing = &s.sensing;
    let historical = s.historical_regions(30, 0.08, 21);
    let g = SampledGraph::from_submodular(sensing, &historical, 300.0);
    assert!(g.num_monitored_edges() > 0);
    assert!(g.num_monitored_edges() <= 300);

    // Queries drawn from the same distribution as the historical regions
    // should mostly resolve (low miss rate).
    let queries = s.make_queries(30, 0.08, 1_000.0, 21); // same seed → same regions
    let misses = queries
        .iter()
        .filter(|(q, t0, _)| {
            answer(sensing, &g, &s.tracked.store, q, QueryKind::Snapshot(*t0), Approximation::Lower)
                .miss
        })
        .count();
    assert!(
        misses <= queries.len() / 2,
        "submodular graph missed {misses}/30 in-distribution queries"
    );
}

#[test]
fn network_simulator_agrees_with_query_engine() {
    // The perimeter sensors the query engine reports can actually be
    // contacted in the communication topology within reasonable cost.
    let s = scenario();
    let sensing = &s.sensing;
    let cands = sensing.sensor_candidates();
    let ids = sample(SamplingMethod::QuadTree, &cands, cands.len() / 4, 3);
    let faces: Vec<usize> = ids.iter().map(|&x| x as usize).collect();
    let g = SampledGraph::from_sensors(sensing, &faces, Connectivity::Triangulation);

    // Communication topology: one node per sensing face, links = monitored
    // sensing edges between faces.
    let links: Vec<(usize, usize)> = g
        .monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(e, _)| sensing.dual().edge_faces[e])
        .filter(|&(a, b)| a != b)
        .collect();
    let net = stq::net::Network::new(sensing.num_faces(), &links);

    let (q, t0, _) = s.make_queries(1, 0.2, 1_000.0, 31).remove(0);
    let covered = g.resolve(q.junctions(), Approximation::Lower);
    if covered.is_empty() {
        return;
    }
    let (boundary, _) = sensing.boundary_walk(&covered, Some(g.monitored()));
    let perimeter = sensing.boundary_sensors(&boundary);
    assert!(!perimeter.is_empty());

    let walk = net.perimeter_traversal(perimeter[0], &perimeter);
    assert!(walk.nodes_contacted >= perimeter.len() / 2, "perimeter should be mostly reachable");
    let _ =
        answer(sensing, &g, &s.tracked.store, &q, QueryKind::Snapshot(t0), Approximation::Lower);
    // Energy accounting is finite and positive.
    let e = stq::net::EnergyModel::default().energy(&walk);
    assert!(e >= 0.0 && e.is_finite());
}

#[test]
fn map_matched_gps_reproduces_counts() {
    // Render trajectories to noisy GPS, map-match them back (§5.1.3), and
    // check the query counts stay close to the ground-truth workload's.
    // Enough objects that the central-region population is a real statistic
    // rather than a handful of objects (tiny counts make the relative-slack
    // check degenerate to its absolute floor).
    let s = Scenario::build(ScenarioConfig {
        junctions: 150,
        mix: WorkloadMix { random_waypoint: 24, commuter: 12, transit: 0 },
        seed: 7,
        ..Default::default()
    });
    let sensing = &s.sensing;
    let mut rematched = Vec::new();
    for traj in &s.trajectories {
        let fixes = stq::mobility::matching::to_gps(sensing.road(), traj, 2.0, 0.2, traj.id);
        if fixes.is_empty() {
            continue;
        }
        let m = stq::mobility::matching::map_match(sensing.road(), &fixes, traj.id);
        assert!(m.validate(sensing.road()));
        rematched.push(m);
    }
    assert!(!rematched.is_empty());
    // Both workloads yield populations of the same magnitude in a large
    // central region (map matching loses entry walks, so allow slack).
    let tracked2 = ingest(sensing, &rematched);
    let (q, t0, _) = s.make_queries(1, 0.5, 1_000.0, 3).remove(0);
    let orig = s.tracked.oracle.snapshot_count(&|j| q.contains(j), t0) as f64;
    let (b, _) = sensing.boundary_walk(q.junctions(), None);
    let matched = stq::forms::snapshot_count(&tracked2.store, &b, t0);
    assert!(
        (orig - matched).abs() <= (orig * 0.5).max(4.0),
        "matched {matched} vs original {orig}"
    );
}
