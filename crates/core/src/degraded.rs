//! Degraded-mode answering: the paper's bracket on the graph rerouted
//! around the quarantine.
//!
//! Quarantine keeps answers *sound* by demoting corrupted edges, but plain
//! demotion merges the faces they separated and widens the `R₂`/`R₁`
//! resolution until coverage hits zero. The answerer instead answers on the
//! rerouted graph ([`SampledGraph::reroute_around`]): live detour cycles, up
//! to several dual rings wide, buy face granularity back. Rerouting only
//! adds live monitored edges to the set demotion keeps, so every rerouted
//! component lies inside one demoted component: the rerouted `R₂` contains
//! the demoted one and the rerouted `R₁` lies inside the demoted one. Its
//! bracket is never wider, and its coverage never lower.
//!
//! ## The honest-widening guarantee
//!
//! Every [`DegradedAnswer`] bracket is [`bounds_from_plans`] over the
//! rerouted graph's `Lower` and `Upper` plans, its value the midpoint. So
//! every non-miss bracket is finite and contains the truth whenever the
//! surviving monitored edges carry intact data — the contract of
//! [`crate::repair::answer_with_bounds`] on the rerouted graph.
//!
//! ## One generation of the quarantine
//!
//! An answerer is a pure function of the fine graph and one quarantine list:
//! it owns what that list changes — the rerouted graph and its plan cache —
//! and nothing else. A holder whose quarantine grows builds a new answerer.

use crate::engine::QueryEngine;
use crate::query::{Approximation, QueryKind, QueryRegion};
use crate::repair::{bounds_from_plans, BoundedAnswer};
use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_forms::CountSource;

/// Which graph answered a degraded consult.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradedStrategy {
    /// No edge the fine graph monitors is quarantined: the answer is the
    /// ordinary bracket.
    None,
    /// The graph rerouted around the quarantine answered.
    MultiFaceDetour,
}

impl DegradedStrategy {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DegradedStrategy::None => "none",
            DegradedStrategy::MultiFaceDetour => "detour",
        }
    }
}

/// Plan-cache capacity of the answerer's rerouted engine.
const PLAN_CACHE: usize = 128;

/// One degraded-mode answer: a certified bracket, a point estimate inside
/// it, and which graph answered.
#[derive(Clone, Copy, Debug)]
pub struct DegradedAnswer {
    /// The certified `[lower, upper]` bracket (see module docs for the
    /// honest-widening guarantee).
    pub bracket: BoundedAnswer,
    /// Point estimate, always inside the bracket: its midpoint.
    pub value: f64,
    /// The graph that produced the bracket.
    pub strategy: DegradedStrategy,
}

/// The degraded-mode answering subsystem of one quarantine generation: owns
/// the rerouted graph and the plan-caching [`QueryEngine`] of its plans.
pub struct DegradedAnswerer {
    rerouted: SampledGraph,
    engine: QueryEngine,
    /// What every answer is labelled: [`DegradedStrategy::None`] when the
    /// quarantine holds no edge the fine graph monitors.
    strategy: DegradedStrategy,
}

impl std::fmt::Debug for DegradedAnswerer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradedAnswerer")
            .field("rerouted_monitored", &self.rerouted.num_monitored_edges())
            .finish()
    }
}

impl DegradedAnswerer {
    /// Builds the subsystem for one quarantine outcome of `fine`, the
    /// pre-quarantine sampled graph. No answer reads a quarantined edge's
    /// counts: the rerouted graph monitors none of them.
    pub fn new(sensing: &SensingGraph, fine: &SampledGraph, quarantined: &[usize]) -> Self {
        let rerouted = fine.reroute_around(sensing, quarantined);
        let strategy = if quarantined.iter().any(|&e| fine.monitored()[e]) {
            DegradedStrategy::MultiFaceDetour
        } else {
            DegradedStrategy::None
        };
        DegradedAnswerer { rerouted, engine: QueryEngine::new(PLAN_CACHE), strategy }
    }

    /// The rerouted graph (for inspection and reuse by callers).
    pub fn rerouted(&self) -> &SampledGraph {
        &self.rerouted
    }

    /// Answers one query with the rerouted graph's bracket. `store`'s
    /// healthy-edge counts must be exact; it is read only on the rerouted
    /// plans' boundaries and at `kind`'s own one or two instants: the
    /// serving runtime answers over a table that holds nothing else.
    ///
    /// Every bracket rests on counts that obey conservation: no population
    /// is negative or exceeds that of a region containing it. Counts that
    /// invert the bracket break that premise (a stream of crossings no
    /// object could have made), so they certify nothing: the answer is a
    /// miss.
    pub fn answer<S: CountSource + ?Sized>(
        &self,
        sensing: &SensingGraph,
        store: &S,
        query: &QueryRegion,
        kind: QueryKind,
    ) -> DegradedAnswer {
        let (lo, _) = self.engine.plan(sensing, &self.rerouted, query, Approximation::Lower);
        let (hi, _) = self.engine.plan(sensing, &self.rerouted, query, Approximation::Upper);
        let bracket = bounds_from_plans(&lo, &hi, store, kind);
        let strategy = self.strategy;
        if bracket.lower > bracket.upper {
            let bracket = BoundedAnswer { miss: true, coverage: 0.0, ..bracket };
            return DegradedAnswer { bracket, value: 0.0, strategy };
        }
        DegradedAnswer { value: midpoint(&bracket), bracket, strategy }
    }
}

fn midpoint(b: &BoundedAnswer) -> f64 {
    if b.lower.is_finite() && b.upper.is_finite() {
        0.5 * (b.lower + b.upper)
    } else if b.lower.is_finite() {
        b.lower
    } else if b.upper.is_finite() {
        b.upper
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{answer_with_bounds, quarantine_and_repair};
    use crate::sampled::Connectivity;
    use crate::tracker::{ingest, ingest_with_faults, Tracked};
    use stq_mobility::gen::delaunay_city;
    use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};
    use stq_net::{SensorFault, SensorFaultKind, SensorFaultPlan};

    struct Fixture {
        sensing: SensingGraph,
        graph: SampledGraph,
        trajs: Vec<stq_mobility::Trajectory>,
        /// Caches the plans of `graph`, the fine graph.
        engine: QueryEngine,
    }

    fn fixture() -> Fixture {
        let net = delaunay_city(120, 0.15, 6, 23).unwrap();
        let sensing = SensingGraph::new(net);
        let cfg =
            TrajectoryConfig { speed: 8.0, pause: 20.0, duration: 3_000.0, exit_probability: 0.3 };
        let mix = WorkloadMix { random_waypoint: 15, commuter: 10, transit: 8 };
        let trajs = generate_mix(sensing.road(), mix, cfg, 77);
        let cands = sensing.sensor_candidates();
        let m = (cands.len() / 4).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 5);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let graph = SampledGraph::from_sensors(&sensing, &faces, Connectivity::Triangulation);
        Fixture { sensing, graph, trajs, engine: QueryEngine::new(64) }
    }

    /// Ingest with ~20% of busy monitored sensors dead, then mirror the
    /// serving pipeline: heartbeats demote the dead set first, the audit
    /// runs on the survivors, and whatever it quarantines and any rewritten
    /// log are distrusted on top, exactly as `sensor_failure_sweep` serves.
    fn faulted(f: &Fixture) -> (Tracked, Vec<usize>) {
        let clean = ingest(&f.sensing, &f.trajs).store;
        let busy: Vec<usize> = (0..clean.num_edges())
            .filter(|&e| {
                f.graph.monitored()[e]
                    && clean.form(e).total(true) + clean.form(e).total(false) >= 4
            })
            .collect();
        let dead_edges: Vec<usize> = busy.iter().copied().step_by(5).collect();
        let dead: Vec<SensorFault> = dead_edges
            .iter()
            .map(|&edge| SensorFault {
                edge,
                kind: SensorFaultKind::Dead,
                from: f64::NEG_INFINITY,
                until: f64::INFINITY,
            })
            .collect();
        let plan = SensorFaultPlan::from_faults(3, dead);
        let mut tracked = ingest_with_faults(&f.sensing, &f.trajs, &plan);
        let g_live = f.graph.demote_edges(&f.sensing, &dead_edges);
        let out = quarantine_and_repair(&f.sensing, &g_live, &mut tracked.store);
        let mut untrusted: Vec<usize> = out
            .quarantined
            .iter()
            .copied()
            .chain(out.repaired.iter().map(|r| r.edge))
            .chain(dead_edges.iter().copied())
            .collect();
        untrusted.sort_unstable();
        untrusted.dedup();
        (tracked, untrusted)
    }

    /// Interior rects (span 20% of the bbox) that the fine graph resolves;
    /// the escalation has something to win back on these.
    fn queries(f: &Fixture) -> Vec<(QueryRegion, QueryKind)> {
        let bb = f.sensing.road().bbox();
        let (w, h) = (bb.max.x - bb.min.x, bb.max.y - bb.min.y);
        let mut out = Vec::new();
        for (i, (cx, cy)) in
            [(0.4, 0.7), (0.5, 0.7), (0.6, 0.6), (0.6, 0.3), (0.5, 0.6)].iter().enumerate()
        {
            let rect = stq_geom::Rect::from_corners(
                stq_geom::Point { x: bb.min.x + (cx - 0.1) * w, y: bb.min.y + (cy - 0.1) * h },
                stq_geom::Point { x: bb.min.x + (cx + 0.1) * w, y: bb.min.y + (cy + 0.1) * h },
            );
            let q = QueryRegion::from_rect(&f.sensing, rect);
            let kind = match i % 3 {
                0 => QueryKind::Snapshot(1_500.0),
                1 => QueryKind::Transient(400.0, 2_200.0),
                _ => QueryKind::Static(400.0, 2_200.0),
            };
            out.push((q, kind));
        }
        out
    }

    fn oracle_truth(tracked: &Tracked, q: &QueryRegion, kind: QueryKind) -> f64 {
        let inside = |j: usize| q.contains(j);
        match kind {
            QueryKind::Snapshot(t) => tracked.oracle.snapshot_count(&inside, t) as f64,
            QueryKind::Transient(t0, t1) => tracked.oracle.transient_count(&inside, t0, t1) as f64,
            QueryKind::Static(t0, t1) => {
                tracked.oracle.static_interval_count(&inside, t0, t1) as f64
            }
        }
    }

    #[test]
    fn degraded_answers_are_sound_and_finite() {
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        assert!(!quarantined.is_empty(), "the fault plan must force quarantine");
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined);
        for (q, kind) in queries(&f) {
            let a = ans.answer(&f.sensing, &tracked.store, &q, kind);
            let truth = oracle_truth(&tracked, &q, kind);
            assert!(
                a.bracket.contains(truth),
                "{kind:?} [{}]: oracle {truth} outside [{}, {}]",
                a.strategy.label(),
                a.bracket.lower,
                a.bracket.upper
            );
            if !a.bracket.miss {
                assert!(a.bracket.width().is_finite(), "non-miss brackets stay finite");
                assert!(a.value >= a.bracket.lower - 1e-9 && a.value <= a.bracket.upper + 1e-9);
            }
            assert!((0.0..=1.0).contains(&a.bracket.coverage));
        }
    }

    #[test]
    fn escalation_never_loses_to_plain_demotion() {
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined);
        let demoted = f.graph.demote_edges(&f.sensing, &quarantined);
        let (mut gained, mut total) = (0usize, 0usize);
        for (q, kind) in queries(&f) {
            let a = ans.answer(&f.sensing, &tracked.store, &q, kind);
            let plain = answer_with_bounds(&f.sensing, &demoted, &tracked.store, &q, kind);
            assert!(
                a.bracket.coverage >= plain.coverage - 1e-12,
                "degraded coverage {} below demoted {}",
                a.bracket.coverage,
                plain.coverage
            );
            if a.bracket.coverage > plain.coverage + 1e-12 {
                gained += 1;
            }
            total += 1;
        }
        assert!(gained > 0, "escalation improved none of {total} queries");
    }

    #[test]
    fn the_answer_is_the_rerouted_graphs_bracket() {
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined);
        for (q, kind) in queries(&f) {
            let a = ans.answer(&f.sensing, &tracked.store, &q, kind);
            // The rerouted graph's bracket, its midpoint and its coverage:
            // nothing but certified resolution answers.
            let want = answer_with_bounds(&f.sensing, ans.rerouted(), &tracked.store, &q, kind);
            assert_eq!(a.strategy, DegradedStrategy::MultiFaceDetour, "{kind:?}");
            let got = [a.bracket.lower, a.bracket.upper, a.value, a.bracket.coverage];
            let want = [want.lower, want.upper, midpoint(&want), want.coverage];
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{kind:?}");
            let truth = oracle_truth(&tracked, &q, kind);
            assert!(a.bracket.contains(truth));
        }
    }

    #[test]
    fn a_fine_boundary_edge_is_quarantined_iff_the_demoted_graph_drops_it() {
        // On every edge a fine-graph plan's boundary can hold, the demoted
        // graph drops the quarantine exactly, and so does the rerouted one:
        // a detour adds only live edges, so no answer reads a quarantined
        // count. An empty quarantine reroutes nothing.
        let f = fixture();
        let (_, quarantined) = faulted(&f);
        assert!(quarantined.windows(2).all(|w| w[0] < w[1]), "sorted, for the search below");
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined);
        let demoted = f.graph.demote_edges(&f.sensing, &quarantined);
        let (mut checked, mut flagged) = (0usize, 0usize);
        for (q, _) in queries(&f) {
            for approx in [Approximation::Lower, Approximation::Upper] {
                let (plan, _) = f.engine.plan(&f.sensing, &f.graph, &q, approx);
                for be in &plan.boundary {
                    assert!(f.graph.monitored()[be.edge], "edge {} is monitored", be.edge);
                    let listed = quarantined.binary_search(&be.edge).is_ok();
                    assert_eq!(!demoted.monitored()[be.edge], listed, "edge {}", be.edge);
                    assert_eq!(!ans.rerouted().monitored()[be.edge], listed, "edge {}", be.edge);
                    checked += 1;
                    flagged += usize::from(listed);
                }
            }
        }
        assert!(checked > 0 && flagged > 0, "{flagged} of {checked} boundary edges flagged");
        assert!(demoted.num_monitored_edges() < f.graph.num_monitored_edges());
        let none = DegradedAnswerer::new(&f.sensing, &f.graph, &[]);
        assert_eq!(none.rerouted().monitored(), f.graph.monitored());
    }

    #[test]
    fn empty_quarantine_reports_strategy_none() {
        let f = fixture();
        let tracked = ingest(&f.sensing, &f.trajs);
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &[]);
        let (q, kind) = queries(&f).remove(0);
        let a = ans.answer(&f.sensing, &tracked.store, &q, kind);
        assert_eq!(a.strategy, DegradedStrategy::None);
        let plain = answer_with_bounds(&f.sensing, &f.graph, &tracked.store, &q, kind);
        assert_eq!(a.bracket.coverage, plain.coverage);
    }

    #[test]
    fn counts_that_break_conservation_certify_nothing() {
        // Every edge crossed in turn, two of three forward: no object could
        // have made these crossings, and the counts they leave can put more
        // objects in a sub-region than in a region containing it. The
        // structural bracket then inverts; the answerer must say "miss", not
        // certify an inverted bracket.
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined);
        let mut store = tracked.store.clone();
        let ne = store.num_edges();
        for i in 0..4 * ne {
            store.record(i % ne, i % 3 != 0, 10_000.0 + i as f64 * 0.25);
        }
        let t_end = 10_000.0 + ne as f64;
        let (mut inverted, mut answered) = (0, 0);
        for (q, _) in queries(&f) {
            for kind in [
                QueryKind::Snapshot(t_end),
                QueryKind::Transient(400.0, t_end),
                QueryKind::Static(10_100.0, t_end),
            ] {
                let rerouted = answer_with_bounds(&f.sensing, ans.rerouted(), &store, &q, kind);
                inverted += usize::from(rerouted.lower > rerouted.upper);
                let a = ans.answer(&f.sensing, &store, &q, kind);
                if !a.bracket.miss {
                    answered += 1;
                    assert!(a.bracket.lower <= a.bracket.upper, "{kind:?}: inverted bracket");
                }
            }
        }
        assert!(inverted > 0, "the stream must invert some structural bracket");
        eprintln!("{inverted} structural brackets inverted, {answered} answers certified");
    }
}
