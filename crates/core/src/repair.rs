//! Quarantine-and-repair: turning audit verdicts into sound query answers.
//!
//! The integrity auditor ([`stq_forms::audit()`]) classifies each monitored
//! edge `Healthy`, `Suspect`, or `Dead`. This layer decides what to *do*
//! about it, in two escalating steps:
//!
//! 1. **Exact repair.** Two corruption modes are information-preserving and
//!    can be inverted in place: a flipped sensor (swap the two sequences
//!    back — accepted only when the swap clears a pre-existing conservation
//!    violation on every adjacent component) and a duplicating sensor
//!    (collapse exact-duplicate timestamps — sound because two distinct
//!    objects crossing at the *same* float instant is measure-zero for
//!    continuous motion). A repaired edge passes re-audit and keeps serving
//!    exact counts.
//! 2. **Quarantine as demotion.** Edges that stay flagged are demoted to
//!    unmonitored ([`SampledGraph::demote_edges`]). The components they
//!    separated merge, and the existing `R₂`/`R₁` resolution machinery then
//!    produces honest sub/super-regions — corrupted counts are never
//!    integrated, so no finite per-edge fallback interval is needed (none
//!    exists: an object cycling through one edge makes its net flow
//!    unbounded).
//!
//! [`answer_with_bounds`] then brackets every query kind between the
//! demoted graph's lower and upper resolutions, which is how faulty serving
//! stays sound: `lower ≤ oracle ≤ upper` holds as long as the surviving
//! monitored edges are intact.

use crate::engine::QueryPlan;
use crate::query::{Approximation, QueryKind, QueryRegion};
use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_forms::audit::{audit, conservation_violation, AuditReport, ComponentSpec};
use stq_forms::{
    snapshot_count, static_interval_lower_bound, CountSource, EdgeHealth, Evidence, FormStore,
    Time, TrackingForm,
};

/// Which exact repair was applied to an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// The two direction sequences were swapped back (flipped polarity).
    Unflip,
    /// Exact-duplicate timestamps were collapsed (duplicating sensor).
    Dedup,
}

/// One successfully repaired edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairedEdge {
    /// The repaired edge.
    pub edge: usize,
    /// How it was fixed.
    pub kind: RepairKind,
}

/// The result of the full quarantine-and-repair pass.
#[derive(Debug)]
pub struct RepairOutcome {
    /// Audit of the store as ingested, before any repair.
    pub initial: AuditReport,
    /// Audit after repairs — what the quarantine decision is based on.
    pub report: AuditReport,
    /// Edges restored exactly.
    pub repaired: Vec<RepairedEdge>,
    /// Edges demoted to unmonitored (still flagged after repair).
    pub quarantined: Vec<usize>,
    /// The patched sampled graph with quarantined edges demoted.
    pub graph: SampledGraph,
}

/// Audits `store` on `graph`, applies exact repairs in place, and demotes
/// whatever stays flagged.
pub fn quarantine_and_repair(
    sensing: &SensingGraph,
    graph: &SampledGraph,
    store: &mut FormStore,
) -> RepairOutcome {
    let monitored: Vec<usize> =
        graph.monitored().iter().enumerate().filter(|&(_, &m)| m).map(|(e, _)| e).collect();
    let comps = graph.audit_components(sensing);
    let initial = audit(store, &monitored, &comps);

    let mut repaired = Vec::new();
    for &edge in &initial.flagged() {
        let verdict = initial.verdict(edge).expect("flagged edges have verdicts");
        let non_monotone =
            verdict.evidence.iter().any(|e| matches!(e, Evidence::NonMonotone { .. }));
        if non_monotone {
            continue; // unknown clock jitter cannot be inverted
        }
        let has_dups =
            verdict.evidence.iter().any(|e| matches!(e, Evidence::DuplicateTimestamps { .. }));
        if has_dups {
            store.set_form(edge, dedup_form(store.form(edge)));
            repaired.push(RepairedEdge { edge, kind: RepairKind::Dedup });
            continue;
        }
        let conserv = verdict.evidence.iter().any(|e| matches!(e, Evidence::Conservation { .. }));
        if conserv && verdict.health == EdgeHealth::Suspect && try_unflip(store, &comps, edge) {
            repaired.push(RepairedEdge { edge, kind: RepairKind::Unflip });
        }
    }

    let report = audit(store, &monitored, &comps);
    let quarantined = report.flagged();
    // A "repair" that left the edge flagged did not actually restore it.
    repaired.retain(|r| !quarantined.contains(&r.edge));
    let graph = graph.demote_edges(sensing, &quarantined);
    RepairOutcome { initial, report, repaired, quarantined, graph }
}

/// Collapses exact-duplicate adjacent timestamps in both directions.
fn dedup_form(form: &TrackingForm) -> TrackingForm {
    let collapse = |seq: &[Time]| {
        let mut v = seq.to_vec();
        v.dedup();
        v
    };
    TrackingForm::from_sequences(collapse(form.timestamps(true)), collapse(form.timestamps(false)))
}

/// Swaps an edge's direction sequences and keeps the swap only when it
/// clears a pre-existing conservation violation on the edge's adjacent
/// components without leaving any behind.
fn try_unflip(store: &mut FormStore, comps: &[ComponentSpec], edge: usize) -> bool {
    let adjacent: Vec<&ComponentSpec> =
        comps.iter().filter(|c| c.boundary.iter().any(|&(e, _)| e == edge)).collect();
    let violated =
        |s: &FormStore| adjacent.iter().filter(|c| conservation_violation(s, c).is_some()).count();
    if violated(store) == 0 {
        return false; // nothing to clear: the flip hypothesis has no support
    }
    let form = store.form(edge);
    let swapped = TrackingForm::from_sequences(
        form.timestamps(false).to_vec(),
        form.timestamps(true).to_vec(),
    );
    let original = store.form(edge).clone();
    store.set_form(edge, swapped);
    if violated(store) == 0 {
        true
    } else {
        store.set_form(edge, original);
        false
    }
}

/// A sound bracket for one query on a (possibly quarantine-demoted) graph.
#[derive(Clone, Copy, Debug)]
pub struct BoundedAnswer {
    /// Sound lower bound on the true answer (`−∞` when even that is
    /// undetermined, e.g. a transient query whose super-region misses).
    pub lower: f64,
    /// Sound upper bound (`+∞` when the super-region touches the outside
    /// world and no finite bound exists).
    pub upper: f64,
    /// No super-region resolution exists — the bracket is vacuous.
    pub miss: bool,
    /// Honest coverage: junction cells of the enclosed sub-region over the
    /// enclosing super-region (1.0 = exact resolution, 0.0 on miss).
    pub coverage: f64,
}

impl BoundedAnswer {
    /// Whether `truth` falls inside the bracket (with float tolerance).
    pub fn contains(&self, truth: f64) -> bool {
        self.lower - 1e-9 <= truth && truth <= self.upper + 1e-9
    }

    /// Bracket width; infinite for vacuous bounds.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Answers one query as a sound `[lower, upper]` bracket on the demoted
/// graph: the enclosed sub-region `R₂` bounds from below, the enclosing
/// super-region `R₁` from above, with the per-kind bracket algebra
/// documented inline. Sound as long as the graph's monitored edges carry
/// intact data — which quarantine just arranged.
pub fn answer_with_bounds<S: CountSource + ?Sized>(
    sensing: &SensingGraph,
    graph: &SampledGraph,
    store: &S,
    query: &QueryRegion,
    kind: QueryKind,
) -> BoundedAnswer {
    let lower = QueryPlan::compile(sensing, graph, query, Approximation::Lower);
    let upper = QueryPlan::compile(sensing, graph, query, Approximation::Upper);
    bounds_from_plans(&lower, &upper, store, kind)
}

/// The bracket algebra itself, on precompiled lower/upper plans — the
/// engine-cached path the serving runtime uses ([`answer_with_bounds`] is
/// the one-shot wrapper). `lower` must be the `R₂` plan and `upper` the
/// `R₁` plan of the *same* region on the *same* graph.
pub fn bounds_from_plans<S: CountSource + ?Sized>(
    lower: &QueryPlan,
    upper: &QueryPlan,
    store: &S,
    kind: QueryKind,
) -> BoundedAnswer {
    // Population of the sub-region: 0 when it is empty (trivially sound).
    let pop_lo =
        |t: Time| if lower.miss { 0.0 } else { snapshot_count(store, &lower.boundary, t).max(0.0) };
    // Population of the super-region: unbounded when it does not resolve.
    let pop_hi = |t: Time| {
        if upper.miss {
            f64::INFINITY
        } else {
            snapshot_count(store, &upper.boundary, t)
        }
    };

    let (lo, hi) = match kind {
        // pop(R₂, t) ≤ pop(R, t) ≤ pop(R₁, t): region monotonicity of counts.
        QueryKind::Snapshot(t) => (pop_lo(t), pop_hi(t)),
        // Net change brackets from the endpoint populations:
        // pop_lo(t1) − pop_hi(t0) ≤ pop(R,t1) − pop(R,t0) ≤ pop_hi(t1) − pop_lo(t0).
        QueryKind::Transient(t0, t1) => (pop_lo(t1) - pop_hi(t0), pop_hi(t1) - pop_lo(t0)),
        // Whole-interval presence: monotone in the region, ≤ min of endpoint
        // populations; the lower estimator is itself a sound lower bound on
        // the sub-region's static count.
        QueryKind::Static(t0, t1) => (
            if lower.miss {
                0.0
            } else {
                static_interval_lower_bound(store, &lower.boundary, t0, t1).max(0.0)
            },
            pop_hi(t0).min(pop_hi(t1)).max(0.0),
        ),
    };
    let miss = upper.miss;
    let coverage =
        if miss { 0.0 } else { lower.covered_cells() as f64 / upper.covered_cells().max(1) as f64 };
    BoundedAnswer { lower: lo, upper: hi, miss, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::Connectivity;
    use crate::tracker::{ingest, ingest_with_faults};
    use stq_mobility::gen::delaunay_city;
    use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};
    use stq_net::{SensorFault, SensorFaultKind, SensorFaultPlan};

    struct Fixture {
        sensing: SensingGraph,
        graph: SampledGraph,
        trajs: Vec<stq_mobility::Trajectory>,
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
        Fixture { sensing, graph, trajs }
    }

    fn whole_horizon(edge: usize, kind: SensorFaultKind) -> SensorFaultPlan {
        SensorFaultPlan::from_faults(
            9,
            vec![SensorFault { edge, kind, from: f64::NEG_INFINITY, until: f64::INFINITY }],
        )
    }

    /// Monitored edges with enough traffic to make faults observable.
    fn busy_monitored(f: &Fixture, clean: &FormStore, min_events: usize) -> Vec<usize> {
        (0..clean.num_edges())
            .filter(|&e| {
                f.graph.monitored()[e]
                    && clean.form(e).total(true) + clean.form(e).total(false) >= min_events
            })
            .collect()
    }

    #[test]
    fn clean_store_needs_no_quarantine() {
        let f = fixture();
        let mut tracked = ingest(&f.sensing, &f.trajs);
        let out = quarantine_and_repair(&f.sensing, &f.graph, &mut tracked.store);
        assert!(out.initial.violations().is_empty(), "clean 1-forms conserve");
        assert!(out.repaired.is_empty());
        assert!(out.quarantined.is_empty(), "quarantined {:?}", out.quarantined);
    }

    #[test]
    fn flipped_edge_is_unflipped_exactly() {
        let f = fixture();
        let clean = ingest(&f.sensing, &f.trajs).store;
        let mut fixed_any = false;
        for &edge in busy_monitored(&f, &clean, 6).iter().take(12) {
            let plan = whole_horizon(edge, SensorFaultKind::Flipped);
            let mut tracked = ingest_with_faults(&f.sensing, &f.trajs, &plan);
            assert_ne!(
                tracked.store.form(edge).timestamps(true),
                clean.form(edge).timestamps(true),
                "flip must corrupt edge {edge}"
            );
            let out = quarantine_and_repair(&f.sensing, &f.graph, &mut tracked.store);
            if out.repaired.iter().any(|r| r.edge == edge && r.kind == RepairKind::Unflip) {
                assert_eq!(
                    tracked.store.form(edge).timestamps(true),
                    clean.form(edge).timestamps(true)
                );
                assert_eq!(
                    tracked.store.form(edge).timestamps(false),
                    clean.form(edge).timestamps(false)
                );
                assert!(!out.quarantined.contains(&edge));
                fixed_any = true;
            } else {
                // Not confidently repairable: must be quarantined instead.
                assert!(out.quarantined.contains(&edge), "edge {edge} neither fixed nor demoted");
            }
        }
        assert!(fixed_any, "at least one flipped edge must be exactly repaired");
    }

    #[test]
    fn duplicated_edge_is_deduped_exactly() {
        let f = fixture();
        let clean = ingest(&f.sensing, &f.trajs).store;
        let edge = busy_monitored(&f, &clean, 6)[0];
        let plan = whole_horizon(edge, SensorFaultKind::Duplicating);
        let mut tracked = ingest_with_faults(&f.sensing, &f.trajs, &plan);
        assert!(
            tracked.store.form(edge).total(true) + tracked.store.form(edge).total(false)
                > clean.form(edge).total(true) + clean.form(edge).total(false)
        );
        let out = quarantine_and_repair(&f.sensing, &f.graph, &mut tracked.store);
        assert!(out.repaired.iter().any(|r| r.edge == edge && r.kind == RepairKind::Dedup));
        assert_eq!(tracked.store.form(edge).timestamps(true), clean.form(edge).timestamps(true));
        assert_eq!(tracked.store.form(edge).timestamps(false), clean.form(edge).timestamps(false));
    }

    #[test]
    fn skewed_edge_is_quarantined_not_repaired() {
        let f = fixture();
        let clean = ingest(&f.sensing, &f.trajs).store;
        // Find a busy edge whose skew actually breaks monotonicity.
        for &edge in &busy_monitored(&f, &clean, 8) {
            let plan = whole_horizon(edge, SensorFaultKind::Skewed);
            let mut tracked = ingest_with_faults(&f.sensing, &f.trajs, &plan);
            let form = tracked.store.form(edge);
            if form.is_monotone(true) && form.is_monotone(false) {
                continue;
            }
            let out = quarantine_and_repair(&f.sensing, &f.graph, &mut tracked.store);
            assert!(out.quarantined.contains(&edge));
            assert!(!out.repaired.iter().any(|r| r.edge == edge));
            return;
        }
        panic!("no busy edge produced a non-monotone skew");
    }

    #[test]
    fn bounded_answers_are_sound_with_dead_sensors() {
        let f = fixture();
        let clean = ingest(&f.sensing, &f.trajs).store;
        let busy = busy_monitored(&f, &clean, 4);
        // Kill ~20% of the busy monitored sensors for the whole horizon.
        let dead: Vec<SensorFault> = busy
            .iter()
            .step_by(5)
            .map(|&edge| SensorFault {
                edge,
                kind: SensorFaultKind::Dead,
                from: f64::NEG_INFINITY,
                until: f64::INFINITY,
            })
            .collect();
        assert!(!dead.is_empty());
        let plan = SensorFaultPlan::from_faults(3, dead);
        let mut tracked = ingest_with_faults(&f.sensing, &f.trajs, &plan);
        let out = quarantine_and_repair(&f.sensing, &f.graph, &mut tracked.store);

        let bb = f.sensing.road().bbox();
        let rect = stq_geom::Rect::from_corners(bb.min.lerp(bb.max, 0.2), bb.min.lerp(bb.max, 0.8));
        let q = QueryRegion::from_rect(&f.sensing, rect);
        let inside = |j: usize| q.contains(j);
        for kind in [
            QueryKind::Snapshot(1_500.0),
            QueryKind::Transient(400.0, 2_200.0),
            QueryKind::Static(400.0, 2_200.0),
        ] {
            let b = answer_with_bounds(&f.sensing, &out.graph, &tracked.store, &q, kind);
            let truth = match kind {
                QueryKind::Snapshot(t) => tracked.oracle.snapshot_count(&inside, t) as f64,
                QueryKind::Transient(t0, t1) => {
                    tracked.oracle.transient_count(&inside, t0, t1) as f64
                }
                QueryKind::Static(t0, t1) => {
                    tracked.oracle.static_interval_count(&inside, t0, t1) as f64
                }
            };
            assert!(
                b.contains(truth),
                "{kind:?}: oracle {truth} outside [{}, {}]",
                b.lower,
                b.upper
            );
            assert!((0.0..=1.0).contains(&b.coverage));
        }
    }

    #[test]
    fn demotion_merges_components() {
        let f = fixture();
        let clean = ingest(&f.sensing, &f.trajs).store;
        let victims: Vec<usize> = busy_monitored(&f, &clean, 1).into_iter().take(5).collect();
        let demoted = f.graph.demote_edges(&f.sensing, &victims);
        assert!(demoted.components().len() <= f.graph.components().len());
        assert_eq!(demoted.num_monitored_edges(), f.graph.num_monitored_edges() - victims.len());
    }

    #[test]
    fn reroute_restores_granularity() {
        let f = fixture();
        let clean = ingest(&f.sensing, &f.trajs).store;
        let dead: Vec<usize> =
            busy_monitored(&f, &clean, 1).into_iter().step_by(7).take(4).collect();
        let demoted = f.graph.demote_edges(&f.sensing, &dead);
        let patched = f.graph.reroute_around(&f.sensing, &dead);
        for &e in &dead {
            assert!(!patched.monitored()[e], "dead edges stay unmonitored");
        }
        // The detours must buy back face granularity lost to plain demotion.
        assert!(
            patched.components().len() >= demoted.components().len(),
            "patched {} vs demoted {}",
            patched.components().len(),
            demoted.components().len()
        );
    }
}
