//! Degraded-mode answering: useful, honestly-widened brackets under heavy
//! sensor loss.
//!
//! Quarantine keeps answers *sound* by demoting corrupted edges, but plain
//! demotion collapses utility: merged faces widen the `R₂`/`R₁` resolution
//! until coverage hits zero. This module escalates through three repair
//! strategies behind one [`DegradedPolicy`], always preferring the strongest
//! answer whose bracket is still **certified**:
//!
//! 1. [`DegradedStrategy::MultiFaceDetour`] — answer on the rerouted graph
//!    ([`SampledGraph::reroute_around_multi`]): live detour cycles, up to
//!    several dual rings wide, buy back face granularity structurally.
//! 2. [`DegradedStrategy::Imputation`] — answer on the *original* fine
//!    graph, replacing each quarantined boundary edge's net flow with its
//!    certified conservation interval ([`crate::impute::Imputer`]). When
//!    every needed interval is finite this restores the fine graph's full
//!    structural coverage, and the bracket is intersected with the rerouted
//!    one (both certified, so the intersection is too).
//! 3. [`DegradedStrategy::LearnedFallback`] — when imputation leaves a
//!    vacuous bound, per-edge `stq-learned` regressors fitted to the
//!    quarantined edges' own (suspect) logs supply a *point estimate only*,
//!    clamped into the certified bracket of the best structural strategy.
//!
//! ## The honest-widening guarantee
//!
//! Bracket endpoints only ever come from certified machinery — structural
//! demotion/detour resolution or conservation-interval arithmetic. Learned
//! predictions never touch a bound: they refine the point `value` and lower
//! the reported `confidence`, nothing else. Consequently every non-miss
//! [`DegradedAnswer`] bracket is finite and contains the truth whenever the
//! surviving monitored edges carry intact data — the same contract as
//! [`crate::repair::answer_with_bounds`], just tighter.

use std::collections::HashSet;

use crate::engine::{QueryEngine, QueryPlan};
use crate::impute::Imputer;
use crate::learned_store::LearnedStore;
use crate::query::evaluate;
use crate::query::{Approximation, QueryKind, QueryRegion};
use crate::repair::{bounds_from_plans, BoundedAnswer};
use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_forms::{static_interval_lower_bound, BoundaryEdge, CountSource, FormStore, Time};
use stq_learned::RegressorKind;

/// Which repair strategy produced a degraded answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradedStrategy {
    /// No quarantine in play: the answer is the ordinary bracket.
    None,
    /// Plain demotion resolved best (detours bought nothing here).
    Demoted,
    /// The multi-ring rerouted graph resolved best.
    MultiFaceDetour,
    /// Fine-graph resolution with certified conservation intervals.
    Imputation,
    /// Certified bracket from the best structural strategy, point value
    /// from learned regressors over the quarantined edges.
    LearnedFallback,
}

impl DegradedStrategy {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DegradedStrategy::None => "none",
            DegradedStrategy::Demoted => "demoted",
            DegradedStrategy::MultiFaceDetour => "detour",
            DegradedStrategy::Imputation => "imputed",
            DegradedStrategy::LearnedFallback => "learned",
        }
    }
}

/// Tuning for the degraded-mode escalation.
#[derive(Clone, Copy, Debug)]
pub struct DegradedPolicy {
    /// Widest dual ring the detour search may use (1 = classic single-ring).
    pub max_ring: usize,
    /// Whether conservation-interval imputation is attempted.
    pub impute: bool,
    /// Regressor family for the learned fallback (`None` disables it).
    pub learned: Option<RegressorKind>,
    /// Per-graph plan-cache capacity of the answerer's engines.
    pub plan_cache: usize,
}

impl Default for DegradedPolicy {
    fn default() -> Self {
        DegradedPolicy {
            max_ring: 3,
            impute: true,
            learned: Some(RegressorKind::PiecewiseLinear(8)),
            plan_cache: 128,
        }
    }
}

/// One degraded-mode answer: a certified bracket, a point estimate inside
/// it, and which strategy won.
#[derive(Clone, Copy, Debug)]
pub struct DegradedAnswer {
    /// The certified `[lower, upper]` bracket (see module docs for the
    /// honest-widening guarantee).
    pub bracket: BoundedAnswer,
    /// Point estimate, always inside the bracket. Midpoint for certified
    /// strategies, learned prediction (clamped) for the fallback.
    pub value: f64,
    /// The strategy that produced the bracket.
    pub strategy: DegradedStrategy,
    /// Confidence in `[0, 1]`: the structural coverage of the certifying
    /// resolution, halved for [`DegradedStrategy::LearnedFallback`]
    /// (its point value is model-based, not certified).
    pub confidence: f64,
}

/// A [`CountSource`] that serves quarantined edges from learned models and
/// everything else from the base store.
struct HybridSource<'a, S: CountSource + ?Sized> {
    base: &'a S,
    learned: &'a LearnedStore,
    quarantined: &'a HashSet<usize>,
}

impl<S: CountSource + ?Sized> CountSource for HybridSource<'_, S> {
    fn count_until(&self, edge: usize, forward: bool, t: Time) -> f64 {
        if self.quarantined.contains(&edge) {
            self.learned.count_until(edge, forward, t)
        } else {
            self.base.count_until(edge, forward, t)
        }
    }

    fn storage_bytes(&self) -> usize {
        self.base.storage_bytes() + self.learned.storage_bytes()
    }
}

/// The degraded-mode answering subsystem: owns the demoted and rerouted
/// graphs, the imputation constraint system, the learned fallback models,
/// and one plan-caching [`QueryEngine`] per graph.
pub struct DegradedAnswerer {
    policy: DegradedPolicy,
    quarantined: HashSet<usize>,
    fine: SampledGraph,
    demoted: SampledGraph,
    rerouted: SampledGraph,
    imputer: Option<Imputer>,
    learned: Option<LearnedStore>,
    fine_engine: QueryEngine,
    demoted_engine: QueryEngine,
    rerouted_engine: QueryEngine,
}

impl std::fmt::Debug for DegradedAnswerer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradedAnswerer")
            .field("quarantined", &self.quarantined.len())
            .field("policy", &self.policy)
            .field("imputer", &self.imputer.as_ref().map(|i| i.num_constraints()))
            .field("learned", &self.learned.is_some())
            .finish()
    }
}

impl DegradedAnswerer {
    /// Builds the subsystem for one quarantine outcome. `fine` is the
    /// pre-quarantine sampled graph; `store` holds the as-ingested forms
    /// (healthy edges trusted, quarantined edges suspect — the learned
    /// fallback fits on the suspect logs, the certified paths never read
    /// them).
    pub fn new(
        sensing: &SensingGraph,
        fine: &SampledGraph,
        quarantined: &[usize],
        store: &FormStore,
        policy: DegradedPolicy,
    ) -> Self {
        let demoted = fine.demote_edges(sensing, quarantined);
        let rerouted = fine.reroute_around_multi(sensing, quarantined, policy.max_ring.max(1));
        // Caps come from both surviving resolutions: the demoted graph is a
        // coarsening of the fine faces (always contains, always sound) and
        // the rerouted graph is finer (caps tighter wherever one of its
        // components provably contains a face) — the imputer takes the
        // tightest containing cap per face.
        let imputer = if policy.impute && !quarantined.is_empty() {
            Some(Imputer::new(sensing, fine, &[&demoted, &rerouted], quarantined))
        } else {
            None
        };
        let learned = policy.learned.filter(|_| !quarantined.is_empty()).map(|kind| {
            let mask: Vec<bool> =
                (0..store.num_edges()).map(|e| quarantined.contains(&e)).collect();
            LearnedStore::fit(store, Some(&mask), kind)
        });
        DegradedAnswerer {
            policy,
            quarantined: quarantined.iter().copied().collect(),
            fine: fine.clone(),
            demoted,
            rerouted,
            imputer,
            learned,
            fine_engine: QueryEngine::new(policy.plan_cache),
            demoted_engine: QueryEngine::new(policy.plan_cache),
            rerouted_engine: QueryEngine::new(policy.plan_cache),
        }
    }

    /// The rerouted graph (for inspection and reuse by callers).
    pub fn rerouted(&self) -> &SampledGraph {
        &self.rerouted
    }

    /// The demoted graph.
    pub fn demoted(&self) -> &SampledGraph {
        &self.demoted
    }

    /// The policy in force.
    pub fn policy(&self) -> &DegradedPolicy {
        &self.policy
    }

    /// The conservation-residual imputer, when the policy enabled it and
    /// the quarantine set admitted at least one face constraint. Callers
    /// use it to certify per-edge flow intervals (e.g. to tighten standing
    /// subscription brackets).
    pub fn imputer(&self) -> Option<&Imputer> {
        self.imputer.as_ref()
    }

    /// Answers one query with the escalation described in the module docs.
    /// `store`'s healthy-edge counts must be exact; its quarantined edges
    /// are never read by a certified path. `store` is read only at `kind`'s
    /// own one or two instants: the serving runtime answers over a table
    /// that holds nothing else.
    pub fn answer<S: CountSource + ?Sized>(
        &self,
        sensing: &SensingGraph,
        store: &S,
        query: &QueryRegion,
        kind: QueryKind,
    ) -> DegradedAnswer {
        // Strategy 0/1: the best purely structural bracket.
        let demoted_b =
            self.bracket_on(&self.demoted_engine, &self.demoted, sensing, store, query, kind);
        let rerouted_b =
            self.bracket_on(&self.rerouted_engine, &self.rerouted, sensing, store, query, kind);
        let (base, mut strategy) = if better(&rerouted_b, &demoted_b) {
            (rerouted_b, DegradedStrategy::MultiFaceDetour)
        } else {
            (demoted_b, DegradedStrategy::Demoted)
        };
        if self.quarantined.is_empty() {
            strategy = DegradedStrategy::None;
        }
        // Every certificate here rests on counts that obey conservation: no
        // population is negative or exceeds that of a region containing it.
        // Counts that invert the structural bracket break that premise (a
        // stream of crossings no object could have made), so they certify
        // nothing.
        if base.lower > base.upper {
            let bracket = BoundedAnswer { miss: true, coverage: 0.0, ..base };
            return DegradedAnswer { bracket, value: 0.0, strategy, confidence: 0.0 };
        }

        // Fine-graph resolution: the structural ceiling imputation can reach.
        let (fine_lo, _) = self.fine_engine.plan(sensing, &self.fine, query, Approximation::Lower);
        let (fine_hi, _) = self.fine_engine.plan(sensing, &self.fine, query, Approximation::Upper);
        let fine_cov = if fine_hi.miss {
            0.0
        } else {
            fine_lo.covered_cells() as f64 / fine_hi.covered_cells().max(1) as f64
        };
        let structurally_saturated = !base.miss && base.coverage + 1e-12 >= fine_cov;

        // Strategy 2: certified conservation-interval bracket on the fine
        // graph, intersected with the structural one. The structural upper
        // plans double as all-healthy enclosures for subtraction bounds.
        if !structurally_saturated {
            if let Some(imp) = &self.imputer {
                let (dem_hi, _) =
                    self.demoted_engine.plan(sensing, &self.demoted, query, Approximation::Upper);
                let (rer_hi, _) =
                    self.rerouted_engine.plan(sensing, &self.rerouted, query, Approximation::Upper);
                let mut enclosures: Vec<&QueryPlan> = Vec::new();
                if !dem_hi.miss {
                    enclosures.push(&dem_hi);
                }
                if !rer_hi.miss {
                    enclosures.push(&rer_hi);
                }
                if let Some(sides) =
                    self.imputed_sides(imp, store, &fine_lo, &fine_hi, query, &enclosures, kind)
                {
                    let lower = sides.lower.max(base.lower);
                    let upper = sides.upper.min(base.upper);
                    if upper.is_finite() && lower <= upper + 1e-9 {
                        // Coverage is the certified resolution of the two
                        // sides actually in use: cells the lower bound
                        // resolves over cells the upper bound cannot
                        // distinguish from the region — never below what
                        // the structural bracket already claims.
                        let coverage = (sides.lower_cells as f64 / sides.upper_cells.max(1) as f64)
                            .clamp(0.0, 1.0)
                            .max(base.coverage);
                        let bracket =
                            BoundedAnswer { lower: lower.min(upper), upper, miss: false, coverage };
                        if better(&bracket, &base) {
                            return DegradedAnswer {
                                bracket,
                                value: midpoint(&bracket),
                                strategy: DegradedStrategy::Imputation,
                                confidence: bracket.coverage,
                            };
                        }
                    }
                }
            }
            // Strategy 3: learned point estimate inside the certified
            // structural bracket.
            if let Some(models) = &self.learned {
                let hybrid =
                    HybridSource { base: store, learned: models, quarantined: &self.quarantined };
                let lo_v =
                    if fine_lo.miss { 0.0 } else { evaluate(&hybrid, &fine_lo.boundary, kind) };
                let hi_v =
                    if fine_hi.miss { lo_v } else { evaluate(&hybrid, &fine_hi.boundary, kind) };
                let value = clamp_into(0.5 * (lo_v + hi_v), &base);
                return DegradedAnswer {
                    bracket: base,
                    value,
                    strategy: DegradedStrategy::LearnedFallback,
                    confidence: 0.5 * base.coverage,
                };
            }
        }

        DegradedAnswer {
            value: midpoint(&base),
            bracket: base,
            strategy,
            confidence: base.coverage,
        }
    }

    fn bracket_on<S: CountSource + ?Sized>(
        &self,
        engine: &QueryEngine,
        graph: &SampledGraph,
        sensing: &SensingGraph,
        store: &S,
        query: &QueryRegion,
        kind: QueryKind,
    ) -> BoundedAnswer {
        let (lo, _) = engine.plan(sensing, graph, query, Approximation::Lower);
        let (hi, _) = engine.plan(sensing, graph, query, Approximation::Upper);
        bounds_from_plans(&lo, &hi, store, kind)
    }

    /// Both sides of the fine-graph bracket with quarantined boundary
    /// edges replaced by their certified intervals. A side is *genuine*
    /// when the fine-resolution fold certified a finite value for it;
    /// non-genuine sides fall back to the trivial population bound
    /// (`0` from below, vacuous from above). `None` when the fine upper
    /// plan missed the region entirely.
    #[allow(clippy::too_many_arguments)]
    fn imputed_sides<S: CountSource + ?Sized>(
        &self,
        imp: &Imputer,
        store: &S,
        lo_plan: &QueryPlan,
        hi_plan: &QueryPlan,
        query: &QueryRegion,
        enclosures: &[&QueryPlan],
        kind: QueryKind,
    ) -> Option<ImputedSides> {
        if hi_plan.miss {
            return None;
        }
        let (lo_boundary, lo_miss) = (&lo_plan.boundary, lo_plan.miss);
        let hi_boundary = &hi_plan.boundary;
        let query_cells = query.junctions();
        // Each population bound is the best of several certified routes,
        // and carries the junction-cell resolution of the route that won:
        //
        // * the boundary fold with per-edge intervals in place of
        //   quarantined terms — tightest when quarantined edges are
        //   *interior* to the region, since they cancel out of the fold;
        // * the face sum — finite whenever every vacuous face has a
        //   containing cap component, no propagation needed;
        // * (upper only) enclosure subtraction — the structural upper
        //   plans are all-healthy regions containing the query, so their
        //   exact population minus certified lowers of disjoint contained
        //   faces bounds the query's population; finite whenever any
        //   structural plan resolves the query at all.
        let pop_at = |t: Time| {
            let ev = imp.evaluate(store, t);
            let fold = |boundary: &[BoundaryEdge]| {
                let (mut lo, mut hi) = (0.0f64, 0.0f64);
                for be in boundary {
                    if self.quarantined.contains(&be.edge) {
                        let (a, b) = match ev.interval(be.edge) {
                            Some(iv) if be.inward_forward => (iv.lo, iv.hi),
                            Some(iv) => (-iv.hi, -iv.lo),
                            None => (f64::NEG_INFINITY, f64::INFINITY),
                        };
                        lo += a;
                        hi += b;
                    } else {
                        let net = store.count_until(be.edge, be.inward_forward, t)
                            - store.count_until(be.edge, !be.inward_forward, t);
                        lo += net;
                        hi += net;
                    }
                }
                (lo, hi)
            };
            let raw_lo = if lo_miss { f64::NEG_INFINITY } else { fold(lo_boundary).0 };
            let sub_rb = ev.region_bounds(&lo_plan.interior);
            let query_rb = ev.region_bounds(query_cells);
            let super_rb = ev.region_bounds(&hi_plan.interior);

            // Lower: best certified value; on ties, the route with the most
            // informative cells wins — an exact "this face is empty" is real
            // resolution even when the numeric lower stays 0.
            let mut lower =
                (raw_lo.max(0.0), if raw_lo.is_finite() { lo_plan.interior.len() } else { 0 });
            for rb in [&sub_rb, &query_rb] {
                if rb.lower > lower.0 || (rb.lower >= lower.0 && rb.informative_cells > lower.1) {
                    lower = (rb.lower, rb.informative_cells);
                }
            }

            // Upper: tightest certified value; on ties, the route whose
            // certificate confines the unknown mass to fewer cells wins.
            let fold_hi = fold(hi_boundary).1;
            let mut upper = (fold_hi, hi_plan.interior.len());
            for (rb, cells) in [(&super_rb, hi_plan.interior.len()), (&query_rb, query_cells.len())]
            {
                if rb.upper < upper.0 || (rb.upper <= upper.0 && cells < upper.1) {
                    upper = (rb.upper, cells);
                }
            }
            for ep in enclosures {
                let pop_e = evaluate(store, &ep.boundary, QueryKind::Snapshot(t));
                let (enc_hi, enc_cells) = ev.enclosure_upper(pop_e, &ep.interior, query_cells);
                if enc_hi < upper.0 || (enc_hi <= upper.0 && enc_cells < upper.1) {
                    upper = (enc_hi, enc_cells);
                }
            }
            (lower, upper)
        };
        let sides = match kind {
            QueryKind::Snapshot(t) => {
                let (lower, upper) = pop_at(t);
                ImputedSides {
                    lower: lower.0,
                    lower_cells: lower.1,
                    upper: upper.0,
                    upper_cells: upper.1,
                }
            }
            QueryKind::Transient(t0, t1) => {
                let (lower0, upper0) = pop_at(t0);
                let (lower1, upper1) = pop_at(t1);
                ImputedSides {
                    lower: lower1.0 - upper0.0,
                    lower_cells: lower1.1.min(upper0.1),
                    upper: upper1.0 - lower0.0,
                    upper_cells: upper1.1.min(lower0.1),
                }
            }
            QueryKind::Static(t0, t1) => {
                let (_, upper0) = pop_at(t0);
                let (_, upper1) = pop_at(t1);
                // The static lower estimator folds raw counts, which a
                // quarantined lower boundary would poison — fall back to 0
                // there; otherwise it is the ordinary certified bound.
                let genuine =
                    !lo_miss && !lo_boundary.iter().any(|be| self.quarantined.contains(&be.edge));
                let lower = if genuine {
                    static_interval_lower_bound(store, lo_boundary, t0, t1).max(0.0)
                } else {
                    0.0
                };
                let upper = if upper0.0 <= upper1.0 { upper0 } else { upper1 };
                ImputedSides {
                    lower,
                    lower_cells: if genuine { lo_plan.interior.len() } else { 0 },
                    upper: upper.0.max(0.0),
                    upper_cells: upper.1,
                }
            }
        };
        Some(sides)
    }
}

/// Per-side result of bounding the query population through the certified
/// imputation routes. `*_cells` is the junction-cell resolution of the
/// route that produced each side (0 when only the trivial bound held).
struct ImputedSides {
    lower: f64,
    lower_cells: usize,
    upper: f64,
    upper_cells: usize,
}

/// Coverage first, then width: is `a` a strictly more useful bracket?
fn better(a: &BoundedAnswer, b: &BoundedAnswer) -> bool {
    if a.miss != b.miss {
        return b.miss;
    }
    if (a.coverage - b.coverage).abs() > 1e-12 {
        return a.coverage > b.coverage;
    }
    a.width() < b.width()
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

fn clamp_into(v: f64, b: &BoundedAnswer) -> f64 {
    let v = if v.is_finite() { v } else { 0.0 };
    v.clamp(
        if b.lower.is_finite() { b.lower } else { f64::MIN },
        if b.upper.is_finite() { b.upper } else { f64::MAX },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{answer_with_bounds, quarantine_and_repair, RepairConfig};
    use crate::sampled::Connectivity;
    use crate::tracker::{ingest, ingest_with_faults, Tracked};
    use stq_mobility::gen::delaunay_city;
    use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};
    use stq_net::{SensorFault, SensorFaultKind, SensorFaultPlan};

    struct Fixture {
        sensing: SensingGraph,
        graph: SampledGraph,
        trajs: Vec<stq_mobility::Trajectory>,
        horizon: (f64, f64),
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
        Fixture { sensing, graph, trajs, horizon: (0.0, 3_000.0) }
    }

    /// Ingest with ~20% of busy monitored sensors dead, then mirror the
    /// serving pipeline: heartbeats demote the dead set first, the audit
    /// runs on the survivors, and only hard-evidence flags and rewritten
    /// logs are distrusted on top. Silence-only flags stay trusted — their
    /// logs are untouched — exactly as `sensor_failure_sweep` serves.
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
        let out = quarantine_and_repair(
            &f.sensing,
            &g_live,
            &mut tracked.store,
            f.horizon,
            &RepairConfig::default(),
        );
        let silence_only = |e: usize| {
            out.report.verdict(e).is_some_and(|v| {
                v.evidence.iter().all(|ev| {
                    matches!(
                        ev,
                        stq_forms::Evidence::SilentGap { .. }
                            | stq_forms::Evidence::SilentSibling { .. }
                    )
                })
            })
        };
        let mut untrusted: Vec<usize> = out
            .quarantined
            .iter()
            .copied()
            .filter(|&e| !silence_only(e))
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
        let ans = DegradedAnswerer::new(
            &f.sensing,
            &f.graph,
            &quarantined,
            &tracked.store,
            DegradedPolicy::default(),
        );
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
            assert!((0.0..=1.0).contains(&a.confidence));
            assert!((0.0..=1.0).contains(&a.bracket.coverage));
        }
    }

    #[test]
    fn escalation_never_loses_to_plain_demotion() {
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        let ans = DegradedAnswerer::new(
            &f.sensing,
            &f.graph,
            &quarantined,
            &tracked.store,
            DegradedPolicy::default(),
        );
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
    fn disabled_imputation_falls_back_to_learned_or_structural() {
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        let policy = DegradedPolicy { impute: false, ..DegradedPolicy::default() };
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined, &tracked.store, policy);
        for (q, kind) in queries(&f) {
            let a = ans.answer(&f.sensing, &tracked.store, &q, kind);
            assert_ne!(a.strategy, DegradedStrategy::Imputation);
            let truth = oracle_truth(&tracked, &q, kind);
            assert!(a.bracket.contains(truth));
        }
    }

    #[test]
    fn empty_quarantine_reports_strategy_none() {
        let f = fixture();
        let tracked = ingest(&f.sensing, &f.trajs);
        let ans = DegradedAnswerer::new(
            &f.sensing,
            &f.graph,
            &[],
            &tracked.store,
            DegradedPolicy::default(),
        );
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
        // panic clamping a learned point into it.
        let f = fixture();
        let (tracked, quarantined) = faulted(&f);
        let policy = DegradedPolicy::default();
        let ans = DegradedAnswerer::new(&f.sensing, &f.graph, &quarantined, &tracked.store, policy);
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
                let demoted = answer_with_bounds(&f.sensing, ans.demoted(), &store, &q, kind);
                inverted += usize::from(demoted.lower > demoted.upper);
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
