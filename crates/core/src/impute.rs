//! Conservation intervals for quarantined edges, with certified error
//! bounds.
//!
//! Quarantine demotes a corrupted edge to unmonitored, which merges the
//! faces it separated. But the edge's *true* net flow is not unconstrained:
//! every fine-grained face it bounded obeys the 1-form conservation law
//! (recorded population ≥ 0, and ≤ the population of whatever merged region
//! encloses it — both computable from the surviving healthy boundary alone).
//! This module solves that constraint system by **interval propagation**:
//! each quarantined edge gets a running interval for its net forward flow,
//! and every face constraint narrows the intervals of the edges on its
//! boundary from the intervals of the others.
//!
//! The result is *certified*: the true net flow provably lies inside every
//! returned interval, because
//!
//! 1. the initial intervals `(−∞, +∞)` trivially contain the truth,
//! 2. each narrowing step only removes values that would violate a
//!    conservation constraint the truth satisfies (face population in
//!    `[0, P_enclosing]`, with `P_enclosing` computed exactly from healthy
//!    edges), and
//! 3. intersection of sound intervals is sound.
//!
//! A single quarantined edge on an otherwise healthy face pins in one round
//! (the conservation interval of [`crate::repair`]'s step 3); chains of
//! quarantined edges narrow each other over successive rounds. Faces inside
//! the exterior merged component have no finite population cap, so their
//! edges may keep a one-sided or vacuous interval. The intervals certify
//! standing subscription brackets (`SubscriptionRegistry::certify_imputed`
//! in `stq-subscribe`); degraded answers come from the rerouted graph alone
//! ([`crate::degraded`]).

use std::collections::HashMap;

use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_forms::{CountSource, Time};

/// One face-conservation constraint over quarantined-edge variables.
struct FaceConstraint {
    /// Healthy boundary terms `(edge, inward_forward)` — summed exactly.
    healthy: Vec<(usize, bool)>,
    /// Quarantined boundary terms `(variable index, sign)`: the face's net
    /// inflow through variable `v` is `sign · x_v` where `x_v` is the net
    /// *forward* flow of the edge.
    terms: Vec<(usize, f64)>,
    /// Inward-oriented healthy boundaries of enclosing components (one per
    /// cap graph that fully contains this face's junctions) — each exact
    /// population caps this face's; evaluation takes the tightest. Empty
    /// when every cap graph merged the face into its exterior (no cap).
    cap_boundaries: Vec<Vec<(usize, bool)>>,
}

/// Certified net-flow intervals for quarantined edges, derived from
/// conservation residuals of the surviving healthy boundary.
///
/// Built once per quarantine outcome; [`Imputer::intervals_at`] evaluates
/// the constraint system at a query time.
pub struct Imputer {
    /// Edge id of each variable.
    edges: Vec<usize>,
    faces: Vec<FaceConstraint>,
    /// Narrowing rounds per evaluation (chains need one round per link).
    rounds: usize,
}

/// The per-edge result of one [`Imputer::intervals_at`] evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImputedInterval {
    /// Certified lower bound on the edge's net forward flow (may be `−∞`).
    pub lo: f64,
    /// Certified upper bound (may be `+∞`).
    pub hi: f64,
}

impl ImputedInterval {
    /// Both sides certified finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

impl Imputer {
    /// Builds the constraint system: one variable per quarantined edge that
    /// `fine` monitors, one constraint per fine-grained face whose boundary
    /// touches a variable, capped by the exact population of any
    /// `cap_graphs` component that *fully contains* the face's junctions
    /// (containment of the junction sets is what makes "face population ≤
    /// component population" a theorem — a component that merely overlaps
    /// the face caps nothing). Every cap graph must monitor no quarantined
    /// edge — its boundaries are folded as exact. The degraded answerer
    /// passes its demoted graph (a coarsening, so it always contains) and
    /// its rerouted graph (finer, so it caps tighter where it contains).
    pub fn new(
        sensing: &SensingGraph,
        fine: &SampledGraph,
        cap_graphs: &[&SampledGraph],
        quarantined: &[usize],
    ) -> Self {
        let mut var_of: HashMap<usize, usize> = HashMap::new();
        let mut edges = Vec::new();
        for &q in quarantined {
            if fine.monitored()[q] && !var_of.contains_key(&q) {
                var_of.insert(q, edges.len());
                edges.push(q);
            }
        }
        let cap_specs: Vec<HashMap<usize, Vec<(usize, bool)>>> = cap_graphs
            .iter()
            .map(|g| g.audit_components(sensing).into_iter().map(|c| (c.id, c.boundary)).collect())
            .collect();
        // The boundaries of the cap components fully containing a junction
        // set.
        let caps_of = |junctions: &[usize]| {
            let mut caps = Vec::new();
            for (g, specs) in cap_graphs.iter().zip(&cap_specs) {
                let comp = g.component_of(junctions[0]);
                if comp == g.ext_component()
                    || !junctions.iter().all(|&j| g.component_of(j) == comp)
                {
                    continue;
                }
                if let Some(boundary) = specs.get(&comp) {
                    caps.push(boundary.clone());
                }
            }
            caps
        };

        // Each fine face whose boundary touches a variable: its boundary
        // split into healthy terms and variables, and its junction cells.
        let mut faces = Vec::new();
        let mut junctions = Vec::new();
        for spec in fine.audit_components(sensing) {
            let mut healthy = Vec::new();
            let mut terms = Vec::new();
            for &(e, inward_forward) in &spec.boundary {
                match var_of.get(&e) {
                    Some(&v) => terms.push((v, if inward_forward { 1.0 } else { -1.0 })),
                    None => healthy.push((e, inward_forward)),
                }
            }
            if terms.is_empty() {
                continue;
            }
            let cells = fine.components()[spec.id].clone();
            faces.push(FaceConstraint { healthy, terms, cap_boundaries: caps_of(&cells) });
            junctions.push(cells);
        }
        // Redundant pairwise unions: two faces sharing a variable combine
        // into a constraint where the shared variable cancels symbolically
        // (it bounds both faces with opposite orientations), leaving a
        // union face with strictly fewer unknowns per constraint than the
        // chain it spans. Shared *healthy* edges appear with both
        // orientations and cancel numerically at evaluation. This is a
        // standard interval-propagation strengthening: the union is a
        // linear combination the truth satisfies, so narrowing with it is
        // as sound as with the primitive faces — it just converges where
        // per-face propagation stalls on multi-unknown faces.
        let mut unions = Vec::new();
        for i in 0..faces.len() {
            for j in (i + 1)..faces.len() {
                let (a, b) = (&faces[i], &faces[j]);
                if !a.terms.iter().any(|&(v, _)| b.terms.iter().any(|&(w, _)| w == v)) {
                    continue;
                }
                let mut merged: HashMap<usize, f64> = HashMap::new();
                for &(v, s) in a.terms.iter().chain(&b.terms) {
                    *merged.entry(v).or_insert(0.0) += s;
                }
                let terms: Vec<(usize, f64)> =
                    merged.into_iter().filter(|&(_, s)| s != 0.0).collect();
                if terms.is_empty() {
                    continue;
                }
                let healthy: Vec<(usize, bool)> =
                    a.healthy.iter().chain(&b.healthy).copied().collect();
                let cells: Vec<usize> = junctions[i].iter().chain(&junctions[j]).copied().collect();
                let cap_boundaries = caps_of(&cells);
                if cap_boundaries.is_empty() && terms.len() >= a.terms.len() + b.terms.len() {
                    continue; // nothing cancelled and nothing caps: no new information
                }
                unions.push(FaceConstraint { healthy, terms, cap_boundaries });
            }
        }
        faces.extend(unions);
        Imputer { edges, faces, rounds: 12 }
    }

    /// Number of face constraints in the system.
    pub fn num_constraints(&self) -> usize {
        self.faces.len()
    }

    /// Evaluates the constraint system at time `t`: certified intervals for
    /// each variable edge's net forward flow `count(e, →, t) − count(e, ←, t)`,
    /// keyed by edge id. Sound against any `store` whose healthy-edge counts
    /// are exact.
    pub fn intervals_at<S: CountSource + ?Sized>(
        &self,
        store: &S,
        t: Time,
    ) -> HashMap<usize, ImputedInterval> {
        let net = |e: usize, inward_forward: bool| {
            store.count_until(e, inward_forward, t) - store.count_until(e, !inward_forward, t)
        };
        // Per face: exact healthy net inflow and exact population cap.
        let residuals: Vec<(f64, f64)> = self
            .faces
            .iter()
            .map(|f| {
                let h: f64 = f.healthy.iter().map(|&(e, iw)| net(e, iw)).sum();
                let cap = f
                    .cap_boundaries
                    .iter()
                    .map(|b| b.iter().map(|&(e, iw)| net(e, iw)).sum::<f64>().max(0.0))
                    .fold(f64::INFINITY, f64::min);
                (h, cap)
            })
            .collect();

        let mut lo = vec![f64::NEG_INFINITY; self.edges.len()];
        let mut hi = vec![f64::INFINITY; self.edges.len()];
        for _ in 0..self.rounds {
            let mut changed = false;
            for (f, &(h, cap)) in self.faces.iter().zip(&residuals) {
                // Face population: 0 ≤ h + Σ sign·x ≤ cap. Narrow each term
                // from the extremes of the others.
                for (i, &(v, sign)) in f.terms.iter().enumerate() {
                    let mut others_min = 0.0f64;
                    let mut others_max = 0.0f64;
                    for (k, &(w, s)) in f.terms.iter().enumerate() {
                        if k == i {
                            continue;
                        }
                        let (a, b) = if s > 0.0 { (lo[w], hi[w]) } else { (-hi[w], -lo[w]) };
                        others_min += a;
                        others_max += b;
                    }
                    // sign·x_v ∈ [0 − h − others_max, cap − h − others_min].
                    let term_lo =
                        if others_max.is_finite() { -h - others_max } else { f64::NEG_INFINITY };
                    let term_hi = if cap.is_finite() && others_min.is_finite() {
                        cap - h - others_min
                    } else {
                        f64::INFINITY
                    };
                    let (new_lo, new_hi) =
                        if sign > 0.0 { (term_lo, term_hi) } else { (-term_hi, -term_lo) };
                    if new_lo > lo[v] + 1e-9 {
                        // Exact integer data cannot produce an empty
                        // interval; guard against float noise anyway.
                        lo[v] = new_lo.min(hi[v]);
                        changed = true;
                    }
                    if new_hi < hi[v] - 1e-9 {
                        hi[v] = new_hi.max(lo[v]);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.edges
            .iter()
            .zip(lo.iter().zip(&hi))
            .map(|(&e, (&l, &h))| (e, ImputedInterval { lo: l, hi: h }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::Connectivity;
    use crate::tracker::ingest;
    use stq_mobility::gen::delaunay_city;
    use stq_mobility::trajectory::{generate_mix, TrajectoryConfig, WorkloadMix};

    struct Fixture {
        sensing: SensingGraph,
        graph: SampledGraph,
        store: stq_forms::FormStore,
    }

    fn fixture() -> Fixture {
        let net = delaunay_city(130, 0.15, 6, 29).unwrap();
        let sensing = SensingGraph::new(net);
        let cfg =
            TrajectoryConfig { speed: 8.0, pause: 20.0, duration: 3_000.0, exit_probability: 0.3 };
        let mix = WorkloadMix { random_waypoint: 14, commuter: 9, transit: 7 };
        let trajs = generate_mix(sensing.road(), mix, cfg, 31);
        let cands = sensing.sensor_candidates();
        let m = (cands.len() / 4).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 5);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let graph = SampledGraph::from_sensors(&sensing, &faces, Connectivity::Triangulation);
        let store = ingest(&sensing, &trajs).store;
        Fixture { sensing, graph, store }
    }

    /// Monitored edges that sit on some audited face boundary.
    fn boundary_edges(f: &Fixture) -> Vec<usize> {
        let mut es: Vec<usize> = f
            .graph
            .audit_components(&f.sensing)
            .iter()
            .flat_map(|c| c.boundary.iter().map(|&(e, _)| e))
            .collect();
        es.sort_unstable();
        es.dedup();
        es
    }

    #[test]
    fn intervals_bracket_the_true_net_flow() {
        let f = fixture();
        // Quarantine a spread of boundary edges; the store keeps the *true*
        // data, so the certified intervals must contain the true net flows.
        let quarantined: Vec<usize> = boundary_edges(&f).into_iter().step_by(4).collect();
        assert!(quarantined.len() >= 3);
        let demoted = f.graph.demote_edges(&f.sensing, &quarantined);
        let imp = Imputer::new(&f.sensing, &f.graph, &[&demoted], &quarantined);
        assert!(imp.num_constraints() > 0);
        for &t in &[500.0, 1_500.0, 3_000.0] {
            let intervals = imp.intervals_at(&f.store, t);
            assert_eq!(intervals.len(), quarantined.len(), "one interval per quarantined edge");
            for &q in &quarantined {
                let x = f.store.count_until(q, true, t) - f.store.count_until(q, false, t);
                let iv = intervals[&q];
                assert!(
                    iv.lo - 1e-9 <= x && x <= iv.hi + 1e-9,
                    "edge {q} t {t}: true {x} outside [{}, {}]",
                    iv.lo,
                    iv.hi
                );
            }
        }
    }

    #[test]
    fn some_intervals_narrow_to_finite_bounds() {
        let f = fixture();
        let quarantined: Vec<usize> = boundary_edges(&f).into_iter().step_by(5).take(6).collect();
        let demoted = f.graph.demote_edges(&f.sensing, &quarantined);
        let imp = Imputer::new(&f.sensing, &f.graph, &[&demoted], &quarantined);
        let intervals = imp.intervals_at(&f.store, 2_000.0);
        let finite = intervals.values().filter(|iv| iv.is_finite()).count();
        assert!(finite > 0, "no interval narrowed to finite bounds");
        assert!(intervals.values().all(|iv| iv.lo <= iv.hi));
    }

    #[test]
    fn narrowing_tightens_chains_beyond_round_one() {
        let f = fixture();
        // Quarantine *adjacent* boundary edges of one face so no face pins
        // any variable alone: finiteness then requires propagation.
        let comps = f.graph.audit_components(&f.sensing);
        let spec = comps
            .iter()
            .filter(|c| c.boundary.len() >= 3)
            .max_by_key(|c| c.boundary.len())
            .expect("a face with a wide boundary");
        let quarantined: Vec<usize> = spec.boundary.iter().take(2).map(|&(e, _)| e).collect();
        let demoted = f.graph.demote_edges(&f.sensing, &quarantined);
        let imp = Imputer::new(&f.sensing, &f.graph, &[&demoted], &quarantined);
        let intervals = imp.intervals_at(&f.store, 2_500.0);
        for &q in &quarantined {
            let x = f.store.count_until(q, true, 2_500.0) - f.store.count_until(q, false, 2_500.0);
            let iv = intervals[&q];
            assert!(iv.lo - 1e-9 <= x && x <= iv.hi + 1e-9);
        }
    }
}
