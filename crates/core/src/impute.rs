//! Probabilistic count imputation for quarantined edges, with certified
//! error bounds.
//!
//! Quarantine demotes a corrupted edge to unmonitored, which merges the
//! faces it separated and collapses query coverage. But the edge's *true*
//! net flow is not unconstrained: every fine-grained face it bounded obeys
//! the 1-form conservation law (recorded population ≥ 0, and ≤ the
//! population of whatever merged region encloses it — both computable from
//! the surviving healthy boundary alone). This module solves that constraint
//! system by **interval propagation**: each quarantined edge gets a running
//! interval for its net forward flow, and every face constraint narrows the
//! intervals of the edges on its boundary from the intervals of the others.
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
//! edges may keep a one-sided or vacuous interval — the degraded-answer
//! escalation then answers with the best structural bracket
//! ([`crate::degraded`]).

use std::collections::{HashMap, HashSet};

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

/// Population terms of one fine face, for region-sum bounds.
struct FacePop {
    /// The face's junction cells (fine components partition junctions).
    junctions: Vec<usize>,
    /// Healthy boundary terms — folded exactly.
    healthy: Vec<(usize, bool)>,
    /// Quarantined boundary terms `(variable index, sign)`.
    terms: Vec<(usize, f64)>,
    /// Cap components `(cap graph index, component id)` fully containing
    /// this face.
    caps: Vec<(usize, usize)>,
}

/// Certified net-flow intervals for quarantined edges, derived from
/// conservation residuals of the surviving healthy boundary.
///
/// Built once per quarantine outcome; [`Imputer::intervals_at`] evaluates
/// the constraint system at a query time, and [`Imputer::evaluate`] returns
/// a reusable [`Evaluation`] that additionally bounds whole-region
/// populations by summing per-face bounds.
pub struct Imputer {
    /// Edge id of each variable.
    edges: Vec<usize>,
    faces: Vec<FaceConstraint>,
    /// Every fine face (healthy ones included), for region population sums.
    face_pops: Vec<FacePop>,
    /// Inward-oriented healthy boundary of each referenced cap component.
    cap_comp_boundary: HashMap<(usize, usize), Vec<(usize, bool)>>,
    /// Fine faces fully contained in each referenced cap component.
    cap_comp_faces: HashMap<(usize, usize), Vec<usize>>,
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

    /// Midpoint point-estimate; 0 when either side is vacuous.
    pub fn point(&self) -> f64 {
        if self.is_finite() {
            0.5 * (self.lo + self.hi)
        } else {
            0.0
        }
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
        // Cap components fully containing a junction set (containment of
        // the junction sets is what makes "face population ≤ component
        // population" a theorem — a component that merely overlaps caps
        // nothing).
        let comps_of = |junctions: &[usize]| {
            let mut keys = Vec::new();
            for (gi, (g, specs)) in cap_graphs.iter().zip(&cap_specs).enumerate() {
                let comp = g.component_of(junctions[0]);
                if comp == g.ext_component()
                    || !junctions.iter().all(|&j| g.component_of(j) == comp)
                {
                    continue;
                }
                if specs.contains_key(&comp) {
                    keys.push((gi, comp));
                }
            }
            keys
        };
        let boundaries_for = |caps: &[(usize, usize)]| {
            caps.iter().map(|&(gi, c)| cap_specs[gi][&c].clone()).collect::<Vec<_>>()
        };

        // Per-face data: boundary split into healthy terms and variables,
        // junction set, and containing cap components. Fully healthy faces
        // carry no constraint but still contribute exact population terms
        // to region sums.
        let mut face_pops: Vec<FacePop> = Vec::new();
        let mut cap_comp_boundary: HashMap<(usize, usize), Vec<(usize, bool)>> = HashMap::new();
        let mut cap_comp_faces: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for spec in fine.audit_components(sensing) {
            let mut healthy = Vec::new();
            let mut terms = Vec::new();
            for &(e, inward_forward) in &spec.boundary {
                match var_of.get(&e) {
                    Some(&v) => terms.push((v, if inward_forward { 1.0 } else { -1.0 })),
                    None => healthy.push((e, inward_forward)),
                }
            }
            let junctions = fine.components()[spec.id].clone();
            let caps = comps_of(&junctions);
            for &k in &caps {
                cap_comp_boundary.entry(k).or_insert_with(|| cap_specs[k.0][&k.1].clone());
                cap_comp_faces.entry(k).or_default().push(face_pops.len());
            }
            face_pops.push(FacePop { junctions, healthy, terms, caps });
        }

        // Raw constrained faces feed the narrowing system and its unions:
        // (healthy boundary, quarantined terms, junction cells) per face.
        type RawFace = (Vec<(usize, bool)>, Vec<(usize, f64)>, Vec<usize>);
        let raw: Vec<RawFace> = face_pops
            .iter()
            .filter(|f| !f.terms.is_empty())
            .map(|f| (f.healthy.clone(), f.terms.clone(), f.junctions.clone()))
            .collect();

        let mut faces = Vec::new();
        for (healthy, terms, junctions) in &raw {
            faces.push(FaceConstraint {
                healthy: healthy.clone(),
                terms: terms.clone(),
                cap_boundaries: boundaries_for(&comps_of(junctions)),
            });
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
        for i in 0..raw.len() {
            for j in (i + 1)..raw.len() {
                if !raw[i].1.iter().any(|&(v, _)| raw[j].1.iter().any(|&(w, _)| w == v)) {
                    continue;
                }
                let mut merged: HashMap<usize, f64> = HashMap::new();
                for &(v, s) in raw[i].1.iter().chain(&raw[j].1) {
                    *merged.entry(v).or_insert(0.0) += s;
                }
                let terms: Vec<(usize, f64)> =
                    merged.into_iter().filter(|&(_, s)| s != 0.0).collect();
                if terms.is_empty() {
                    continue;
                }
                let healthy: Vec<(usize, bool)> =
                    raw[i].0.iter().chain(&raw[j].0).copied().collect();
                let junctions: Vec<usize> = raw[i].2.iter().chain(&raw[j].2).copied().collect();
                let cap_boundaries = boundaries_for(&comps_of(&junctions));
                if cap_boundaries.is_empty() && terms.len() >= raw[i].1.len() + raw[j].1.len() {
                    continue; // nothing cancelled and nothing caps: no new information
                }
                faces.push(FaceConstraint { healthy, terms, cap_boundaries });
            }
        }
        Imputer { edges, faces, face_pops, cap_comp_boundary, cap_comp_faces, rounds: 12 }
    }

    /// The quarantined edges with a variable (monitored in the fine graph).
    pub fn edges(&self) -> &[usize] {
        &self.edges
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
        self.evaluate(store, t).intervals
    }

    /// Runs one propagation of the constraint system at time `t` and
    /// returns a reusable snapshot: per-edge intervals plus per-face
    /// population bounds for certified region sums.
    pub fn evaluate<S: CountSource + ?Sized>(&self, store: &S, t: Time) -> Evaluation<'_> {
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
        let intervals: HashMap<usize, ImputedInterval> = self
            .edges
            .iter()
            .zip(lo.iter().zip(&hi))
            .map(|(&e, (&l, &h))| (e, ImputedInterval { lo: l, hi: h }))
            .collect();

        // Per-face population bounds from the narrowed intervals: exact for
        // fully healthy faces, `[max(0, lo-fold), hi-fold]` otherwise (the
        // upper fold may stay vacuous).
        let mut face_lo = Vec::with_capacity(self.face_pops.len());
        let mut face_hi = Vec::with_capacity(self.face_pops.len());
        let mut face_exact = Vec::with_capacity(self.face_pops.len());
        for f in &self.face_pops {
            let h: f64 = f.healthy.iter().map(|&(e, iw)| net(e, iw)).sum();
            if f.terms.is_empty() {
                face_lo.push(h.max(0.0));
                face_hi.push(h.max(0.0));
                face_exact.push(true);
            } else {
                let (mut lo_acc, mut hi_acc) = (h, h);
                for &(v, s) in &f.terms {
                    let (a, b) = if s > 0.0 { (lo[v], hi[v]) } else { (-hi[v], -lo[v]) };
                    lo_acc += a;
                    hi_acc += b;
                }
                let lo_acc = lo_acc.max(0.0);
                face_lo.push(lo_acc);
                face_hi.push(hi_acc.max(lo_acc));
                face_exact.push(false);
            }
        }
        let cap_pop: HashMap<(usize, usize), f64> = self
            .cap_comp_boundary
            .iter()
            .map(|(&k, b)| (k, b.iter().map(|&(e, iw)| net(e, iw)).sum::<f64>().max(0.0)))
            .collect();

        Evaluation { imp: self, intervals, face_lo, face_hi, face_exact, cap_pop }
    }
}

/// Certified population bounds for a region, from [`Evaluation::region_bounds`].
#[derive(Clone, Copy, Debug)]
pub struct RegionBounds {
    /// Certified lower bound on the region's population (finite, ≥ 0).
    pub lower: f64,
    /// Certified upper bound (may be `+∞` when some face has no cap or the
    /// fine faces do not tile the region).
    pub upper: f64,
    /// Faces folded exactly from healthy logs.
    pub exact_faces: usize,
    /// Fine faces tiling the region.
    pub faces: usize,
    /// Junction cells of faces whose lower bound carries information
    /// (exact, or certified strictly positive) — the resolution the lower
    /// bound can honestly claim.
    pub informative_cells: usize,
}

/// One propagated snapshot of the constraint system at a fixed time.
pub struct Evaluation<'a> {
    imp: &'a Imputer,
    /// Certified per-edge net-flow intervals, keyed by edge id.
    pub intervals: HashMap<usize, ImputedInterval>,
    face_lo: Vec<f64>,
    face_hi: Vec<f64>,
    face_exact: Vec<bool>,
    cap_pop: HashMap<(usize, usize), f64>,
}

impl Evaluation<'_> {
    /// The certified interval for one quarantined edge, if it has a variable.
    pub fn interval(&self, edge: usize) -> Option<ImputedInterval> {
        self.intervals.get(&edge).copied()
    }

    /// Certified population bounds for the region whose junction cells are
    /// exactly `interior`, by summing per-face bounds over the fine faces
    /// inside it.
    ///
    /// The lower bound is always sound: the selected faces are disjoint
    /// sub-regions, so their certified lowers add. The upper bound is only
    /// claimed when the selected faces *tile* the region (fine components
    /// partition junction cells, so a junction-count match proves it); a
    /// face whose interval fold stays vacuous falls back to the population
    /// of a containing cap component, minus the certified lowers of the
    /// other faces that component contains — grouped so a component is
    /// spent only once however many vacuous faces it covers.
    pub fn region_bounds(&self, interior: &[usize]) -> RegionBounds {
        let set: HashSet<usize> = interior.iter().copied().collect();
        let mut selected = Vec::new();
        let mut covered = 0usize;
        for (i, f) in self.imp.face_pops.iter().enumerate() {
            if !f.junctions.is_empty() && f.junctions.iter().all(|j| set.contains(j)) {
                selected.push(i);
                covered += f.junctions.len();
            }
        }
        let lower: f64 = selected.iter().map(|&i| self.face_lo[i]).sum();
        let exact_faces = selected.iter().filter(|&&i| self.face_exact[i]).count();
        let informative_cells = selected
            .iter()
            .filter(|&&i| self.face_exact[i] || self.face_lo[i] > 0.0)
            .map(|&i| self.imp.face_pops[i].junctions.len())
            .sum();

        let mut upper = 0.0f64;
        if covered != set.len() {
            upper = f64::INFINITY; // fine faces do not tile the region
        } else {
            let mut groups: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
            for &i in &selected {
                if self.face_hi[i].is_finite() {
                    upper += self.face_hi[i];
                    continue;
                }
                // Tightest containing cap by raw population.
                let best = self.imp.face_pops[i]
                    .caps
                    .iter()
                    .filter_map(|k| self.cap_pop.get(k).map(|&p| (*k, p)))
                    .min_by(|a, b| a.1.total_cmp(&b.1));
                match best {
                    Some((k, _)) => groups.entry(k).or_default().push(i),
                    None => {
                        upper = f64::INFINITY;
                        break;
                    }
                }
            }
            if upper.is_finite() {
                for (k, members) in &groups {
                    let mut residual = self.cap_pop[k];
                    for &fi in &self.imp.cap_comp_faces[k] {
                        if !members.contains(&fi) {
                            residual -= self.face_lo[fi];
                        }
                    }
                    upper += residual.max(0.0);
                }
            }
        }
        RegionBounds {
            lower,
            upper: upper.max(lower),
            exact_faces,
            faces: selected.len(),
            informative_cells,
        }
    }

    /// Certified upper bound on the population of any sub-region of an
    /// all-healthy *enclosure* that is disjoint from the fine faces counted
    /// off: the enclosure's exact population minus the certified lowers of
    /// every contained face that shares no junction cell with `kept` (a
    /// strictly increasing junction slice).
    /// Returns the bound and the junction cells the certificate cannot
    /// distinguish from the kept region (its effective resolution).
    ///
    /// Sound because the kept sub-region and the subtracted faces are
    /// disjoint sub-regions of the enclosure, so their populations add to
    /// at most the enclosure's.
    pub fn enclosure_upper(
        &self,
        enclosure_pop: f64,
        enclosure_interior: &[usize],
        kept: &[usize],
    ) -> (f64, usize) {
        let inside: HashSet<usize> = enclosure_interior.iter().copied().collect();
        let mut upper = enclosure_pop;
        let mut cells = enclosure_interior.len();
        for (i, f) in self.imp.face_pops.iter().enumerate() {
            if !f.junctions.is_empty()
                && f.junctions.iter().all(|j| inside.contains(j))
                && !f.junctions.iter().any(|j| kept.binary_search(j).is_ok())
            {
                upper -= self.face_lo[i];
                // Only a face whose lower carries information sharpens the
                // certificate's resolution; a vacuous `pop ≥ 0` does not.
                if self.face_exact[i] || self.face_lo[i] > 0.0 {
                    cells = cells.saturating_sub(f.junctions.len());
                }
            }
        }
        (upper.max(0.0), cells)
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
        assert_eq!(imp.edges().len(), quarantined.len());
        assert!(imp.num_constraints() > 0);
        for &t in &[500.0, 1_500.0, 3_000.0] {
            let intervals = imp.intervals_at(&f.store, t);
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
    fn some_intervals_are_finite_and_points_lie_inside() {
        let f = fixture();
        let quarantined: Vec<usize> = boundary_edges(&f).into_iter().step_by(5).take(6).collect();
        let demoted = f.graph.demote_edges(&f.sensing, &quarantined);
        let imp = Imputer::new(&f.sensing, &f.graph, &[&demoted], &quarantined);
        let intervals = imp.intervals_at(&f.store, 2_000.0);
        let finite = intervals.values().filter(|iv| iv.is_finite()).count();
        assert!(finite > 0, "no interval narrowed to finite bounds");
        for iv in intervals.values() {
            if iv.is_finite() {
                assert!(iv.lo <= iv.point() && iv.point() <= iv.hi);
            } else {
                assert_eq!(iv.point(), 0.0);
            }
        }
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
