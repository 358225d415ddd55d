//! # stq-submod
//!
//! Submodular maximization for query-adaptive sensor selection (paper §4.4).
//!
//! The generic layer ([`greedy`], [`lazy_greedy`], [`cost_benefit_greedy`])
//! implements the classic `(1 − 1/e)`-approximate iterative greedy (Eq. 2),
//! its lazy CELF variant \[27\], and the budgeted cost-benefit rule (Eq. 4)
//! over any [`Objective`].
//!
//! The paper-specific layer partitions historical query regions into
//! disjoint **atoms** (maximal cell complexes with identical query
//! membership, Fig. 5), with utility `f(σ) = Σ_{Q ⊇ σ} ω(σ)/ω(Q)` (Eq. 6)
//! and cost `c(σ) = |∂σ|` (Eq. 5) — marginal cost drops as selected atoms
//! share boundary edges, which is precisely where submodularity pays off.
//!
//! Selection runs once, at deployment. When sensors die, nothing here
//! re-selects: the served failover is `SampledGraph::reroute_around` in
//! `stq-core`, which patches detour faces around the dead edges.

use std::collections::{BTreeMap, HashSet};

/// An objective for budgeted maximization over ground set `0..n`.
///
/// `gain` must be the *marginal* utility of adding `item` given `selected`,
/// non-increasing in `selected` (submodularity); `cost` is the marginal
/// budget consumption. Both must be non-negative.
pub trait Objective {
    /// Ground-set size.
    fn len(&self) -> usize;
    /// True when the ground set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Marginal utility of `item` given the current selection.
    fn gain(&self, selected: &[usize], item: usize) -> f64;
    /// Marginal cost of `item` given the current selection.
    fn cost(&self, selected: &[usize], item: usize) -> f64;
}

/// Plain greedy (Eq. 2): repeatedly take the feasible item with maximum
/// marginal gain until `budget` is exhausted or nothing remains. Cost is
/// whatever [`Objective::cost`] reports (use 1.0 per item for a cardinality
/// constraint).
pub fn greedy<O: Objective>(obj: &O, budget: f64) -> Vec<usize> {
    run_greedy(obj, budget, false)
}

/// Cost-benefit greedy (Eq. 4): maximizes `gain / cost` per step, subject to
/// the remaining budget. Together with plain greedy this yields the
/// `½(1 − 1/e)` guarantee of \[27\].
pub fn cost_benefit_greedy<O: Objective>(obj: &O, budget: f64) -> Vec<usize> {
    run_greedy(obj, budget, true)
}

fn run_greedy<O: Objective>(obj: &O, budget: f64, ratio: bool) -> Vec<usize> {
    let n = obj.len();
    let mut selected: Vec<usize> = Vec::new();
    let mut in_sel = vec![false; n];
    let mut spent = 0.0;
    loop {
        let mut best: Option<(f64, usize)> = None;
        for (item, &already) in in_sel.iter().enumerate() {
            if already {
                continue;
            }
            let c = obj.cost(&selected, item);
            if spent + c > budget + 1e-12 {
                continue;
            }
            let g = obj.gain(&selected, item);
            if g <= 0.0 {
                continue;
            }
            let score = if ratio { g / c.max(1e-12) } else { g };
            if best.map(|(bs, _)| score > bs).unwrap_or(true) {
                best = Some((score, item));
            }
        }
        match best {
            Some((_, item)) => {
                spent += obj.cost(&selected, item);
                selected.push(item);
                in_sel[item] = true;
            }
            None => break,
        }
    }
    selected
}

/// Lazy greedy (CELF): exploits submodularity — an item's cached gain only
/// shrinks, so re-evaluate lazily from a max-heap instead of scanning all
/// items each round. Produces the same selection as [`greedy`] /
/// [`cost_benefit_greedy`] for valid submodular objectives, typically with
/// far fewer gain evaluations. Returns `(selection, gain_evaluations)`.
pub fn lazy_greedy<O: Objective>(obj: &O, budget: f64, ratio: bool) -> (Vec<usize>, usize) {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Cand {
        score: f64,
        item: usize,
        round: usize,
    }
    impl Eq for Cand {}
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> Ordering {
            self.score.partial_cmp(&other.score).unwrap_or(Ordering::Equal)
        }
    }
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = obj.len();
    let mut selected: Vec<usize> = Vec::new();
    let mut spent = 0.0;
    let mut evals = 0usize;
    let mut heap = BinaryHeap::with_capacity(n);
    for item in 0..n {
        let c = obj.cost(&selected, item);
        let g = obj.gain(&selected, item);
        evals += 1;
        let score = if ratio { g / c.max(1e-12) } else { g };
        if g > 0.0 {
            heap.push(Cand { score, item, round: 0 });
        }
    }
    let mut round = 0usize;
    while let Some(top) = heap.pop() {
        let c = obj.cost(&selected, top.item);
        if spent + c > budget + 1e-12 {
            continue; // infeasible now; may become feasible later only if
                      // marginal costs shrink, so re-push with fresh score.
        }
        if top.round == round {
            // Fresh evaluation: take it.
            spent += c;
            selected.push(top.item);
            round += 1;
        } else {
            // Stale: re-evaluate and re-insert.
            let g = obj.gain(&selected, top.item);
            evals += 1;
            if g > 0.0 {
                let score = if ratio { g / c.max(1e-12) } else { g };
                heap.push(Cand { score, item: top.item, round });
            }
        }
    }
    (selected, evals)
}

/// Exhaustive optimum for tiny instances (tests only): best subset under the
/// budget, by total utility re-evaluated from scratch.
pub fn brute_force_best<O: Objective>(obj: &O, budget: f64) -> (Vec<usize>, f64) {
    let n = obj.len();
    assert!(n <= 20, "brute force limited to tiny ground sets");
    let mut best = (Vec::new(), 0.0f64);
    for mask in 0u32..(1 << n) {
        let mut sel: Vec<usize> = Vec::new();
        let mut cost = 0.0;
        let mut util = 0.0;
        let mut ok = true;
        for item in 0..n {
            if mask & (1 << item) != 0 {
                let c = obj.cost(&sel, item);
                if cost + c > budget + 1e-12 {
                    ok = false;
                    break;
                }
                util += obj.gain(&sel, item);
                cost += c;
                sel.push(item);
            }
        }
        if ok && util > best.1 {
            best = (sel, util);
        }
    }
    best
}

/// Total utility of a selection, accumulated marginally in order.
pub fn total_gain<O: Objective>(obj: &O, selection: &[usize]) -> f64 {
    let mut acc = 0.0;
    let mut sel: Vec<usize> = Vec::new();
    for &item in selection {
        acc += obj.gain(&sel, item);
        sel.push(item);
    }
    acc
}

// ---------------------------------------------------------------------------
// Weighted coverage objective (generic testbed + sensor-coverage example).
// ---------------------------------------------------------------------------

/// Classic weighted set cover: item `i` covers a set of elements; utility of
/// a selection is the total weight of covered elements. Monotone submodular.
#[derive(Clone, Debug)]
pub struct CoverageObjective {
    covers: Vec<Vec<usize>>,
    weights: Vec<f64>,
    costs: Vec<f64>,
}

impl CoverageObjective {
    /// `covers[i]` = elements item `i` covers; `weights[e]` = element value;
    /// `costs[i]` = item cost (use 1.0 for cardinality constraints).
    pub fn new(covers: Vec<Vec<usize>>, weights: Vec<f64>, costs: Vec<f64>) -> Self {
        assert_eq!(covers.len(), costs.len());
        CoverageObjective { covers, weights, costs }
    }

    fn covered(&self, selected: &[usize]) -> HashSet<usize> {
        selected.iter().flat_map(|&i| self.covers[i].iter().copied()).collect()
    }
}

impl Objective for CoverageObjective {
    fn len(&self) -> usize {
        self.covers.len()
    }

    fn gain(&self, selected: &[usize], item: usize) -> f64 {
        let have = self.covered(selected);
        self.covers[item].iter().filter(|e| !have.contains(e)).map(|&e| self.weights[e]).sum()
    }

    fn cost(&self, _selected: &[usize], item: usize) -> f64 {
        self.costs[item]
    }
}

// ---------------------------------------------------------------------------
// The paper's instance: query-region atoms on a junction graph.
// ---------------------------------------------------------------------------

/// A maximal cell complex with uniform query membership (Fig. 5b): a
/// connected set of junctions contained in exactly the same historical query
/// regions.
#[derive(Clone, Debug)]
pub struct Atom {
    /// Junctions (primal vertices) forming the atom.
    pub junctions: Vec<usize>,
    /// Indices of the historical queries containing the atom.
    pub queries: Vec<usize>,
    /// Edge ids on the atom's boundary (exactly one endpoint inside).
    pub boundary: Vec<usize>,
}

/// Partitions historical query regions into disjoint atoms.
///
/// `queries[q]` is the junction set of historical query `q`; `edges` is the
/// road edge list; `num_junctions` bounds the vertex ids. Junctions sharing
/// a non-empty membership signature are grouped, then split into connected
/// components so each atom is a contiguous region.
pub fn partition_atoms(
    queries: &[Vec<usize>],
    edges: &[(usize, usize)],
    num_junctions: usize,
) -> Vec<Atom> {
    // Membership signature per junction.
    let mut signature: Vec<Vec<usize>> = vec![Vec::new(); num_junctions];
    for (q, js) in queries.iter().enumerate() {
        for &j in js {
            signature[j].push(q);
        }
    }
    // Group by signature (skip empty), then connected components within.
    let mut by_sig: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
    for (j, sig) in signature.iter().enumerate() {
        if !sig.is_empty() {
            by_sig.entry(sig.clone()).or_default().push(j);
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_junctions];
    for &(u, v) in edges {
        if u < num_junctions && v < num_junctions {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    let mut atoms = Vec::new();
    for (sig, members) in by_sig {
        let member_set: HashSet<usize> = members.iter().copied().collect();
        let mut seen: HashSet<usize> = HashSet::new();
        for &start in &members {
            if seen.contains(&start) {
                continue;
            }
            // BFS within the signature class.
            let mut comp = vec![start];
            seen.insert(start);
            let mut qd = std::collections::VecDeque::from([start]);
            while let Some(u) = qd.pop_front() {
                for &v in &adj[u] {
                    if member_set.contains(&v) && seen.insert(v) {
                        comp.push(v);
                        qd.push_back(v);
                    }
                }
            }
            let comp_set: HashSet<usize> = comp.iter().copied().collect();
            let boundary = edges
                .iter()
                .enumerate()
                .filter(|&(_, &(u, v))| comp_set.contains(&u) != comp_set.contains(&v))
                .map(|(e, _)| e)
                .collect();
            comp.sort_unstable();
            atoms.push(Atom { junctions: comp, queries: sig.clone(), boundary });
        }
    }
    atoms
}

/// The paper's objective over atoms: Eq. 6 utility, Eq. 5 cost with
/// *marginal* boundary-edge accounting (shared edges are paid once).
#[derive(Clone, Debug)]
pub struct AtomObjective {
    atoms: Vec<Atom>,
    /// `ω(Q)` per historical query (its junction count).
    query_sizes: Vec<usize>,
}

impl AtomObjective {
    /// Builds the objective; `query_sizes[q] = ω(Q_q)`.
    pub fn new(atoms: Vec<Atom>, query_sizes: Vec<usize>) -> Self {
        AtomObjective { atoms, query_sizes }
    }

    /// The atoms (indexable by selection results).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// All boundary edges of a selection (deduplicated) — the monitored edge
    /// set of the query-adaptive sampled graph.
    pub fn selected_edges(&self, selection: &[usize]) -> Vec<usize> {
        let mut es: Vec<usize> =
            selection.iter().flat_map(|&a| self.atoms[a].boundary.iter().copied()).collect();
        es.sort_unstable();
        es.dedup();
        es
    }
}

impl Objective for AtomObjective {
    fn len(&self) -> usize {
        self.atoms.len()
    }

    fn gain(&self, _selected: &[usize], item: usize) -> f64 {
        // Eq. 6: atoms are disjoint, so utility is modular across atoms.
        let a = &self.atoms[item];
        a.queries
            .iter()
            .map(|&q| a.junctions.len() as f64 / self.query_sizes[q].max(1) as f64)
            .sum()
    }

    fn cost(&self, selected: &[usize], item: usize) -> f64 {
        // Eq. 5 with sharing: only newly monitored boundary edges cost.
        let have: HashSet<usize> =
            selected.iter().flat_map(|&a| self.atoms[a].boundary.iter().copied()).collect();
        self.atoms[item].boundary.iter().filter(|e| !have.contains(e)).count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_coverage() -> CoverageObjective {
        // 6 elements, 4 items.
        CoverageObjective::new(
            vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5]],
            vec![1.0; 6],
            vec![1.0; 4],
        )
    }

    #[test]
    fn greedy_matches_brute_force_guarantee() {
        let obj = toy_coverage();
        let sel = greedy(&obj, 2.0);
        let g = total_gain(&obj, &sel);
        let (_, opt) = brute_force_best(&obj, 2.0);
        assert!(g >= (1.0 - 1.0 / std::f64::consts::E) * opt, "g={g} opt={opt}");
        // On this instance greedy is actually optimal: {0, 2} covers all 6.
        assert_eq!(g, 6.0);
    }

    #[test]
    fn lazy_equals_plain_greedy() {
        let obj = toy_coverage();
        let plain = greedy(&obj, 3.0);
        let (lazy, evals) = lazy_greedy(&obj, 3.0, false);
        assert_eq!(plain, lazy);
        assert!(evals >= obj.len());
    }

    #[test]
    fn lazy_saves_evaluations_on_larger_instance() {
        // 40 items with disjoint covers: gains never change, so CELF should
        // evaluate each item exactly once.
        let covers: Vec<Vec<usize>> = (0..40).map(|i| vec![i]).collect();
        let obj = CoverageObjective::new(
            covers,
            (0..40).map(|i| i as f64 + 1.0).collect(),
            vec![1.0; 40],
        );
        let (sel, evals) = lazy_greedy(&obj, 10.0, false);
        assert_eq!(sel.len(), 10);
        // CELF pays the initial sweep plus one staleness check per round —
        // far below naive greedy's 40 × 10 = 400 evaluations.
        assert_eq!(evals, 40 + 9);
        // Picks the 10 heaviest.
        assert!(sel.iter().all(|&i| i >= 30));
    }

    #[test]
    fn cost_benefit_respects_budget() {
        let obj = CoverageObjective::new(
            vec![vec![0, 1, 2, 3], vec![0], vec![1], vec![2]],
            vec![1.0; 4],
            vec![10.0, 1.0, 1.0, 1.0],
        );
        // Budget 3: the big item is unaffordable; take the three cheap ones.
        let sel = cost_benefit_greedy(&obj, 3.0);
        assert_eq!(sel.len(), 3);
        assert!(!sel.contains(&0));
        assert_eq!(total_gain(&obj, &sel), 3.0);
    }

    #[test]
    fn greedy_empty_when_budget_zero() {
        let obj = toy_coverage();
        assert!(greedy(&obj, 0.0).is_empty());
        assert!(cost_benefit_greedy(&obj, 0.5).is_empty());
    }

    /// Figure 5: two overlapping rectangles on a path graph produce three
    /// atoms — `Q1−Q3`, `Q2−Q3` and `Q3 = Q1 ∩ Q2`.
    #[test]
    fn atoms_of_overlapping_queries() {
        // Path of 10 junctions: 0-1-...-9.
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let q1: Vec<usize> = (0..6).collect(); // junctions 0..5
        let q2: Vec<usize> = (4..10).collect(); // junctions 4..9
        let atoms = partition_atoms(&[q1, q2], &edges, 10);
        assert_eq!(atoms.len(), 3);
        let mut sizes: Vec<usize> = atoms.iter().map(|a| a.junctions.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4, 4]); // {4,5}, {0..3}, {6..9}
                                          // The intersection atom belongs to both queries.
        let inter = atoms.iter().find(|a| a.junctions == vec![4, 5]).unwrap();
        assert_eq!(inter.queries, vec![0, 1]);
        // Its boundary: edges (3,4) and (5,6).
        assert_eq!(inter.boundary.len(), 2);
    }

    #[test]
    fn disconnected_same_signature_splits() {
        // One query covering junctions {0,1} and {5,6} of a path: two atoms.
        let edges: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
        let q: Vec<usize> = vec![0, 1, 5, 6];
        let atoms = partition_atoms(&[q], &edges, 8);
        assert_eq!(atoms.len(), 2);
    }

    #[test]
    fn atom_objective_shares_boundary_cost() {
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let q1: Vec<usize> = (0..6).collect();
        let q2: Vec<usize> = (4..10).collect();
        let atoms = partition_atoms(&[q1.clone(), q2.clone()], &edges, 10);
        let obj = AtomObjective::new(atoms, vec![q1.len(), q2.len()]);
        // Select everything; shared boundary edges must be paid once.
        let all: Vec<usize> = (0..obj.len()).collect();
        let mut spent = 0.0;
        let mut sel = Vec::new();
        for &a in &all {
            spent += obj.cost(&sel, a);
            sel.push(a);
        }
        let union_edges = obj.selected_edges(&all);
        assert_eq!(spent as usize, union_edges.len());
        // Full coverage utility = 1.0 per query.
        assert!((total_gain(&obj, &all) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn atom_selection_exploits_shared_boundaries() {
        // The Fig. 5 insight, sharpened by marginal-cost sharing: on a path,
        // monitoring just 2 edges — the boundary of the intersection atom —
        // makes both flanking atoms free, so an edge budget of 2 yields FULL
        // coverage of both historical queries.
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let q1: Vec<usize> = (0..6).collect();
        let q2: Vec<usize> = (4..10).collect();
        let atoms = partition_atoms(&[q1.clone(), q2.clone()], &edges, 10);
        let obj = AtomObjective::new(atoms, vec![q1.len(), q2.len()]);
        let sel = cost_benefit_greedy(&obj, 2.0);
        assert_eq!(sel.len(), 3, "all atoms affordable thanks to edge sharing");
        assert!(obj.selected_edges(&sel).len() <= 2);
        assert!((total_gain(&obj, &sel) - 2.0).abs() < 1e-12, "both queries fully covered");
    }
}
