//! # stq-sampling
//!
//! Query-oblivious sensor selection (paper §4.3): given the candidate sensor
//! locations (the nodes of the sensing graph `G`) and a budget `m`, pick the
//! communication sensors.
//!
//! Five methods, matching the paper exactly:
//!
//! - **Uniform random** — biases towards dense regions,
//! - **Systematic** — a virtual grid, one node per cell,
//! - **Stratified** — per-stratum uniform draws with weighted allocation,
//! - **kd-tree** — one node per kd-tree leaf,
//! - **QuadTree** — one node per quadtree leaf.
//!
//! Every method returns exactly `min(m, n)` *distinct* candidate ids, is
//! deterministic under the given seed, and has a weighted variant hook (the
//! paper's "query adaptive" weighting by historical query hits).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stq_geom::{Point, Rect};
use stq_spatial::{KdTree, QuadTree};

/// Candidate sensor: position plus an opaque id.
pub type Candidate = (Point, u32);

/// The query-oblivious selection methods of §4.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SamplingMethod {
    /// Uniform random sampling without replacement.
    Uniform,
    /// Systematic sampling on a virtual grid (closest to each cell centre).
    Systematic,
    /// Stratified sampling with strata from a coarse district grid and
    /// area-proportional allocation.
    Stratified,
    /// One representative per kd-tree leaf.
    KdTree,
    /// One representative per quadtree leaf.
    QuadTree,
}

impl SamplingMethod {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [SamplingMethod; 5] = [
        SamplingMethod::Uniform,
        SamplingMethod::Systematic,
        SamplingMethod::Stratified,
        SamplingMethod::KdTree,
        SamplingMethod::QuadTree,
    ];

    /// Human-readable label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            SamplingMethod::Uniform => "uniform",
            SamplingMethod::Systematic => "systematic",
            SamplingMethod::Stratified => "stratified",
            SamplingMethod::KdTree => "kd-tree",
            SamplingMethod::QuadTree => "quadtree",
        }
    }
}

/// Selects `m` candidates with the given method. Returns distinct ids;
/// if `m >= candidates.len()`, all ids are returned.
pub fn sample(method: SamplingMethod, candidates: &[Candidate], m: usize, seed: u64) -> Vec<u32> {
    let n = candidates.len();
    if m >= n {
        return candidates.iter().map(|&(_, id)| id).collect();
    }
    if m == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    match method {
        SamplingMethod::Uniform => uniform(candidates, m, &mut rng),
        SamplingMethod::Systematic => systematic(candidates, m, &mut rng),
        SamplingMethod::Stratified => stratified_grid(candidates, m, &mut rng),
        SamplingMethod::KdTree => kdtree(candidates, m, &mut rng),
        SamplingMethod::QuadTree => quadtree(candidates, m, &mut rng),
    }
}

/// Uniform sampling without replacement (partial Fisher–Yates).
pub fn uniform(candidates: &[Candidate], m: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    for i in 0..m.min(idx.len()) {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..m.min(candidates.len())].iter().map(|&i| candidates[i].1).collect()
}

/// Weighted sampling without replacement: at each draw, a candidate is
/// selected with probability proportional to its weight. The paper suggests
/// weighting nodes "by the number of times each node appeared in previous
/// queries" to make the oblivious methods query adaptive.
pub fn weighted(candidates: &[Candidate], weights: &[f64], m: usize, rng: &mut StdRng) -> Vec<u32> {
    assert_eq!(candidates.len(), weights.len(), "one weight per candidate");
    assert!(weights.iter().all(|&w| w >= 0.0), "weights must be non-negative");
    let mut w = weights.to_vec();
    let mut out = Vec::with_capacity(m.min(candidates.len()));
    for _ in 0..m.min(candidates.len()) {
        let total: f64 = w.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut x = rng.gen_range(0.0..total);
        let mut pick = w.len() - 1;
        for (i, &wi) in w.iter().enumerate() {
            x -= wi;
            if x <= 0.0 && wi > 0.0 {
                pick = i;
                break;
            }
        }
        out.push(candidates[pick].1);
        w[pick] = 0.0;
    }
    out
}

/// Systematic sampling: impose a virtual grid with ~`m` cells, select the
/// candidate closest to each cell centre, then reconcile to exactly `m`.
fn systematic(candidates: &[Candidate], m: usize, rng: &mut StdRng) -> Vec<u32> {
    let pts: Vec<Point> = candidates.iter().map(|c| c.0).collect();
    let bbox = Rect::bounding(&pts).expect("non-empty candidates");
    let aspect = (bbox.width() / bbox.height().max(1e-9)).max(1e-9);
    let ny = ((m as f64 / aspect).sqrt().ceil() as usize).max(1);
    let nx = m.div_ceil(ny).max(1);
    let cw = bbox.width() / nx as f64;
    let ch = bbox.height() / ny as f64;

    let mut best: Vec<Option<(f64, usize)>> = vec![None; nx * ny];
    for (i, &(p, _)) in candidates.iter().enumerate() {
        let ix = (((p.x - bbox.min.x) / cw.max(1e-300)) as usize).min(nx - 1);
        let iy = (((p.y - bbox.min.y) / ch.max(1e-300)) as usize).min(ny - 1);
        let centre =
            Point::new(bbox.min.x + (ix as f64 + 0.5) * cw, bbox.min.y + (iy as f64 + 0.5) * ch);
        let d = p.dist2(centre);
        let cell = &mut best[iy * nx + ix];
        if cell.map(|(bd, _)| d < bd).unwrap_or(true) {
            *cell = Some((d, i));
        }
    }
    let mut chosen: Vec<usize> = best.into_iter().flatten().map(|(_, i)| i).collect();
    reconcile(candidates, &mut chosen, m, rng);
    chosen.into_iter().map(|i| candidates[i].1).collect()
}

/// Stratified sampling with strata from a coarse `s × s` district grid
/// (`s ≈ ∜n`), allocating draws proportionally to stratum *area* (cell area
/// is constant here, so proportional to cell count with occupancy), as the
/// paper's default allocation function.
fn stratified_grid(candidates: &[Candidate], m: usize, rng: &mut StdRng) -> Vec<u32> {
    let pts: Vec<Point> = candidates.iter().map(|c| c.0).collect();
    let bbox = Rect::bounding(&pts).expect("non-empty candidates");
    let s = ((candidates.len() as f64).powf(0.25).ceil() as usize).clamp(2, 16);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); s * s];
    for (i, &(p, _)) in candidates.iter().enumerate() {
        let ix = (((p.x - bbox.min.x) / bbox.width().max(1e-300)) * s as f64)
            .min(s as f64 - 1.0)
            .max(0.0) as usize;
        let iy = (((p.y - bbox.min.y) / bbox.height().max(1e-300)) * s as f64)
            .min(s as f64 - 1.0)
            .max(0.0) as usize;
        strata[iy * s + ix].push(i);
    }
    let strata: Vec<Vec<usize>> = strata.into_iter().filter(|st| !st.is_empty()).collect();
    stratified(candidates, &strata, &vec![1.0; strata.len()], m, rng)
}

/// General stratified sampling: `strata[k]` lists candidate indices of
/// stratum `k`, sampled uniformly within; `allocation` weights (e.g. district
/// areas) decide how many draws each stratum receives.
pub fn stratified(
    candidates: &[Candidate],
    strata: &[Vec<usize>],
    allocation: &[f64],
    m: usize,
    rng: &mut StdRng,
) -> Vec<u32> {
    assert_eq!(strata.len(), allocation.len(), "one allocation weight per stratum");
    let total_alloc: f64 = allocation.iter().sum();
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    for (st, &alloc) in strata.iter().zip(allocation) {
        if st.is_empty() {
            continue;
        }
        let quota = (((m as f64) * alloc / total_alloc.max(1e-300)).round() as usize).min(st.len());
        let mut idx = st.clone();
        for i in 0..quota.min(idx.len()) {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        chosen.extend_from_slice(&idx[..quota]);
    }
    reconcile(candidates, &mut chosen, m, rng);
    chosen.into_iter().map(|i| candidates[i].1).collect()
}

/// kd-tree sampling: build a tree whose leaf count is ≈ `m`, then draw one
/// random representative per leaf.
fn kdtree(candidates: &[Candidate], m: usize, rng: &mut StdRng) -> Vec<u32> {
    let leaf_cap = candidates.len().div_ceil(m).max(1);
    let tree = KdTree::build(candidates, leaf_cap);
    let mut chosen: Vec<usize> = Vec::new();
    let id_to_index: std::collections::HashMap<u32, usize> =
        candidates.iter().enumerate().map(|(i, &(_, id))| (id, i)).collect();
    for leaf in tree.leaves() {
        let e = leaf[rng.gen_range(0..leaf.len())];
        chosen.push(id_to_index[&e.id]);
    }
    reconcile(candidates, &mut chosen, m, rng);
    chosen.into_iter().map(|i| candidates[i].1).collect()
}

/// QuadTree sampling: analogous to kd-tree sampling over quadtree leaves.
fn quadtree(candidates: &[Candidate], m: usize, rng: &mut StdRng) -> Vec<u32> {
    let leaf_cap = candidates.len().div_ceil(m).max(1);
    let tree = QuadTree::build(candidates, leaf_cap);
    let mut chosen: Vec<usize> = Vec::new();
    let id_to_index: std::collections::HashMap<u32, usize> =
        candidates.iter().enumerate().map(|(i, &(_, id))| (id, i)).collect();
    for (_, leaf) in tree.leaves() {
        let e = leaf[rng.gen_range(0..leaf.len())];
        chosen.push(id_to_index[&e.id]);
    }
    reconcile(candidates, &mut chosen, m, rng);
    chosen.into_iter().map(|i| candidates[i].1).collect()
}

/// Trims or tops up `chosen` (candidate indices) to exactly `m` distinct
/// entries: random removal when over, uniform top-up when under.
fn reconcile(candidates: &[Candidate], chosen: &mut Vec<usize>, m: usize, rng: &mut StdRng) {
    chosen.sort_unstable();
    chosen.dedup();
    while chosen.len() > m {
        let j = rng.gen_range(0..chosen.len());
        chosen.swap_remove(j);
    }
    if chosen.len() < m {
        let have: std::collections::HashSet<usize> = chosen.iter().copied().collect();
        let mut rest: Vec<usize> = (0..candidates.len()).filter(|i| !have.contains(i)).collect();
        for i in 0..rest.len() {
            let j = rng.gen_range(i..rest.len());
            rest.swap(i, j);
        }
        chosen.extend(rest.into_iter().take(m - chosen.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64) -> Vec<Candidate> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| (Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)), i as u32))
            .collect()
    }

    #[test]
    fn every_method_returns_exactly_m_distinct() {
        let cands = cloud(500, 1);
        for method in SamplingMethod::ALL {
            for &m in &[1usize, 7, 50, 200] {
                let s = sample(method, &cands, m, 42);
                assert_eq!(s.len(), m, "{method:?} m={m}");
                let mut d = s.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), m, "{method:?} returned duplicates");
                assert!(s.iter().all(|&id| (id as usize) < 500));
            }
        }
    }

    #[test]
    fn m_zero_and_m_all() {
        let cands = cloud(20, 2);
        for method in SamplingMethod::ALL {
            assert!(sample(method, &cands, 0, 1).is_empty());
            assert_eq!(sample(method, &cands, 20, 1).len(), 20);
            assert_eq!(sample(method, &cands, 100, 1).len(), 20);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cands = cloud(300, 3);
        for method in SamplingMethod::ALL {
            let a = sample(method, &cands, 40, 7);
            let b = sample(method, &cands, 40, 7);
            assert_eq!(a, b, "{method:?} not deterministic");
        }
    }

    #[test]
    fn systematic_spreads_spatially() {
        // Two dense clusters + sparse background: systematic sampling must
        // not put everything in the clusters.
        let mut rng = StdRng::seed_from_u64(5);
        let mut cands = Vec::new();
        for i in 0..400u32 {
            let p = if i < 180 {
                Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0))
            } else if i < 360 {
                Point::new(rng.gen_range(90.0..100.0), rng.gen_range(90.0..100.0))
            } else {
                Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))
            };
            cands.push((p, i));
        }
        let sys = sample(SamplingMethod::Systematic, &cands, 40, 11);
        let uni = sample(SamplingMethod::Uniform, &cands, 40, 11);
        let mid_count = |ids: &[u32]| {
            ids.iter()
                .filter(|&&id| {
                    let p = cands[id as usize].0;
                    p.x > 15.0 && p.x < 85.0 && p.y > 15.0 && p.y < 85.0
                })
                .count()
        };
        assert!(
            mid_count(&sys) > mid_count(&uni),
            "systematic should cover the sparse middle better"
        );
    }

    #[test]
    fn weighted_prefers_heavy_candidates() {
        let cands = cloud(100, 9);
        let mut weights = vec![0.001; 100];
        for w in weights.iter_mut().take(10) {
            *w = 1000.0;
        }
        let mut rng = StdRng::seed_from_u64(13);
        let s = weighted(&cands, &weights, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let heavy = s.iter().filter(|&&id| id < 10).count();
        assert!(heavy >= 8, "expected mostly heavy picks, got {heavy}");
    }

    #[test]
    fn weighted_zero_total_stops() {
        let cands = cloud(5, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let s = weighted(&cands, &[0.0; 5], 3, &mut rng);
        assert!(s.is_empty());
    }

    #[test]
    fn stratified_respects_allocation() {
        let cands = cloud(200, 17);
        // Two strata: left/right half.
        let left: Vec<usize> = (0..200).filter(|&i| cands[i].0.x < 50.0).collect();
        let right: Vec<usize> = (0..200).filter(|&i| cands[i].0.x >= 50.0).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let s = stratified(&cands, &[left, right], &[3.0, 1.0], 40, &mut rng);
        assert_eq!(s.len(), 40);
        let left_n = s.iter().filter(|&&id| cands[id as usize].0.x < 50.0).count();
        // 3:1 allocation → roughly 30 from the left (tolerate reconcile noise).
        assert!(left_n >= 24, "left got {left_n}");
    }

    #[test]
    #[should_panic(expected = "one weight per candidate")]
    fn weighted_length_mismatch_panics() {
        let cands = cloud(3, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = weighted(&cands, &[1.0], 2, &mut rng);
    }
}
