//! The query engine: compile a region once, execute it many times.
//!
//! Every answer path in the framework evaluates a 1-form along a region's
//! boundary chain (§4.7) — and before this layer existed, each of them
//! re-derived that chain per query: resolve the region against the sampled
//! graph, walk the boundary, then separately re-walk it for the sensor
//! count. The engine splits that work the way distributed spatial systems
//! do:
//!
//! - **Plan** ([`QueryPlan::compile`]): resolve the region (§4.6), walk the
//!   boundary *once* — collecting the inward-oriented chain and the
//!   distinct incident sensors in the same pass — and freeze the result. A
//!   plan is independent of the query kind and of the count store: the same
//!   plan answers snapshot, transient and static queries against exact,
//!   learned or private stores.
//! - **Cache** ([`QueryEngine`]): plans are memoized in a bounded LRU keyed
//!   by a fingerprint of the region's junction set and resolution side.
//!   Repeated queries over the same region skip resolution and the
//!   boundary walk entirely.
//! - **Execute** ([`QueryPlan::execute`]): fold the plan's boundary against
//!   a [`CountSource`]. The fold visits edges in the plan's (deterministic)
//!   chain order, so results are bit-identical to the scalar `evaluate`
//!   path.
//!
//! ## Compilation hashes nothing
//!
//! A region's junction set is one strictly increasing slice from
//! [`QueryRegion::from_rect`] to the end of the walk, so a cache miss works
//! on sorted slices and per-call bitsets, never on a hash container (the
//! plan cache's own map aside), and the engine sorts nothing:
//!
//! 1. [`QueryEngine::plan`] fingerprints [`QueryRegion::junctions`] in place,
//!    one multiply-rotate step per junction id, and compares the cached key
//!    against that slice: a hit allocates nothing. A miss hands slice and
//!    fingerprint to the compile and copies the slice once, into the cache
//!    entry.
//! 2. [`SampledGraph::resolve`] sorts nothing. For `R₂` one pass counts
//!    the slice's junctions per component: a component whose count equals
//!    its size is contained, and the slice filtered to those components is
//!    the interior, already ascending. For `R₁` it marks every touched
//!    component's members in a bitset over vertices and reads them back in
//!    ascending order. Either way the plan's `interior` is allocated once,
//!    at its exact size.
//! 3. [`SensingGraph::boundary_walk`] marks `interior` in a bitset over
//!    vertices, then visits each interior vertex's half-edges in rotation
//!    order; a half-edge whose target is unmarked is a boundary edge. Its
//!    two dual faces go into a bitset over faces whose popcount is
//!    `nodes_accessed`. No "edge already emitted" set exists: a crossing
//!    edge has exactly one half-edge leaving the interior.
//!
//! **Determinism.** The chain order is "sorted interior × rotation order":
//! a function of the region's contents and the embedding alone, not of any
//! container's iteration order. Every fold over a plan's boundary, on every
//! path and in every process, therefore adds the same terms in the same
//! order — what the bit-identity suites and the [`PlanId`] contract rest on.
//!
//! **No cached scratch.** The per-component counts and the bitsets (one bit
//! per junction, one per face) are allocated per compile. When this path
//! was sized, an epoch-stamped thread-local scratch measured the same
//! compile time on the benchmark's 2 500-junction town, so the stateless
//! form stays: nothing to size, invalidate on a graph swap, or share
//! between threads.
//!
//! ## Cache invalidation
//!
//! A plan bakes in the sampled graph's region resolution, so it is valid
//! exactly as long as that graph is. [`SampledGraph`] is immutable —
//! quarantine ([`demote_edges`](SampledGraph::demote_edges)), failover
//! rerouting ([`reroute_around`](SampledGraph::reroute_around)) and repair
//! all produce *new* graphs — therefore any holder that swaps graphs must
//! call [`QueryEngine::invalidate`] at the swap. The serving runtime does
//! this on supervisor-driven recovery (which may extend quarantine); the
//! offline paths compile against a single graph per call and need no
//! invalidation. Demotion only ever shrinks the monitored edge set, so a
//! *stale* plan is still sound in the bracketing sense (its boundary is a
//! superset chain of a coarser resolution) — invalidation is about serving
//! the freshest resolution, not about correctness of bounds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::query::{evaluate, Approximation, QueryKind, QueryOutcome, QueryRegion};
use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_forms::{BoundaryEdge, CountSource};
use stq_planar::embedding::VertexId;

/// Stable identity of a compiled plan: the region fingerprint that keys the
/// engine's cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanId(pub u64);

/// A compiled, reusable query plan: everything about a region that does not
/// depend on the query kind or the count store.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Cache identity (fingerprint of junction set + resolution side).
    pub id: PlanId,
    /// The resolved interior cells, sorted (empty on a miss).
    pub interior: Vec<VertexId>,
    /// Deduplicated boundary chain, oriented inward, in deterministic
    /// (sorted-vertex walk) order — the fold order of every execution.
    pub boundary: Vec<BoundaryEdge>,
    /// Distinct sensors incident to the boundary — the nodes a
    /// perimeter-based evaluation contacts.
    pub nodes_accessed: usize,
    /// The sampled graph could not resolve the region at all (§5.5).
    pub miss: bool,
}

/// The resolution tag, then each sorted junction id, one multiply-rotate
/// step apiece. The final fold brings the high half down so that the low
/// bits a `PlanId` is bucketed by (`id % slots`) see every step.
fn fingerprint(junctions: &[VertexId], tag: u8) -> PlanId {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    let h = junctions
        .iter()
        .fold(step(0xcbf2_9ce4_8422_2325, u64::from(tag)), |h, &j| step(h, j as u64));
    PlanId(h ^ (h >> 32))
}

/// The cache identity of `region` resolved to its `approx` side.
fn plan_id(region: &QueryRegion, approx: Approximation) -> PlanId {
    let tag = match approx {
        Approximation::Lower => 0,
        Approximation::Upper => 1,
    };
    fingerprint(region.junctions(), tag)
}

impl QueryPlan {
    /// Compiles a plan on a sampled graph: resolve the region to its
    /// `approx` side, then derive boundary chain + sensor count in one
    /// pass.
    pub fn compile(
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        region: &QueryRegion,
        approx: Approximation,
    ) -> QueryPlan {
        Self::compile_keyed(sensing, sampled, region.junctions(), plan_id(region, approx), approx)
    }

    /// [`compile`](Self::compile) from the region's junction slice `key` and
    /// its already derived fingerprint `id` — what a cache miss holds.
    fn compile_keyed(
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        key: &[VertexId],
        id: PlanId,
        approx: Approximation,
    ) -> QueryPlan {
        let interior = sampled.resolve(key, approx);
        if interior.is_empty() {
            return QueryPlan { id, interior, boundary: Vec::new(), nodes_accessed: 0, miss: true };
        }
        let (boundary, nodes_accessed) =
            sensing.boundary_walk(&interior, Some(sampled.monitored()));
        QueryPlan { id, interior, boundary, nodes_accessed, miss: false }
    }

    /// Compiles the ground-truth plan on the *unsampled* graph: the query's
    /// own junction set, every edge eligible. Never a miss (an empty region
    /// integrates to zero, matching `ground_truth` semantics).
    pub fn compile_exact(sensing: &SensingGraph, region: &QueryRegion) -> QueryPlan {
        let interior = region.junctions().to_vec();
        let id = fingerprint(&interior, 2);
        let (boundary, nodes_accessed) = sensing.boundary_walk(&interior, None);
        QueryPlan { id, interior, boundary, nodes_accessed, miss: false }
    }

    /// Number of junction cells the plan's resolution covers.
    pub fn covered_cells(&self) -> usize {
        self.interior.len()
    }

    /// The boundary positions a precision-shedding stride keeps: every
    /// `stride`-th edge of the chain, tagged with its position so a partial
    /// fold can still widen the skipped positions soundly. `stride == 1`
    /// keeps the full boundary; `stride == 0` keeps nothing (a fully shed
    /// answer built from worst-case totals alone). Skipped edges must be
    /// treated exactly like silent shards — worst-case interval, reduced
    /// coverage — which preserves bracket soundness at any stride.
    pub fn shed_boundary(&self, stride: usize) -> Vec<(usize, BoundaryEdge)> {
        if stride == 0 {
            return Vec::new();
        }
        self.boundary.iter().enumerate().step_by(stride).map(|(i, &be)| (i, be)).collect()
    }

    /// Executes one query kind against `store`, folding the boundary in
    /// plan order — bit-identical to the scalar
    /// [`crate::query::evaluate`] fold over the same chain.
    pub fn execute<S: CountSource + ?Sized>(&self, store: &S, kind: QueryKind) -> QueryOutcome {
        if self.miss {
            return QueryOutcome {
                value: 0.0,
                miss: true,
                nodes_accessed: 0,
                edges_accessed: 0,
                covered_cells: 0,
            };
        }
        QueryOutcome {
            value: evaluate(store, &self.boundary, kind),
            miss: false,
            nodes_accessed: self.nodes_accessed,
            edges_accessed: self.boundary.len(),
            covered_cells: self.interior.len(),
        }
    }
}

/// Point-in-time cache accounting of a [`QueryEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans compiled because no (valid) cached entry existed.
    pub misses: u64,
    /// Wholesale cache clears (graph swaps).
    pub invalidations: u64,
    /// Entries currently cached.
    pub cached: usize,
}

struct CacheEntry {
    plan: Arc<QueryPlan>,
    /// Sorted junction ids — verified on every hit so a fingerprint
    /// collision degrades to a recompile, never to a wrong plan.
    key: Vec<VertexId>,
    last_used: u64,
}

#[derive(Default)]
struct PlanCache {
    map: HashMap<u64, CacheEntry>,
    tick: u64,
}

/// A bounded plan cache plus a batched parallel executor.
///
/// One engine serves one logical deployment (a `sensing` + `sampled` pair);
/// callers that swap the sampled graph — quarantine, reroute, recovery —
/// must [`invalidate`](Self::invalidate) at the swap (see the module docs
/// for why stale plans are still *sound*, just stale).
pub struct QueryEngine {
    capacity: usize,
    cache: Mutex<PlanCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("QueryEngine").field("capacity", &self.capacity).field("stats", &s).finish()
    }
}

impl QueryEngine {
    /// An engine caching up to `capacity` plans (0 disables caching: every
    /// [`plan`](Self::plan) call compiles).
    pub fn new(capacity: usize) -> Self {
        QueryEngine {
            capacity,
            cache: Mutex::new(PlanCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The plan cache, recovered if a thread panicked while holding it: the
    /// cache holds only re-derivable plans and every update (a tick bump, one
    /// insert, one remove) leaves it valid, so one panicking query must not
    /// turn into a panic on every later one.
    fn lock(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the plan for `region`/`approx`, compiling on a cache miss.
    /// The flag is `true` when the plan came from the cache.
    pub fn plan(
        &self,
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        region: &QueryRegion,
        approx: Approximation,
    ) -> (Arc<QueryPlan>, bool) {
        let id = plan_id(region, approx);
        if self.capacity > 0 {
            let mut cache = self.lock();
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.map.get_mut(&id.0) {
                if entry.key == region.junctions() {
                    entry.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Arc::clone(&entry.plan), true);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let key = region.junctions();
        let plan = Arc::new(QueryPlan::compile_keyed(sensing, sampled, key, id, approx));
        if self.capacity > 0 {
            let key = key.to_vec(); // copied outside the lock
            let mut cache = self.lock();
            cache.tick += 1;
            let tick = cache.tick;
            if cache.map.len() >= self.capacity && !cache.map.contains_key(&id.0) {
                // Evict the least-recently-used entry (linear scan: the
                // cache is small and bounded, and this path is already a
                // compile).
                if let Some(&lru) =
                    cache.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k)
                {
                    cache.map.remove(&lru);
                }
            }
            cache.map.insert(id.0, CacheEntry { plan: Arc::clone(&plan), key, last_used: tick });
        }
        (plan, false)
    }

    /// The cached plan for `id`, if it is still resident.
    pub fn cached(&self, id: PlanId) -> Option<Arc<QueryPlan>> {
        let mut cache = self.lock();
        cache.tick += 1;
        let tick = cache.tick;
        cache.map.get_mut(&id.0).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.plan)
        })
    }

    /// Drops every cached plan. Call when the sampled graph this engine
    /// compiles against is replaced (quarantine demotion, failover reroute,
    /// crash recovery, shard-map migration).
    pub fn invalidate(&self) {
        self.lock().map.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache accounting so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            cached: self.lock().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{answer, ground_truth};
    use crate::sampled::Connectivity;
    use crate::scenario::{Scenario, ScenarioConfig};
    use stq_mobility::trajectory::WorkloadMix;

    fn fixture() -> (Scenario, SampledGraph) {
        let s = Scenario::build(ScenarioConfig {
            junctions: 140,
            mix: WorkloadMix { random_waypoint: 10, commuter: 6, transit: 4 },
            seed: 23,
            ..Default::default()
        });
        let cands = s.sensing.sensor_candidates();
        let m = (cands.len() / 4).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 5);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
        (s, g)
    }

    #[test]
    fn plan_execute_matches_answer_bitwise() {
        let (s, g) = fixture();
        for (q, t0, t1) in s.make_queries(6, 0.12, 2_000.0, 7) {
            for kind in
                [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1), QueryKind::Static(t0, t1)]
            {
                for approx in [Approximation::Lower, Approximation::Upper] {
                    let via_answer = answer(&s.sensing, &g, &s.tracked.store, &q, kind, approx);
                    let plan = QueryPlan::compile(&s.sensing, &g, &q, approx);
                    let via_plan = plan.execute(&s.tracked.store, kind);
                    assert_eq!(via_plan.value.to_bits(), via_answer.value.to_bits());
                    assert_eq!(via_plan.miss, via_answer.miss);
                    assert_eq!(via_plan.nodes_accessed, via_answer.nodes_accessed);
                    assert_eq!(via_plan.edges_accessed, via_answer.edges_accessed);
                    assert_eq!(via_plan.covered_cells, via_answer.covered_cells);
                }
            }
        }
    }

    #[test]
    fn shed_boundary_strides_partition_soundly() {
        let (s, g) = fixture();
        for (q, _, _) in s.make_queries(4, 0.15, 2_000.0, 11) {
            let plan = QueryPlan::compile(&s.sensing, &g, &q, Approximation::Lower);
            if plan.miss {
                continue;
            }
            let full = plan.shed_boundary(1);
            assert_eq!(full.len(), plan.boundary.len(), "stride 1 keeps everything");
            assert!(full.iter().enumerate().all(|(i, &(idx, _))| idx == i));
            assert!(plan.shed_boundary(0).is_empty(), "stride 0 sheds everything");
            for stride in [2usize, 4] {
                let kept = plan.shed_boundary(stride);
                assert_eq!(kept.len(), plan.boundary.len().div_ceil(stride));
                for &(idx, be) in &kept {
                    assert_eq!(idx % stride, 0);
                    assert_eq!(be.edge, plan.boundary[idx].edge);
                }
            }
        }
    }

    #[test]
    fn exact_plan_matches_ground_truth() {
        let (s, _) = fixture();
        for (q, t0, _) in s.make_queries(4, 0.15, 2_000.0, 9) {
            let kind = QueryKind::Snapshot(t0);
            let plan = QueryPlan::compile_exact(&s.sensing, &q);
            assert_eq!(
                plan.execute(&s.tracked.store, kind).value.to_bits(),
                ground_truth(&s.sensing, &s.tracked.store, &q, kind).to_bits()
            );
        }
    }

    #[test]
    fn fingerprints_spread_over_the_low_bits() {
        // Ids that differ only above bit 8: a bare xor-multiply leaves the
        // product's low byte, and so `id % 256`, the same for all of them.
        let mut buckets: Vec<u64> =
            (0..64).map(|k| fingerprint(&[k * 256 + 7], 0).0 % 256).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() >= 48, "{} distinct buckets of 64 keys", buckets.len());
    }

    #[test]
    fn cache_hits_return_the_same_plan() {
        let (s, g) = fixture();
        let engine = QueryEngine::new(8);
        let (q, _, _) = s.make_queries(1, 0.12, 2_000.0, 7).remove(0);
        let (p1, hit1) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
        let (p2, hit2) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        // Upper resolution is a distinct plan.
        let (p3, hit3) = engine.plan(&s.sensing, &g, &q, Approximation::Upper);
        assert!(!hit3);
        assert_ne!(p3.id, p1.id);
        let st = engine.stats();
        assert_eq!((st.hits, st.misses, st.cached), (1, 2, 2));
    }

    #[test]
    fn lru_evicts_oldest_and_capacity_zero_disables() {
        let (s, g) = fixture();
        let engine = QueryEngine::new(2);
        let qs = s.make_queries(3, 0.08, 2_000.0, 3);
        let ids: Vec<PlanId> = qs
            .iter()
            .map(|(q, _, _)| engine.plan(&s.sensing, &g, q, Approximation::Lower).0.id)
            .collect();
        // First plan was evicted by the third insert.
        assert!(engine.cached(ids[0]).is_none());
        assert!(engine.cached(ids[2]).is_some());
        assert_eq!(engine.stats().cached, 2);

        let off = QueryEngine::new(0);
        let (q, _, _) = &qs[0];
        let (_, h1) = off.plan(&s.sensing, &g, q, Approximation::Lower);
        let (_, h2) = off.plan(&s.sensing, &g, q, Approximation::Lower);
        assert!(!h1 && !h2, "capacity 0 never caches");
        assert_eq!(off.stats().cached, 0);
    }

    #[test]
    fn poisoned_cache_lock_is_recovered() {
        let (s, g) = fixture();
        let engine = QueryEngine::new(8);
        let (q, _, _) = s.make_queries(1, 0.12, 2_000.0, 7).remove(0);
        let (p1, _) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = engine.cache.lock().unwrap();
                    panic!("query thread dies holding the plan cache");
                })
                .join()
        });
        assert!(poisoner.is_err() && engine.cache.is_poisoned());
        // Every entry point still works, and the cache kept its entry.
        let (p2, hit) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
        assert!(hit && Arc::ptr_eq(&p1, &p2));
        assert!(engine.cached(p1.id).is_some());
        assert_eq!(engine.stats().cached, 1);
        engine.invalidate();
        assert_eq!(engine.stats().cached, 0);
        let (_, hit) = engine.plan(&s.sensing, &g, &q, Approximation::Lower);
        assert!(!hit);
    }
}
