//! Shortest paths and connectivity over adjacency lists.
//!
//! The sampled sensing graph materializes its abstract edges as shortest
//! paths between selected sensors in the full sensing graph `G` (paper §4.5);
//! this module supplies the Dijkstra machinery, generic over any adjacency
//! list, so it serves both the dual (sensor) graph and the road graph:
//! [`dijkstra`] grows a whole shortest-path tree, and [`PathFinder`] answers
//! one `source → target` query at a time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A weighted adjacency list: `adj[u]` lists `(v, edge_id, weight)`.
pub type WeightedAdj = Vec<Vec<(usize, usize, f64)>>;

/// A heap entry ordered by `key` alone, smallest first. [`dijkstra`] carries
/// the node (its key is the node's distance); [`PathFinder`] carries the
/// distance `g` beside the node, since its key adds a lower bound to `g`.
/// Keeping the node alone where that suffices keeps [`dijkstra`]'s entries
/// at 16 bytes.
struct HeapItem<T> {
    key: f64,
    item: T,
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for HeapItem<T> {}

impl<T> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap. A key is a sum of checked non-negative
        // parts (see `check_non_negative`), never negative or NaN, and on
        // such floats the bit patterns order as the numbers do (the order
        // `f64::total_cmp` gives). One integer compare keeps the sift loops
        // as cheap as the unchecked `partial_cmp` was; `total_cmp` made
        // `SampledGraph::from_sensors` 10–15 % slower.
        other.key.to_bits().cmp(&self.key.to_bits())
    }
}

impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The one rule for every part of a heap key, a relaxed edge weight or a
/// lower bound: non-negative, so not NaN.
#[inline]
fn check_non_negative(x: f64, what: &str) {
    assert!(x >= 0.0, "{what} {x} is negative or NaN");
}

/// Shortest-path tree from `source`.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Distance from the source (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// Predecessor `(node, edge_id)` on the shortest path, `usize::MAX`
    /// sentinels at the source / unreachable nodes.
    pub prev: Vec<(usize, usize)>,
}

impl ShortestPaths {
    /// Reconstructs the path `source → target` as `(vertices, edge_ids)`.
    /// Returns `None` when `target` is unreachable.
    pub fn path_to(&self, target: usize) -> Option<(Vec<usize>, Vec<usize>)> {
        if !self.dist[target].is_finite() {
            return None;
        }
        Some(trace_back(target, |v| self.prev[v]))
    }
}

/// The path that ends at `target` as `(vertices, edge_ids)`, following
/// predecessors back to the node whose predecessor is the `usize::MAX`
/// sentinel (the source).
fn trace_back(target: usize, prev: impl Fn(usize) -> (usize, usize)) -> (Vec<usize>, Vec<usize>) {
    let mut verts = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    loop {
        let (p, e) = prev(cur);
        if p == usize::MAX {
            break;
        }
        verts.push(p);
        edges.push(e);
        cur = p;
    }
    verts.reverse();
    edges.reverse();
    (verts, edges)
}

/// Dijkstra from `source` over a weighted adjacency list. A negative or NaN
/// weight is rejected with a panic (programming error).
pub fn dijkstra(adj: &WeightedAdj, source: usize) -> ShortestPaths {
    let n = adj.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![(usize::MAX, usize::MAX); n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapItem { key: 0.0, item: source });
    while let Some(HeapItem { key: d, item: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, e, w) in &adj[u] {
            check_non_negative(w, "edge weight");
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = (u, e);
                heap.push(HeapItem { key: nd, item: v });
            }
        }
    }
    ShortestPaths { dist, prev }
}

/// Single-target shortest paths that reuse their scratch from one query to
/// the next and may be goal-directed (A*).
///
/// [`PathFinder::path`] is Dijkstra with one change: the heap is keyed by
/// `g + lower_bound(v)` instead of `g`, where `g` is the distance found so
/// far and `lower_bound(v)` never exceeds the true distance `v → target`. It
/// relaxes edges in adjacency order under the strict `<` rule and stops
/// when `target` leaves the heap. With `|_| 0.0` it is exactly
/// early-exit Dijkstra.
///
/// A bound that is also *consistent* (`lower_bound(u) ≤ w(u, v) +
/// lower_bound(v)` on every edge, e.g. the straight-line distance to the
/// target when every weight is a segment length) settles each node at its
/// final distance, so the search visits a subset of what Dijkstra visits —
/// roughly an ellipse around the two endpoints instead of a disk around the
/// source. The returned path is then a shortest path. When several paths
/// tie for shortest, the finder may return a different one of them than
/// [`dijkstra`]'s tree does. Where shortest paths are unique (generic float
/// coordinates) it returns the same one, so its length, added from the
/// source in path order, is bit for bit the distance [`dijkstra`] reports.
///
/// `dist` / `prev` are valid only where `stamp` equals the current
/// generation, so a query touches only the nodes it reaches.
#[derive(Default)]
pub struct PathFinder {
    dist: Vec<f64>,
    prev: Vec<(usize, usize)>,
    stamp: Vec<u32>,
    generation: u32,
    /// Entries carry `(g, node)`.
    heap: BinaryHeap<HeapItem<(f64, usize)>>,
}

impl PathFinder {
    /// An empty finder; its scratch grows to the largest graph it searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shortest path `source → target` as `(vertices, edge_ids)`, or `None`
    /// when `target` is unreachable. `lower_bound` must be admissible (see
    /// the type docs) and non-negative. A negative or NaN weight panics, as
    /// in [`dijkstra`], and so does a negative or NaN bound.
    pub fn path(
        &mut self,
        adj: &WeightedAdj,
        source: usize,
        target: usize,
        lower_bound: impl Fn(usize) -> f64,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let lower_bound = |v| {
            let h = lower_bound(v);
            check_non_negative(h, "lower bound");
            h
        };
        self.start(adj.len());
        self.reach(source, 0.0, (usize::MAX, usize::MAX));
        self.heap.push(HeapItem { key: lower_bound(source), item: (0.0, source) });
        while let Some(HeapItem { item: (d, u), .. }) = self.heap.pop() {
            if u == target {
                break;
            }
            if d > self.dist(u) {
                continue;
            }
            for &(v, e, w) in &adj[u] {
                check_non_negative(w, "edge weight");
                let nd = d + w;
                if nd < self.dist(v) {
                    self.reach(v, nd, (u, e));
                    self.heap.push(HeapItem { key: nd + lower_bound(v), item: (nd, v) });
                }
            }
        }
        if !self.dist(target).is_finite() {
            return None;
        }
        // Every node on the path was reached in this generation, so its
        // `prev` entry is current.
        Some(trace_back(target, |v| self.prev[v]))
    }

    /// Opens a new generation over `n` nodes: every node reads unreached.
    fn start(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, (usize::MAX, usize::MAX));
            self.stamp.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn dist(&self, v: usize) -> f64 {
        if self.stamp[v] == self.generation {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn reach(&mut self, v: usize, d: f64, via: (usize, usize)) {
        self.stamp[v] = self.generation;
        self.dist[v] = d;
        self.prev[v] = via;
    }
}

/// Breadth-first distances (hop counts) from `source` over an unweighted
/// adjacency list; `usize::MAX` marks unreachable nodes.
pub fn bfs_hops(adj: &[Vec<usize>], source: usize) -> Vec<usize> {
    let n = adj.len();
    let mut hops = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    hops[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if hops[v] == usize::MAX {
                hops[v] = hops[u] + 1;
                queue.push_back(v);
            }
        }
    }
    hops
}

/// Mean shortest-path hop count over `samples` random source pairs — the
/// `ℓ_G` of the paper's cost model (§4.9). Deterministic given `seed`.
pub fn mean_path_length(adj: &[Vec<usize>], samples: usize, seed: u64) -> f64 {
    let n = adj.len();
    if n < 2 {
        return 0.0;
    }
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut total = 0.0;
    let mut count = 0usize;
    for _ in 0..samples {
        let s = (next() % n as u64) as usize;
        let hops = bfs_hops(adj, s);
        let t = (next() % n as u64) as usize;
        if hops[t] != usize::MAX && t != s {
            total += hops[t] as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedAdj {
        // 0 -1- 1 -1- 3 ; 0 -1- 2 -0.5- 3
        let mut adj: WeightedAdj = vec![Vec::new(); 4];
        let add = |adj: &mut WeightedAdj, u: usize, v: usize, e: usize, w: f64| {
            adj[u].push((v, e, w));
            adj[v].push((u, e, w));
        };
        add(&mut adj, 0, 1, 0, 1.0);
        add(&mut adj, 1, 3, 1, 1.0);
        add(&mut adj, 0, 2, 2, 1.0);
        add(&mut adj, 2, 3, 3, 0.5);
        adj
    }

    #[test]
    fn dijkstra_picks_cheaper_route() {
        let adj = diamond();
        let sp = dijkstra(&adj, 0);
        assert_eq!(sp.dist[3], 1.5);
        let (verts, edges) = sp.path_to(3).unwrap();
        assert_eq!(verts, vec![0, 2, 3]);
        assert_eq!(edges, vec![2, 3]);
    }

    #[test]
    fn finder_matches_full() {
        let adj = diamond();
        let mut finder = PathFinder::new();
        let (verts, edges) = finder.path(&adj, 0, 3, |_| 0.0).unwrap();
        assert_eq!(verts, vec![0, 2, 3]);
        assert_eq!(edges, vec![2, 3]);
        // The scratch of one query does not leak into the next.
        let (verts, edges) = finder.path(&adj, 1, 2, |_| 0.0).unwrap();
        assert_eq!(verts.first(), Some(&1));
        assert_eq!(verts.last(), Some(&2));
        let len: f64 = edges.iter().map(|&e| [1.0, 1.0, 1.0, 0.5][e]).sum();
        assert_eq!(len, dijkstra(&adj, 1).dist[2]);
    }

    #[test]
    fn finder_source_is_target() {
        let adj = diamond();
        let (verts, edges) = PathFinder::new().path(&adj, 2, 2, |_| 0.0).unwrap();
        assert_eq!(verts, vec![2]);
        assert!(edges.is_empty());
    }

    #[test]
    fn finder_honours_an_admissible_bound() {
        // Hop counts to node 3 never exceed the true distance on the diamond.
        let adj = diamond();
        let hops = [2.0, 1.0, 1.0, 0.0];
        let (verts, _) = PathFinder::new().path(&adj, 0, 3, |v| hops[v] * 0.5).unwrap();
        assert_eq!(verts, vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn finder_rejects_a_negative_weight() {
        let mut adj = diamond();
        adj[0][0].2 = -1.0;
        PathFinder::new().path(&adj, 0, 3, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn finder_rejects_a_nan_weight() {
        let mut adj = diamond();
        adj[0][0].2 = f64::NAN;
        PathFinder::new().path(&adj, 0, 3, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "lower bound NaN is negative or NaN")]
    fn finder_rejects_a_nan_bound() {
        PathFinder::new().path(&diamond(), 0, 3, |v| if v == 2 { f64::NAN } else { 0.0 });
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn dijkstra_rejects_a_nan_weight() {
        let mut adj = diamond();
        adj[0][0].2 = f64::NAN;
        dijkstra(&adj, 0);
    }

    #[test]
    fn unreachable() {
        let mut adj = diamond();
        adj.push(Vec::new()); // isolated node 4
        let sp = dijkstra(&adj, 0);
        assert!(sp.dist[4].is_infinite());
        assert!(sp.path_to(4).is_none());
        let mut finder = PathFinder::new();
        assert!(finder.path(&adj, 0, 4, |_| 0.0).is_none());
        // A failed query leaves nothing behind for the next one.
        assert!(finder.path(&adj, 0, 3, |_| 0.0).is_some());
    }

    #[test]
    fn source_path_is_trivial() {
        let adj = diamond();
        let sp = dijkstra(&adj, 2);
        let (verts, edges) = sp.path_to(2).unwrap();
        assert_eq!(verts, vec![2]);
        assert!(edges.is_empty());
    }

    #[test]
    fn bfs_hops_ring() {
        let n = 6;
        let adj: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n, (i + n - 1) % n]).collect();
        let hops = bfs_hops(&adj, 0);
        assert_eq!(hops, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn mean_path_length_ring_reasonable() {
        let n = 32;
        let adj: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n, (i + n - 1) % n]).collect();
        let l = mean_path_length(&adj, 200, 7);
        // Expected mean hop distance on a 32-ring is 32/4 = 8.
        assert!(l > 5.0 && l < 11.0, "got {l}");
    }
}
