//! Union-find (disjoint set union) with path compression and union by rank.

/// A classic disjoint-set-union structure.
///
/// Used to compute faces of sampled subgraphs: the faces of `G̃ ⊆ G` are the
/// connected components of the primal (road) graph after removing the roads
/// monitored by `G̃` (see `stq-planar::dual::subgraph_faces`).
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns true when they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Compacts set representatives into dense group ids `0..k`; returns
    /// `(group_of_element, k)`.
    pub fn groups(&mut self) -> (Vec<usize>, usize) {
        let n = self.parent.len();
        let mut map = vec![usize::MAX; n];
        let mut out = Vec::with_capacity(n);
        let mut k = 0;
        for i in 0..n {
            let r = self.find(i);
            if map[r] == usize::MAX {
                map[r] = k;
                k += 1;
            }
            out.push(map[r]);
        }
        (out, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.groups().1, 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.groups().1, 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(1, 3));
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.groups().1, 2);
    }

    #[test]
    fn groups_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let (g, k) = uf.groups();
        assert_eq!(k, 3);
        assert_eq!(g[0], g[2]);
        assert_eq!(g[2], g[4]);
        assert_eq!(g[1], g[5]);
        assert_ne!(g[0], g[1]);
        assert_ne!(g[0], g[3]);
        assert!(g.iter().all(|&x| x < 3));
    }

    #[test]
    fn empty_and_singleton() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.groups().1, 0);
        let mut uf1 = UnionFind::new(1);
        assert_eq!(uf1.find(0), 0);
        assert_eq!(uf1.groups().1, 1);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.groups().1, 1);
        assert_eq!(uf.find(0), uf.find(n - 1));
    }
}
