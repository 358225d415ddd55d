//! The simplified sampled graph (paper §4.5, Fig. 6c).
//!
//! After shortest-path materialization, most vertices of `G̃` are *virtual*
//! relay nodes of degree 2 ("they do not have to be communication sensors").
//! The paper draws the simplified graph by contracting those chains. This
//! module computes that abstraction: retained nodes are the communication
//! sensors plus every branch point (degree ≠ 2), and each abstract edge is
//! the chain of monitored sensing links between two retained nodes, with its
//! hop and Euclidean lengths — the quantities the §4.9 cost model and the
//! dispatch simulator consume.

use std::collections::HashMap;

use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_planar::embedding::{EdgeId, FaceId};

/// One contracted chain of monitored links between two retained nodes.
#[derive(Clone, Debug)]
pub struct AbstractChain {
    /// Retained endpoints (dual vertices = sensor faces). Equal for pure
    /// cycles that touch only one retained node — or none, in which case an
    /// arbitrary cycle vertex is promoted.
    pub endpoints: (FaceId, FaceId),
    /// The monitored sensing links forming the chain, in walk order.
    pub edges: Vec<EdgeId>,
    /// Euclidean length (sum of sensor-to-sensor distances).
    pub length: f64,
}

/// The simplified topology of a sampled graph.
#[derive(Clone, Debug)]
pub struct AbstractTopology {
    /// Retained nodes: communication sensors ∪ branch points.
    pub nodes: Vec<FaceId>,
    /// Contracted chains (each monitored link appears in exactly one).
    pub chains: Vec<AbstractChain>,
}

impl AbstractTopology {
    /// Builds the simplified topology of `sampled` over `sensing`.
    pub fn build(sensing: &SensingGraph, sampled: &SampledGraph) -> Self {
        // Adjacency of the monitored dual subgraph.
        let mut adj: HashMap<FaceId, Vec<(FaceId, EdgeId)>> = HashMap::new();
        for (e, &m) in sampled.monitored().iter().enumerate() {
            if !m {
                continue;
            }
            let (a, b) = sensing.dual().edge_faces[e];
            if a == b {
                continue; // bridge loops carry no topology
            }
            adj.entry(a).or_default().push((b, e));
            adj.entry(b).or_default().push((a, e));
        }

        // Retained = communication sensors + branch/terminal points.
        let mut retained: std::collections::HashSet<FaceId> =
            sampled.sensors().iter().copied().collect();
        for (&v, nbrs) in &adj {
            if nbrs.len() != 2 {
                retained.insert(v);
            }
        }

        let dist = |a: FaceId, b: FaceId| -> f64 {
            match (sensing.sensor_pos(a), sensing.sensor_pos(b)) {
                (Some(pa), Some(pb)) => pa.dist(pb),
                _ => 0.0,
            }
        };

        let mut used: std::collections::HashSet<EdgeId> = std::collections::HashSet::new();
        let mut chains = Vec::new();

        // Walk chains outward from every retained node.
        for &start in &retained {
            let Some(nbrs) = adj.get(&start) else { continue };
            for &(mut cur, mut via) in nbrs {
                if used.contains(&via) {
                    continue;
                }
                let mut edges = vec![via];
                used.insert(via);
                let mut prev = start;
                let mut length = dist(prev, cur);
                while !retained.contains(&cur) {
                    // Degree-2 interior node: continue through the other link.
                    let next = adj[&cur]
                        .iter()
                        .find(|&&(_, e)| e != via)
                        .copied()
                        .expect("interior chain node has exactly two links");
                    via = next.1;
                    used.insert(via);
                    length += dist(cur, next.0);
                    prev = cur;
                    let _ = prev;
                    cur = next.0;
                    edges.push(via);
                }
                chains.push(AbstractChain { endpoints: (start, cur), edges, length });
            }
        }

        // Pure degree-2 cycles untouched by retained nodes: promote one
        // vertex per cycle and walk it.
        for (&v, nbrs) in &adj {
            if nbrs.len() != 2 || nbrs.iter().all(|&(_, e)| used.contains(&e)) {
                continue;
            }
            retained.insert(v);
            let (mut cur, mut via) = nbrs[0];
            let mut edges = vec![via];
            used.insert(via);
            let mut length = dist(v, cur);
            while cur != v {
                let next = adj[&cur]
                    .iter()
                    .find(|&&(_, e)| e != via)
                    .copied()
                    .expect("cycle node has two links");
                via = next.1;
                used.insert(via);
                length += dist(cur, next.0);
                cur = next.0;
                edges.push(via);
            }
            chains.push(AbstractChain { endpoints: (v, v), edges, length });
        }

        let mut nodes: Vec<FaceId> = retained.into_iter().collect();
        nodes.sort_unstable();
        AbstractTopology { nodes, chains }
    }

    /// Total monitored links across all chains.
    pub fn total_edges(&self) -> usize {
        self.chains.iter().map(|c| c.edges.len()).sum()
    }

    /// Mean chain hop length — the relay overhead per abstract edge
    /// (≈ `ℓ_G` of §4.9 for shortest-path materialization).
    pub fn mean_chain_hops(&self) -> f64 {
        if self.chains.is_empty() {
            return 0.0;
        }
        self.total_edges() as f64 / self.chains.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::Connectivity;
    use crate::scenario::{Scenario, ScenarioConfig};
    use stq_mobility::trajectory::WorkloadMix;

    fn setup(frac: f64) -> (Scenario, SampledGraph) {
        let s = Scenario::build(ScenarioConfig {
            junctions: 250,
            mix: WorkloadMix { random_waypoint: 3, commuter: 3, transit: 2 },
            seed: 5,
            ..Default::default()
        });
        let cands = s.sensing.sensor_candidates();
        let m = ((cands.len() as f64 * frac) as usize).max(3);
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 7);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
        (s, g)
    }

    #[test]
    fn chains_partition_monitored_edges() {
        let (s, g) = setup(0.08);
        let topo = AbstractTopology::build(&s.sensing, &g);
        let mut seen = std::collections::HashSet::new();
        for c in &topo.chains {
            for &e in &c.edges {
                assert!(seen.insert(e), "edge {e} appears in two chains");
                assert!(g.monitored()[e]);
            }
        }
        // Every non-loop monitored edge is covered.
        let loops: usize = g
            .monitored()
            .iter()
            .enumerate()
            .filter(|&(e, &m)| {
                m && {
                    let (a, b) = s.sensing.dual().edge_faces[e];
                    a == b
                }
            })
            .count();
        assert_eq!(seen.len() + loops, g.num_monitored_edges());
    }

    #[test]
    fn endpoints_are_retained_nodes() {
        let (s, g) = setup(0.08);
        let topo = AbstractTopology::build(&s.sensing, &g);
        let nodes: std::collections::HashSet<usize> = topo.nodes.iter().copied().collect();
        for c in &topo.chains {
            assert!(nodes.contains(&c.endpoints.0));
            assert!(nodes.contains(&c.endpoints.1));
            assert!(!c.edges.is_empty());
            assert!(c.length >= 0.0);
        }
    }

    #[test]
    fn simplification_compresses() {
        let (s, g) = setup(0.06);
        let topo = AbstractTopology::build(&s.sensing, &g);
        // Sparse sampled graphs have long relay chains: clearly fewer
        // abstract edges than monitored links.
        assert!(
            topo.mean_chain_hops() > 1.25,
            "expected compression, got {} chains over {} links",
            topo.chains.len(),
            topo.total_edges()
        );
        // All communication sensors retained.
        let nodes: std::collections::HashSet<usize> = topo.nodes.iter().copied().collect();
        for &sensor in g.sensors() {
            // Isolated sensors (no monitored incident link) may be absent.
            let incident = g.monitored().iter().enumerate().any(|(e, &m)| {
                m && {
                    let (a, b) = s.sensing.dual().edge_faces[e];
                    a == sensor || b == sensor
                }
            });
            if incident {
                assert!(nodes.contains(&sensor), "sensor {sensor} dropped");
            }
        }
    }

    #[test]
    fn denser_graphs_compress_less() {
        let (s1, g1) = setup(0.05);
        let t1 = AbstractTopology::build(&s1.sensing, &g1);
        let (s2, g2) = setup(0.5);
        let t2 = AbstractTopology::build(&s2.sensing, &g2);
        // Fewer links per chain: the dense graph keeps more abstract edges
        // per monitored link.
        assert!(!t2.chains.is_empty());
        assert!(
            t2.mean_chain_hops() < t1.mean_chain_hops(),
            "dense {:.2} hops per chain should be under sparse {:.2}",
            t2.mean_chain_hops(),
            t1.mean_chain_hops()
        );
    }

    #[test]
    fn empty_sampled_graph() {
        let s = Scenario::build(ScenarioConfig {
            junctions: 80,
            mix: WorkloadMix { random_waypoint: 1, commuter: 0, transit: 0 },
            seed: 1,
            ..Default::default()
        });
        let g = SampledGraph::from_sensors(&s.sensing, &[], Connectivity::Triangulation);
        let topo = AbstractTopology::build(&s.sensing, &g);
        assert!(topo.chains.is_empty());
        assert_eq!(topo.total_edges(), 0);
        assert_eq!(topo.mean_chain_hops(), 0.0);
    }
}
