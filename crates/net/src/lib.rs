//! # stq-net
//!
//! A discrete sensor-network simulator (paper §3.1, §4.6).
//!
//! The paper evaluates "an in-network system with abstractions" — the
//! algorithmic layer is independent of the concrete radio protocol. This
//! crate provides that abstraction with explicit cost accounting so the
//! communication claims (nodes accessed, routing hops, energy) are measured
//! rather than asserted:
//!
//! - [`Network`] — the communication topology (nodes = sensors, edges =
//!   links), with BFS routing and flooding,
//! - the two query-dispatch strategies of §4.6:
//!   [`Network::server_aggregation`] (the query server contacts every
//!   perimeter sensor directly) and [`Network::perimeter_traversal`] (one
//!   seed sensor walks the perimeter in-network and returns the aggregate),
//! - [`EnergyModel`] — per-message transmit/receive costs, so experiments
//!   can report energy alongside message counts.

use std::collections::VecDeque;

pub mod chaos;
pub mod durability;
pub mod fault;
pub mod sensor;

pub use chaos::{ChaosBuilder, ChaosConfig, ChaosError};
pub use durability::{DurabilityFaultPlan, IngestCrash};
pub use fault::{CrashWindow, FaultDecision, FaultPlan, MessageCtx};
pub use sensor::{SensorEventFate, SensorFault, SensorFaultKind, SensorFaultMix, SensorFaultPlan};

/// Communication cost of a dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostReport {
    /// Point-to-point messages sent (each hop of each route counts once).
    pub messages: usize,
    /// Total hops across all routes.
    pub hops: usize,
    /// Distinct sensors that participated (relayed or answered).
    pub nodes_contacted: usize,
    /// Longest single route (proxy for latency).
    pub max_route: usize,
}

/// Per-message energy accounting.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Joules to transmit one message one hop.
    pub tx: f64,
    /// Joules to receive one message.
    pub rx: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Loosely calibrated to low-power radio datasheets: transmit costs
        // roughly double receive.
        EnergyModel { tx: 2.0e-6, rx: 1.0e-6 }
    }
}

impl EnergyModel {
    /// Energy for a cost report: every hop is one transmit + one receive.
    pub fn energy(&self, cost: &CostReport) -> f64 {
        cost.hops as f64 * (self.tx + self.rx)
    }
}

/// A sensor-network communication topology.
#[derive(Clone, Debug)]
pub struct Network {
    adj: Vec<Vec<usize>>,
}

impl Network {
    /// Builds a network over `n` sensors with undirected links.
    pub fn new(n: usize, links: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in links {
            assert!(u < n && v < n, "link endpoint out of range");
            if u != v {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
        Network { adj }
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the network has no sensors.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Hop distances from `source` (usize::MAX = unreachable). A `source`
    /// outside the network (including any source on an empty network) yields
    /// an all-unreachable vector instead of panicking.
    pub fn hops_from(&self, source: usize) -> Vec<usize> {
        self.bfs(source, None).hops
    }

    /// One BFS pass computing hop distances *and* shortest-path-tree parents
    /// together. When `targets` is given, the search stops as soon as every
    /// target has been labelled — entries beyond the last target's depth stay
    /// `usize::MAX`, which both dispatch strategies treat as unreachable.
    fn bfs(&self, source: usize, targets: Option<&[usize]>) -> BfsState {
        let n = self.adj.len();
        let mut state = BfsState { hops: vec![usize::MAX; n], parents: vec![usize::MAX; n] };
        if source >= n {
            return state;
        }
        let wanted: Option<std::collections::HashSet<usize>> =
            targets.map(|ts| ts.iter().copied().filter(|&t| t < n && t != source).collect());
        let mut outstanding = wanted.as_ref().map_or(usize::MAX, |w| w.len());
        state.hops[source] = 0;
        if outstanding == 0 {
            return state; // every target is the source itself (or out of range)
        }
        let mut q = VecDeque::from([source]);
        'search: while let Some(u) = q.pop_front() {
            for &v in &self.adj[u] {
                if state.hops[v] == usize::MAX {
                    state.hops[v] = state.hops[u] + 1;
                    state.parents[v] = u;
                    if wanted.as_ref().is_some_and(|w| w.contains(&v)) {
                        outstanding -= 1;
                        if outstanding == 0 {
                            break 'search;
                        }
                    }
                    q.push_back(v);
                }
            }
        }
        state
    }

    /// Dispatch strategy 1 (§4.6): the query server (assumed reachable from
    /// `gateway`) contacts every perimeter sensor along shortest routes from
    /// the gateway and aggregates centrally.
    pub fn server_aggregation(&self, gateway: usize, perimeter: &[usize]) -> CostReport {
        let state = self.bfs(gateway, None);
        let mut report = CostReport::default();
        let mut contacted = std::collections::HashSet::new();
        for &p in perimeter {
            let h = state.hops[p];
            if h == usize::MAX {
                continue; // unreachable sensor: silently skipped, like a
                          // radio dead zone; callers see fewer contacts.
            }
            // Request + response along the route.
            report.messages += 2 * h;
            report.hops += 2 * h;
            report.max_route = report.max_route.max(h);
            contacted.insert(p);
            // Relay nodes: everything on the shortest-path-tree branch.
            let mut cur = p;
            while cur != usize::MAX && cur != gateway {
                contacted.insert(cur);
                cur = state.parents[cur];
            }
        }
        report.nodes_contacted = contacted.len();
        report
    }

    /// Dispatch strategy 2 (§4.6): the server contacts one perimeter sensor
    /// (`seed`); the count is aggregated by walking sensor-to-sensor around
    /// the perimeter (greedy nearest-unvisited routing) and returned.
    ///
    /// Each greedy step runs one combined hops-and-parents BFS that stops as
    /// soon as all still-unvisited perimeter sensors are labelled (the old
    /// implementation ran two full-network searches per step).
    pub fn perimeter_traversal(&self, seed: usize, perimeter: &[usize]) -> CostReport {
        let mut report = CostReport::default();
        if perimeter.is_empty() || self.is_empty() {
            return report;
        }
        let mut remaining: Vec<usize> = perimeter.iter().copied().filter(|&p| p != seed).collect();
        let mut contacted = std::collections::HashSet::new();
        contacted.insert(seed);
        let mut here = seed;
        while !remaining.is_empty() {
            let state = self.bfs(here, Some(&remaining));
            // Nearest unvisited perimeter sensor.
            let (k, &next) = match remaining
                .iter()
                .enumerate()
                .filter(|(_, &p)| state.hops[p] != usize::MAX)
                .min_by_key(|(_, &p)| state.hops[p])
            {
                Some(x) => x,
                None => break, // rest unreachable
            };
            let h = state.hops[next];
            report.messages += h;
            report.hops += h;
            report.max_route = report.max_route.max(h);
            // Mark the route's nodes.
            let mut cur = next;
            while cur != usize::MAX && cur != here {
                contacted.insert(cur);
                cur = state.parents[cur];
            }
            here = next;
            remaining.swap_remove(k);
        }
        report.nodes_contacted = contacted.len();
        report
    }

    /// Flood from `source` until all `targets` are reached; every edge
    /// forwarded over counts as a message (how axis-aligned in-network
    /// systems must answer range queries — the dead-space cost, §2.3).
    pub fn flood(&self, source: usize, targets: &[usize]) -> CostReport {
        let mut report = CostReport::default();
        let mut seen = vec![false; self.adj.len()];
        let mut pending: std::collections::HashSet<usize> = targets.iter().copied().collect();
        pending.remove(&source);
        seen[source] = true;
        let mut frontier = vec![source];
        let mut contacted = 1usize;
        let mut depth = 0usize;
        while !pending.is_empty() && !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &self.adj[u] {
                    report.messages += 1; // broadcast over each link
                    report.hops += 1;
                    if !seen[v] {
                        seen[v] = true;
                        contacted += 1;
                        pending.remove(&v);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        report.nodes_contacted = contacted;
        report.max_route = depth;
        report
    }
}

/// Result of one BFS pass: hop distances and shortest-path-tree parents
/// (`usize::MAX` = unreachable / no parent).
#[derive(Clone, Debug)]
pub struct BfsState {
    /// Hop count from the source per sensor.
    pub hops: Vec<usize>,
    /// BFS-tree parent per sensor.
    pub parents: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3-4 path plus a 2-5 stub.
    fn path_net() -> Network {
        Network::new(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    }

    #[test]
    fn hop_distances() {
        let n = path_net();
        let h = n.hops_from(0);
        assert_eq!(h, vec![0, 1, 2, 3, 4, 3]);
    }

    #[test]
    fn server_aggregation_costs() {
        let n = path_net();
        let r = n.server_aggregation(0, &[2, 4]);
        // Routes of 2 and 4 hops, each request+response.
        assert_eq!(r.hops, 2 * 2 + 2 * 4);
        assert_eq!(r.max_route, 4);
        // Contacted: 1,2 (route to 2) + 3,4 → 4 sensors.
        assert_eq!(r.nodes_contacted, 4);
    }

    #[test]
    fn perimeter_traversal_costs() {
        let n = path_net();
        let r = n.perimeter_traversal(2, &[2, 3, 4]);
        // Greedy: 2→3 (1 hop) →4 (1 hop).
        assert_eq!(r.hops, 2);
        assert_eq!(r.nodes_contacted, 3);
        assert_eq!(r.max_route, 1);
    }

    #[test]
    fn traversal_cheaper_than_server_for_contiguous_perimeter() {
        // A ring: perimeter sensors are consecutive; walking beats radial
        // round trips — the reason §4.6 offers the second strategy.
        let n = 12;
        let links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let net = Network::new(n, &links);
        let perimeter: Vec<usize> = (0..6).collect();
        let server = net.server_aggregation(0, &perimeter);
        let walk = net.perimeter_traversal(0, &perimeter);
        assert!(walk.hops < server.hops, "walk {} vs server {}", walk.hops, server.hops);
    }

    #[test]
    fn flood_reaches_targets_and_counts_messages() {
        let n = path_net();
        let r = n.flood(0, &[4]);
        assert_eq!(r.max_route, 4);
        assert!(r.messages >= 4);
        assert_eq!(r.nodes_contacted, 6); // flooding wakes everyone en route
    }

    #[test]
    fn unreachable_targets_handled() {
        let net = Network::new(4, &[(0, 1)]); // 2, 3 isolated
        let r = net.server_aggregation(0, &[3]);
        assert_eq!(r.hops, 0);
        let w = net.perimeter_traversal(0, &[1, 3]);
        assert_eq!(w.hops, 1); // reaches 1, gives up on 3
        let f = net.flood(0, &[3]);
        assert!(f.nodes_contacted <= 2);
    }

    #[test]
    fn empty_perimeter_zero_cost() {
        let n = path_net();
        assert_eq!(n.perimeter_traversal(0, &[]), CostReport::default());
    }

    #[test]
    fn energy_model_scales_with_hops() {
        let n = path_net();
        let r = n.server_aggregation(0, &[4]);
        let e = EnergyModel::default().energy(&r);
        assert!((e - 8.0 * 3.0e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_panics() {
        let _ = Network::new(2, &[(0, 5)]);
    }

    #[test]
    fn empty_network_and_bad_source_are_safe() {
        let empty = Network::new(0, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.hops_from(0), Vec::<usize>::new());
        assert_eq!(empty.perimeter_traversal(0, &[]), CostReport::default());
        // A source beyond the network reaches nothing instead of panicking.
        let n = path_net();
        assert!(n.hops_from(99).iter().all(|&h| h == usize::MAX));
    }

    #[test]
    fn traversal_unchanged_by_early_exit() {
        // A denser topology where the early-exit BFS stops well before
        // exhausting the graph: results must match the path-metric by hand.
        let n = 30;
        let mut links: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        links.extend((0..n - 5).map(|i| (i, i + 5))); // chords
        let net = Network::new(n, &links);
        let perimeter = [3, 7, 11, 2];
        let walk = net.perimeter_traversal(3, &perimeter);
        assert!(walk.nodes_contacted >= perimeter.len());
        // Every perimeter sensor is reachable, so the walk visits them all:
        // hops is the sum of greedy nearest-neighbour legs.
        assert!(walk.hops >= 3 && walk.max_route >= 1);
    }
}
