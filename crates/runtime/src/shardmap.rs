//! The edge→shard routing map: the single authority every layer of the
//! runtime consults to decide which shard owns an edge.
//!
//! Routing used to be a hard-coded `edge % num_shards` spread across the
//! ingest path, the query fan-out, the redo-buffer bookkeeping, and the
//! supervisor's recovery replay. That worked only because the function was
//! pure and immutable; a map that *migrates* edges needs all five layers to
//! agree on one assignment at every instant, so the mapping lives in one
//! [`ShardMap`] they all share.
//!
//! The map starts from the static `e % N` assignment. Without rebalancing
//! it stays there: the epoch is always 0 and no rebalance is ever due or
//! planned. With it (`RuntimeConfig::rebalance`), it tracks per-edge
//! crossing rates in a decayed histogram fed from the subscription
//! registry's lifetime-totals table (no second counter array on the hot
//! path) and, when one shard's load runs past `MIN_IMBALANCE` × the mean,
//! plans a migration of its hottest edges to the least-loaded shard.
//! Committing a migration bumps the **map epoch**; the supervisor performs
//! the actual state hand-off before the bump (see `crate::supervisor`).
//! Nothing else follows a migration: query plans and standing brackets
//! never read which shard holds an edge.
//!
//! The map itself is lock-free on the routing path: `shard_of` is one
//! atomic load, and `record_route` one relaxed add (two when rebalancing).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One planned edge move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The edge to move.
    pub edge: usize,
    /// The shard currently owning it.
    pub from: usize,
    /// The shard that takes it over.
    pub to: usize,
}

/// Routed events between rebalance checks. The check itself is an
/// O(num_edges) pass over the totals table, so it amortizes over thousands
/// of events.
const CHECK_EVERY: u64 = 4096;

/// Edge moves per committed migration batch. Each batch quiesces the
/// involved shards once, so a larger cap amortizes the hand-off.
const MAX_MOVES: usize = 32;

/// Per-check exponential decay of the per-edge rate histogram: half of the
/// last window's rate carries into the next. Decay is keyed on routed-event
/// *counts*, not wall clock, so planning stays deterministic for a
/// deterministic stream.
const DECAY: f64 = 0.5;

/// Minimum `max_shard_load / mean_shard_load` ratio before a migration is
/// planned: 25 % imbalance is tolerated.
const MIN_IMBALANCE: f64 = 1.25;

/// Decayed per-edge rate histogram, updated on each plan pass.
struct LoadWindow {
    /// Decayed crossing rate per edge.
    decayed: Vec<f64>,
    /// Lifetime totals snapshot at the previous pass; the difference is the
    /// window's traffic.
    last_totals: Vec<u64>,
}

/// What only a rebalancing map carries: its clock, the registry's totals
/// it reads load from, and the decayed rate window between plan passes.
struct Rebalancer {
    /// Routed events since the last plan pass (the `rebalance_due` clock).
    routed: AtomicU64,
    /// The registry's per-edge lifetime `[forward, backward]` totals.
    totals: Arc<Vec<[AtomicU64; 2]>>,
    window: Mutex<LoadWindow>,
}

/// The edge→shard routing authority. Shared by ingest, query fan-out, redo
/// bookkeeping, recovery replay, and subscription delta routing — all of
/// which must observe assignment changes atomically with the epoch bump.
///
/// When rebalancing, per-edge load is read from the subscription registry's
/// lifetime-totals table (`forward + backward` crossings), which `ingest`
/// already maintains — the map keeps no per-event counter of its own. Each
/// `plan_rebalance` pass folds the window's traffic into a decayed per-edge
/// histogram, aggregates it per shard, and when the hottest shard exceeds
/// `MIN_IMBALANCE` × the mean, greedily reassigns its hottest edges to the
/// least-loaded shard until the excess is gone (capped at `MAX_MOVES`).
pub struct ShardMap {
    num_shards: usize,
    /// Current owner per edge (u32 is plenty: shards are thread counts).
    assign: Vec<AtomicU32>,
    epoch: AtomicU64,
    loads: Vec<AtomicU64>,
    /// `None`: the assignment never changes. Boxed: the map sits inline in
    /// the runtime's shared state, and the clock every routed batch bumps
    /// must not share a cache line with fields every thread reads.
    rebalancer: Option<Box<Rebalancer>>,
}

impl ShardMap {
    /// A map over `num_shards` shards starting from the modulo assignment
    /// of the `totals.len()` edges; with `rebalance` it accounts load
    /// against the registry's `totals` table and plans migrations.
    pub fn new(num_shards: usize, totals: &Arc<Vec<[AtomicU64; 2]>>, rebalance: bool) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let num_edges = totals.len();
        let rebalancer = rebalance.then(|| {
            Box::new(Rebalancer {
                routed: AtomicU64::new(0),
                totals: Arc::clone(totals),
                window: Mutex::new(LoadWindow {
                    decayed: vec![0.0; num_edges],
                    last_totals: vec![0; num_edges],
                }),
            })
        });
        ShardMap {
            num_shards,
            assign: (0..num_edges).map(|e| AtomicU32::new((e % num_shards) as u32)).collect(),
            epoch: AtomicU64::new(0),
            loads: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            rebalancer,
        }
    }

    /// The shard currently owning `edge`.
    pub fn shard_of(&self, edge: usize) -> usize {
        match self.assign.get(edge) {
            Some(a) => a.load(Ordering::Acquire) as usize,
            // Unknown edges (rejected by ingest anyway) keep the static rule.
            None => edge % self.num_shards,
        }
    }

    /// Monotone epoch, bumped once per committed migration batch. A reader
    /// that re-checks `shard_of` after observing an unchanged epoch saw a
    /// consistent assignment.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Accounts `events` routed to `shard` (load bookkeeping only).
    pub fn record_route(&self, shard: usize, events: u64) {
        self.loads[shard].fetch_add(events, Ordering::Relaxed);
        if let Some(r) = &self.rebalancer {
            r.routed.fetch_add(events, Ordering::Relaxed);
        }
    }

    /// Per-shard routed-event counts since startup (the imbalance witness
    /// benchmarks report).
    pub fn loads(&self) -> Vec<u64> {
        self.loads.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }

    /// Whether enough traffic has accrued since the last plan to make a
    /// rebalance check worthwhile: `CHECK_EVERY` routed events. Never
    /// true without rebalancing.
    pub fn rebalance_due(&self) -> bool {
        self.rebalancer.as_ref().is_some_and(|r| r.routed.load(Ordering::Relaxed) >= CHECK_EVERY)
    }

    /// Plans (but does not apply) a migration batch. Empty when balanced,
    /// and always without rebalancing.
    pub fn plan_rebalance(&self) -> Vec<Migration> {
        let Some(Rebalancer { routed, totals, window }) = self.rebalancer.as_deref() else {
            return Vec::new();
        };
        let mut w = window.lock();
        routed.store(0, Ordering::Relaxed);
        let num_edges = w.decayed.len();
        // Fold the window's traffic into the decayed histogram.
        for e in 0..num_edges {
            let t = totals[e][0].load(Ordering::Relaxed) + totals[e][1].load(Ordering::Relaxed);
            let delta = t.saturating_sub(w.last_totals[e]) as f64;
            w.last_totals[e] = t;
            w.decayed[e] = DECAY * w.decayed[e] + delta;
        }
        // Aggregate per shard under the *current* assignment.
        let mut shard_load = vec![0.0f64; self.num_shards];
        for e in 0..num_edges {
            shard_load[self.assign[e].load(Ordering::Acquire) as usize] += w.decayed[e];
        }
        let total: f64 = shard_load.iter().sum();
        let mean = total / self.num_shards as f64;
        if mean <= 0.0 || mean.is_nan() {
            return Vec::new();
        }
        let hot = shard_load
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(s, _)| s)
            .expect("at least one shard");
        if shard_load[hot] <= MIN_IMBALANCE * mean {
            return Vec::new();
        }
        // Hottest edges first; ties break on the edge id so planning is
        // deterministic for a deterministic stream.
        let mut hot_edges: Vec<(usize, f64)> = (0..num_edges)
            .filter(|&e| self.assign[e].load(Ordering::Acquire) as usize == hot)
            .map(|e| (e, w.decayed[e]))
            .filter(|&(_, rate)| rate > 0.0)
            .collect();
        hot_edges.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut moves = Vec::new();
        for (edge, rate) in hot_edges {
            if moves.len() >= MAX_MOVES || shard_load[hot] <= mean {
                break;
            }
            let to = shard_load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(s, _)| s)
                .expect("at least one shard");
            // Only move while it strictly narrows the spread.
            if to == hot || shard_load[to] + rate >= shard_load[hot] {
                break;
            }
            shard_load[hot] -= rate;
            shard_load[to] += rate;
            moves.push(Migration { edge, from: hot, to });
        }
        moves
    }

    /// Applies a committed migration batch and bumps the epoch. The caller
    /// (the supervisor's migration protocol) is responsible for moving the
    /// actual shard state first; the map only flips the routing entries.
    pub fn commit(&self, moves: &[Migration]) {
        if moves.is_empty() {
            return;
        }
        for m in moves {
            debug_assert_eq!(
                self.assign[m.edge].load(Ordering::Acquire) as usize,
                m.from,
                "migration source must match the current assignment"
            );
            self.assign[m.edge].store(m.to as u32, Ordering::Release);
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(n: usize) -> Arc<Vec<[AtomicU64; 2]>> {
        Arc::new((0..n).map(|_| [AtomicU64::new(0), AtomicU64::new(0)]).collect())
    }

    #[test]
    fn modulo_map_matches_the_static_rule() {
        // 32 known edges; ids past them fall back to the same static rule.
        let m = ShardMap::new(4, &totals(32), false);
        for e in 0..64 {
            assert_eq!(m.shard_of(e), e % 4);
        }
        assert_eq!(m.epoch(), 0);
        assert!(!m.rebalance_due());
        assert!(m.plan_rebalance().is_empty());
        m.record_route(2, 7);
        assert_eq!(m.loads(), vec![0, 0, 7, 0]);
    }

    #[test]
    fn load_aware_starts_modulo_and_needs_traffic_to_plan() {
        let t = totals(32);
        let m = ShardMap::new(4, &t, true);
        for e in 0..32 {
            assert_eq!(m.shard_of(e), e % 4);
        }
        assert!(m.plan_rebalance().is_empty(), "no traffic, nothing to move");
        assert_eq!(m.epoch(), 0);
    }

    #[test]
    fn load_aware_moves_hot_edges_off_the_hot_shard() {
        let t = totals(32);
        // Edges 0, 4, 8 (all shard 0 under modulo/4) carry all the traffic.
        t[0][0].store(1000, Ordering::Relaxed);
        t[4][0].store(900, Ordering::Relaxed);
        t[8][1].store(800, Ordering::Relaxed);
        let m = ShardMap::new(4, &t, true);
        let moves = m.plan_rebalance();
        assert!(!moves.is_empty(), "hotspot must trigger a plan");
        assert!(moves.iter().all(|mv| mv.from == 0), "only the hot shard sheds edges");
        assert!(moves.iter().all(|mv| mv.to != 0));
        m.commit(&moves);
        assert_eq!(m.epoch(), 1);
        for mv in &moves {
            assert_eq!(m.shard_of(mv.edge), mv.to);
        }
        // Once balanced, an immediate re-plan with no new traffic is empty.
        assert!(m.plan_rebalance().is_empty(), "no new window traffic, already balanced");
    }

    #[test]
    fn load_aware_plan_is_deterministic() {
        let mk = || {
            let t = totals(64);
            for e in 0..64 {
                t[e][0].store(((e as u64) * 37) % 211, Ordering::Relaxed);
            }
            ShardMap::new(4, &t, true).plan_rebalance()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn rebalance_due_tracks_routed_events() {
        let t = totals(8);
        let m = ShardMap::new(2, &t, true);
        assert!(!m.rebalance_due());
        m.record_route(0, CHECK_EVERY - 1);
        assert!(!m.rebalance_due());
        m.record_route(1, 1);
        assert!(m.rebalance_due());
        let _ = m.plan_rebalance(); // resets the clock
        assert!(!m.rebalance_due());
    }
}
