//! 1-form integrity auditing: oracle-free detection of corrupted sensors.
//!
//! Theorems 4.1–4.3 make the paired in/out counts a discrete 1-form, and
//! 1-forms obey an exact conservation law on the sampled graph: the
//! population of every face (merged component) equals the running net inflow
//! over its boundary and **can never be negative**. A dead, flipped, or
//! lossy sensor breaks that invariant in ways that are checkable from the
//! monitored edges alone — no ground-truth oracle, no object identifiers.
//!
//! The auditor combines three detectors:
//!
//! 1. **Local hard invariants** — each direction's timestamp log must be
//!    monotone (a sensor observes time in order), and exact duplicate
//!    timestamps are measure-zero for continuous motion, so repeated ones
//!    betray a duplicating sensor.
//! 2. **Conservation scan** — per non-exterior component, boundary events
//!    are signed (+1 inward, −1 outward) and prefix-summed in time order; a
//!    negative running population is impossible for real traffic and
//!    implicates every boundary edge of the violated component.
//! 3. **Silence statistics** — a sensor that is dead for a window leaves a
//!    gap in its event log far larger than its typical inter-event spacing,
//!    and a sensor that logs *nothing* while its sibling boundary edges are
//!    busy is most plausibly dead. These are heuristics: they can only cost
//!    coverage (a healthy-but-quiet edge gets quarantined), never soundness.
//!
//! Each monitored edge is classified [`EdgeHealth::Healthy`],
//! [`EdgeHealth::Suspect`] (questionable but plausibly repairable), or
//! [`EdgeHealth::Dead`] (data unusable), with a confidence score and the
//! evidence that led there. The quarantine-and-repair layer in `stq-core`
//! consumes the report.

use std::collections::BTreeMap;

use crate::form::FormStore;
use crate::{EdgeIdx, Time};

/// The auditor's classification of one monitored edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeHealth {
    /// No evidence against the edge.
    Healthy,
    /// Implicated by conservation violations or duplicate timestamps;
    /// repair (un-flip, dedup) may restore it exactly.
    Suspect,
    /// Hard invariant broken or dead-sensor signature; the data cannot be
    /// trusted at any point in the horizon.
    Dead,
}

/// One piece of evidence against an edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Evidence {
    /// A direction's timestamp log runs backwards.
    NonMonotone {
        /// Which direction is out of order.
        forward: bool,
    },
    /// `pairs` adjacent exact-duplicate timestamps across both directions.
    DuplicateTimestamps {
        /// Number of adjacent equal pairs.
        pairs: usize,
    },
    /// The edge lies on the boundary of a component whose recorded
    /// population went negative.
    Conservation {
        /// The violated component.
        component: usize,
        /// How far below zero the recorded population dipped.
        deficit: f64,
    },
    /// The edge's longest silent gap dwarfs its typical spacing.
    SilentGap {
        /// Longest gap between consecutive events (horizon-clamped).
        max_gap: f64,
        /// Median inter-event gap.
        median_gap: f64,
    },
    /// The edge logged nothing while sibling boundary edges were busy.
    SilentSibling {
        /// Events on the busiest sibling edge.
        busiest_sibling: usize,
    },
}

/// Verdict for one monitored edge.
#[derive(Clone, Debug)]
pub struct EdgeVerdict {
    /// The edge under audit.
    pub edge: EdgeIdx,
    /// Final classification (worst evidence wins).
    pub health: EdgeHealth,
    /// Confidence in the classification, in `[0, 1]`. `Healthy` verdicts
    /// carry confidence 1 minus the strongest (sub-threshold) suspicion.
    pub confidence: f64,
    /// Everything held against the edge.
    pub evidence: Vec<Evidence>,
}

/// A conservation violation on one component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Violation {
    /// The component whose recorded population went negative.
    pub component: usize,
    /// Magnitude of the worst dip below zero.
    pub deficit: f64,
    /// When the population first went negative.
    pub at: Time,
}

/// One component of the sampled graph, described by its inward-oriented
/// boundary. `inward_forward = true` means a forward crossing of the edge
/// enters the component. The caller must *not* include the exterior
/// component: its boundary contains unmonitored entry ramps, so the
/// outside world is not conserved from monitored data.
#[derive(Clone, Debug)]
pub struct ComponentSpec {
    /// Component id (matching `SampledGraph::component_of` in `stq-core`).
    pub id: usize,
    /// Boundary edges with inward orientation flags.
    pub boundary: Vec<(EdgeIdx, bool)>,
}

/// Tuning knobs for the detectors. Defaults are deliberately conservative:
/// false positives cost coverage, false negatives cost soundness, so the
/// silence detectors lean toward flagging.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Minimum adjacent duplicate-timestamp pairs before an edge is
    /// suspected of duplication (a lone tie can be a legitimate collision).
    pub dup_pairs_threshold: usize,
    /// Silent-gap trigger: `max_gap > gap_factor × median_gap`.
    pub gap_factor: f64,
    /// Minimum events on an edge before the gap-ratio test is meaningful.
    pub min_events_for_gap: usize,
    /// Events on the busiest sibling edge required before a completely
    /// silent edge is presumed dead rather than merely quiet.
    pub silent_sibling_min: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            dup_pairs_threshold: 2,
            gap_factor: 8.0,
            min_events_for_gap: 6,
            silent_sibling_min: 8,
        }
    }
}

/// The full audit result: per-edge verdicts plus the raw violations.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    verdicts: BTreeMap<EdgeIdx, EdgeVerdict>,
    violations: Vec<Violation>,
}

impl AuditReport {
    /// Classification of `edge` (`Healthy` if it was not audited).
    pub fn health(&self, edge: EdgeIdx) -> EdgeHealth {
        self.verdicts.get(&edge).map_or(EdgeHealth::Healthy, |v| v.health)
    }

    /// Confidence of the verdict on `edge` (1.0 for unaudited edges).
    pub fn confidence(&self, edge: EdgeIdx) -> f64 {
        self.verdicts.get(&edge).map_or(1.0, |v| v.confidence)
    }

    /// Full verdict for `edge`, if it was audited.
    pub fn verdict(&self, edge: EdgeIdx) -> Option<&EdgeVerdict> {
        self.verdicts.get(&edge)
    }

    /// All verdicts, ordered by edge id.
    pub fn verdicts(&self) -> impl Iterator<Item = &EdgeVerdict> {
        self.verdicts.values()
    }

    /// Edges classified `Suspect` or `Dead`, ordered by edge id.
    pub fn flagged(&self) -> Vec<EdgeIdx> {
        self.verdicts.values().filter(|v| v.health != EdgeHealth::Healthy).map(|v| v.edge).collect()
    }

    /// Edges classified `Dead`.
    pub fn dead(&self) -> Vec<EdgeIdx> {
        self.verdicts.values().filter(|v| v.health == EdgeHealth::Dead).map(|v| v.edge).collect()
    }

    /// Edges classified `Suspect`.
    pub fn suspects(&self) -> Vec<EdgeIdx> {
        self.verdicts.values().filter(|v| v.health == EdgeHealth::Suspect).map(|v| v.edge).collect()
    }

    /// The conservation violations found, one per violated component.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Runs the full audit.
///
/// `monitored` lists every edge carrying a sensor (local checks run on all
/// of them); `components` describes the non-exterior components of the
/// sampled graph with inward-oriented boundaries (conservation and sibling
/// checks run per component); `horizon` is the observation window.
pub fn audit(
    store: &FormStore,
    monitored: &[EdgeIdx],
    components: &[ComponentSpec],
    horizon: (Time, Time),
    cfg: &AuditConfig,
) -> AuditReport {
    let mut evidence: BTreeMap<EdgeIdx, Vec<Evidence>> = BTreeMap::new();
    for &e in monitored {
        evidence.entry(e).or_default();
    }

    // 1. Local hard invariants.
    for &e in monitored {
        let form = store.form(e);
        for forward in [true, false] {
            if !form.is_monotone(forward) {
                evidence.get_mut(&e).unwrap().push(Evidence::NonMonotone { forward });
            }
        }
        let pairs =
            duplicate_pairs(form.timestamps(true)) + duplicate_pairs(form.timestamps(false));
        if pairs >= cfg.dup_pairs_threshold {
            evidence.get_mut(&e).unwrap().push(Evidence::DuplicateTimestamps { pairs });
        }
    }

    // 2. Conservation scan per component.
    let mut violations = Vec::new();
    for comp in components {
        if let Some(v) = conservation_violation(store, comp) {
            let share = v.deficit / comp.boundary.len().max(1) as f64;
            for &(e, _) in &comp.boundary {
                if let Some(ev) = evidence.get_mut(&e) {
                    ev.push(Evidence::Conservation { component: comp.id, deficit: share });
                }
            }
            violations.push(v);
        }
    }

    // 3. Silence statistics: gap ratio on busy edges, sibling contrast on
    // completely silent ones.
    let mut busiest: BTreeMap<EdgeIdx, usize> = BTreeMap::new();
    for comp in components {
        let max_events = comp
            .boundary
            .iter()
            .map(|&(e, _)| store.form(e).total(true) + store.form(e).total(false))
            .max()
            .unwrap_or(0);
        for &(e, _) in &comp.boundary {
            let b = busiest.entry(e).or_insert(0);
            *b = (*b).max(max_events);
        }
    }
    for &e in monitored {
        let form = store.form(e);
        let n = form.total(true) + form.total(false);
        if n == 0 {
            let sib = busiest.get(&e).copied().unwrap_or(0);
            if sib >= cfg.silent_sibling_min {
                evidence
                    .get_mut(&e)
                    .unwrap()
                    .push(Evidence::SilentSibling { busiest_sibling: sib });
            }
            continue;
        }
        if n >= cfg.min_events_for_gap {
            if let Some((max_gap, median_gap)) = gap_stats(form, horizon) {
                if median_gap > 0.0 && max_gap > cfg.gap_factor * median_gap {
                    evidence.get_mut(&e).unwrap().push(Evidence::SilentGap { max_gap, median_gap });
                }
            }
        }
    }

    // 4. Classify.
    let verdicts =
        evidence.into_iter().map(|(edge, evs)| (edge, classify(edge, evs, cfg))).collect();
    AuditReport { verdicts, violations }
}

/// Signed-prefix conservation scan of one component. Returns the worst dip
/// below zero, if any. Ties are resolved entries-first: an object entering
/// at the same instant another leaves must not read as a dip.
pub fn conservation_violation(store: &FormStore, comp: &ComponentSpec) -> Option<Violation> {
    let mut events: Vec<(Time, i32)> = Vec::new();
    for &(e, inward_forward) in &comp.boundary {
        let form = store.form(e);
        for &t in form.timestamps(inward_forward) {
            events.push((t, 1));
        }
        for &t in form.timestamps(!inward_forward) {
            events.push((t, -1));
        }
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)));
    let mut pop = 0i64;
    let mut worst = 0i64;
    let mut at = None;
    for (t, sign) in events {
        pop += sign as i64;
        if pop < worst {
            worst = pop;
            at = Some(t);
        }
    }
    at.map(|t| Violation { component: comp.id, deficit: -worst as f64, at: t })
}

fn duplicate_pairs(seq: &[Time]) -> usize {
    let mut sorted = seq.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted.windows(2).filter(|w| w[0] == w[1]).count()
}

/// (max gap, median gap) over the merged event stream of both directions,
/// including the leading/trailing silences against the horizon ends.
fn gap_stats(form: &crate::TrackingForm, horizon: (Time, Time)) -> Option<(f64, f64)> {
    let mut ts: Vec<Time> =
        form.timestamps(true).iter().chain(form.timestamps(false)).copied().collect();
    if ts.is_empty() {
        return None;
    }
    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (t0, t1) = horizon;
    let mut gaps = Vec::with_capacity(ts.len() + 1);
    gaps.push((ts[0] - t0).max(0.0));
    gaps.extend(ts.windows(2).map(|w| w[1] - w[0]));
    gaps.push((t1 - ts[ts.len() - 1]).max(0.0));
    let max_gap = gaps.iter().cloned().fold(0.0, f64::max);
    // Median over *positive* gaps: duplicated timestamps create zero gaps
    // that would drag the median to 0 and make every edge look gappy.
    let mut positive: Vec<f64> = gaps.into_iter().filter(|&g| g > 0.0).collect();
    if positive.is_empty() {
        return None;
    }
    positive.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = positive[positive.len() / 2];
    Some((max_gap, median))
}

fn classify(edge: EdgeIdx, evidence: Vec<Evidence>, cfg: &AuditConfig) -> EdgeVerdict {
    let mut health = EdgeHealth::Healthy;
    let mut confidence = 0.0f64;
    let mut kinds = 0u32;
    let mut conservation_weight = 0.0;
    for ev in &evidence {
        let (h, c) = match *ev {
            // Time running backwards is impossible for a working sensor, and
            // unknown jitter cannot be inverted: the data is unusable.
            Evidence::NonMonotone { .. } => (EdgeHealth::Dead, 1.0),
            // Duplicates are repairable by dedup: suspect, not dead.
            Evidence::DuplicateTimestamps { pairs } => {
                (EdgeHealth::Suspect, (0.4 + 0.15 * pairs as f64).min(1.0))
            }
            Evidence::Conservation { deficit, .. } => {
                conservation_weight += deficit;
                (EdgeHealth::Suspect, 1.0 - (-conservation_weight).exp())
            }
            Evidence::SilentGap { max_gap, median_gap } => {
                let ratio = max_gap / median_gap.max(1e-12);
                (EdgeHealth::Dead, (1.0 - cfg.gap_factor / ratio).clamp(0.3, 0.95))
            }
            Evidence::SilentSibling { .. } => (EdgeHealth::Dead, 0.6),
        };
        if h > health {
            health = h;
        }
        confidence = confidence.max(c);
        kinds |= 1
            << match ev {
                Evidence::NonMonotone { .. } => 0,
                Evidence::DuplicateTimestamps { .. } => 1,
                Evidence::Conservation { .. } => 2,
                Evidence::SilentGap { .. } | Evidence::SilentSibling { .. } => 3,
            };
    }
    // Independent detector families agreeing is stronger than either alone.
    if kinds.count_ones() >= 2 {
        confidence = (confidence + 0.2).min(1.0);
    }
    if health == EdgeHealth::Healthy {
        confidence = 1.0 - confidence;
    }
    EdgeVerdict { edge, health, confidence, evidence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrackingForm;

    /// One component, boundary `e0` (forward = inward) and `e1`
    /// (forward = outward). Traffic: objects enter via `e0.fwd` and exit
    /// via `e1.fwd`.
    fn two_edge_component() -> ComponentSpec {
        ComponentSpec { id: 0, boundary: vec![(0, true), (1, false)] }
    }

    fn clean_store(crossings: usize) -> FormStore {
        let mut s = FormStore::new(2);
        for k in 0..crossings {
            let t = k as f64 * 10.0;
            s.record(0, true, t + 1.0); // enter
            s.record(1, true, t + 2.0); // exit
        }
        s
    }

    fn run(store: &FormStore) -> AuditReport {
        audit(store, &[0, 1], &[two_edge_component()], (0.0, 100.0), &AuditConfig::default())
    }

    #[test]
    fn clean_traffic_is_clean() {
        let report = run(&clean_store(8));
        assert!(
            report.verdicts().all(|v| v.health == EdgeHealth::Healthy),
            "verdicts: {:?}",
            report.verdicts().collect::<Vec<_>>()
        );
        assert!(report.violations().is_empty());
        assert_eq!(report.health(0), EdgeHealth::Healthy);
        assert!(report.confidence(0) > 0.9);
    }

    #[test]
    fn flipped_edge_violates_conservation() {
        let mut s = clean_store(8);
        // Flip edge 0: all entries recorded as exits.
        let flipped = TrackingForm::from_sequences(
            s.form(0).timestamps(false).to_vec(),
            s.form(0).timestamps(true).to_vec(),
        );
        s.set_form(0, flipped);
        let report = run(&s);
        assert!(!report.violations().is_empty());
        assert_ne!(report.health(0), EdgeHealth::Healthy);
        assert_ne!(report.health(1), EdgeHealth::Healthy, "whole boundary implicated");
    }

    #[test]
    fn dead_edge_detected_by_conservation_and_silence() {
        let mut s = clean_store(8);
        s.set_form(0, TrackingForm::new()); // sensor 0 dead: exits unmatched
        let report = run(&s);
        assert!(!report.violations().is_empty());
        assert_eq!(report.health(0), EdgeHealth::Dead, "silent while sibling busy");
        assert!(report.confidence(0) >= 0.6);
    }

    #[test]
    fn non_monotone_log_is_dead_with_certainty() {
        let mut s = clean_store(8);
        let mut fwd = s.form(0).timestamps(true).to_vec();
        fwd.swap(2, 5);
        let skewed = TrackingForm::from_sequences(fwd, s.form(0).timestamps(false).to_vec());
        s.set_form(0, skewed);
        let report = run(&s);
        assert_eq!(report.health(0), EdgeHealth::Dead);
        assert_eq!(report.confidence(0), 1.0);
        assert!(report
            .verdict(0)
            .unwrap()
            .evidence
            .iter()
            .any(|e| matches!(e, Evidence::NonMonotone { .. })));
    }

    #[test]
    fn duplicate_timestamps_are_suspect() {
        let mut s = clean_store(8);
        let mut fwd = Vec::new();
        for &t in s.form(0).timestamps(true) {
            fwd.push(t);
            fwd.push(t); // every event logged twice
        }
        s.set_form(0, TrackingForm::from_sequences(fwd, s.form(0).timestamps(false).to_vec()));
        let report = run(&s);
        assert_eq!(report.health(0), EdgeHealth::Suspect);
        assert!(report
            .verdict(0)
            .unwrap()
            .evidence
            .iter()
            .any(|e| matches!(e, Evidence::DuplicateTimestamps { pairs } if *pairs >= 8)));
    }

    #[test]
    fn dead_window_detected_by_gap() {
        // Sensor alive 0–30 and 470–500 of a 500 s horizon: huge mid gap.
        let mut s = FormStore::new(2);
        let e0: Vec<f64> =
            (0..6).map(|k| k as f64 * 5.0).chain((0..6).map(|k| 470.0 + k as f64 * 5.0)).collect();
        s.set_form(0, TrackingForm::from_sequences(e0, Vec::new()));
        // Edge 1 keeps steady traffic the whole horizon so only edge 0 gaps.
        let exits: Vec<f64> = (0..6)
            .map(|k| k as f64 * 5.0 + 1.0)
            .chain((0..40).map(|k| 41.0 + k as f64 * 10.0))
            .chain((0..6).map(|k| 471.0 + k as f64 * 5.0))
            .collect();
        let entries: Vec<f64> = (0..40).map(|k| 40.0 + k as f64 * 10.0).collect();
        s.set_form(1, TrackingForm::from_sequences(exits, entries));
        let report =
            audit(&s, &[0, 1], &[two_edge_component()], (0.0, 500.0), &AuditConfig::default());
        assert_eq!(report.health(0), EdgeHealth::Dead);
        assert!(report
            .verdict(0)
            .unwrap()
            .evidence
            .iter()
            .any(|e| matches!(e, Evidence::SilentGap { .. })));
    }

    #[test]
    fn simultaneous_entry_exit_is_not_a_dip() {
        let mut s = FormStore::new(2);
        s.record(0, true, 5.0); // an object enters at t = 5...
        s.record(1, true, 5.0); // ...and another exits at exactly t = 5
        let comp = two_edge_component();
        // Entry-first tie ordering: population never dips negative.
        assert!(conservation_violation(&s, &comp).is_none());
    }
}
