//! Sensor-level fault injection: corruption of the *data* a sensing link
//! records, as opposed to the message-level faults of [`crate::fault`].
//!
//! A [`SensorFaultPlan`] is a seeded schedule over sensing-link edges. Each
//! afflicted edge gets exactly one fault mode:
//!
//! - **Dead** — the sensor records nothing during a time window (power loss,
//!   reboot loop),
//! - **Lossy** — a fraction of crossings is silently missed (marginal radio,
//!   debounce bugs),
//! - **Duplicating** — each crossing may be logged twice (retransmission
//!   without dedup),
//! - **Flipped** — the in/out polarity is wired backwards for the sensor's
//!   whole life, so every forward crossing is logged as backward and vice
//!   versa,
//! - **Skewed** — the sensor's clock wanders: timestamps get a per-event
//!   jitter that can break per-direction monotonicity and even escape the
//!   observation horizon.
//!
//! The plan is applied **at ingestion** (see `stq_core::tracker`), so the
//! corrupted `TrackingForm`s really contain wrong data — exactly what the
//! 1-form integrity auditor in `stq-forms` must detect from conservation
//! violations alone. Every decision is a pure function of the seed and the
//! event identity (edge, direction, ordinal), so corrupted runs replay
//! bit-for-bit.

/// The failure mode of one afflicted sensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SensorFaultKind {
    /// Records nothing inside the fault window.
    Dead,
    /// Drops each crossing independently with the plan's `drop_p`.
    Lossy,
    /// Logs each crossing twice with the plan's `dup_p`.
    Duplicating,
    /// Swaps the in/out direction of every crossing.
    Flipped,
    /// Adds per-event clock jitter of up to the plan's `max_skew` seconds.
    Skewed,
}

impl SensorFaultKind {
    /// All fault kinds, in schedule-assignment order.
    pub const ALL: [SensorFaultKind; 5] = [
        SensorFaultKind::Dead,
        SensorFaultKind::Lossy,
        SensorFaultKind::Duplicating,
        SensorFaultKind::Flipped,
        SensorFaultKind::Skewed,
    ];

    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SensorFaultKind::Dead => "dead",
            SensorFaultKind::Lossy => "lossy",
            SensorFaultKind::Duplicating => "duplicating",
            SensorFaultKind::Flipped => "flipped",
            SensorFaultKind::Skewed => "skewed",
        }
    }
}

/// One scheduled sensor fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorFault {
    /// The afflicted sensing link (road-edge id).
    pub edge: usize,
    /// What goes wrong.
    pub kind: SensorFaultKind,
    /// When it is active. `Dead` uses this as the outage window; the other
    /// modes afflict the sensor for its whole life (`[-inf, inf]` semantics
    /// are spelled as the full horizon).
    pub from: f64,
    /// End of the active window (inclusive).
    pub until: f64,
}

/// What happens to one recorded crossing under the plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorEventFate {
    /// The (possibly rewritten) event, `None` when the crossing is lost.
    pub event: Option<(bool, f64)>,
    /// A spurious second copy (duplication), if any.
    pub extra: Option<(bool, f64)>,
}

impl SensorEventFate {
    /// An untouched crossing.
    pub fn clean(forward: bool, time: f64) -> Self {
        SensorEventFate { event: Some((forward, time)), extra: None }
    }
}

/// Per-kind fractions of the candidate sensor set to afflict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorFaultMix {
    /// Fraction of sensors that die for a window.
    pub dead: f64,
    /// Fraction with lossy event capture.
    pub lossy: f64,
    /// Fraction that duplicate events.
    pub duplicating: f64,
    /// Fraction with flipped polarity.
    pub flipped: f64,
    /// Fraction with clock skew.
    pub skewed: f64,
}

impl Default for SensorFaultMix {
    fn default() -> Self {
        Self::none()
    }
}

impl SensorFaultMix {
    /// Nothing is afflicted.
    pub fn none() -> Self {
        SensorFaultMix { dead: 0.0, lossy: 0.0, duplicating: 0.0, flipped: 0.0, skewed: 0.0 }
    }

    /// Only dead sensors — the headline sweep axis.
    pub fn dead_only(frac: f64) -> Self {
        SensorFaultMix { dead: frac, ..Self::none() }
    }

    /// Sum of all fractions (must stay ≤ 1 for a valid schedule).
    pub fn total(&self) -> f64 {
        self.dead + self.lossy + self.duplicating + self.flipped + self.skewed
    }
}

/// A seeded, replayable schedule of sensor corruption.
#[derive(Clone, Debug, PartialEq)]
pub struct SensorFaultPlan {
    /// Root seed; all per-event coins derive from it.
    pub seed: u64,
    /// Per-crossing drop probability of `Lossy` sensors.
    pub drop_p: f64,
    /// Per-crossing duplication probability of `Duplicating` sensors.
    pub dup_p: f64,
    /// Clock-jitter amplitude (seconds) of `Skewed` sensors.
    pub max_skew: f64,
    /// The scheduled faults, at most one per edge, sorted by edge.
    faults: Vec<SensorFault>,
}

impl Default for SensorFaultPlan {
    fn default() -> Self {
        SensorFaultPlan::none()
    }
}

impl SensorFaultPlan {
    /// A plan that corrupts nothing.
    pub fn none() -> Self {
        SensorFaultPlan { seed: 0, drop_p: 0.0, dup_p: 0.0, max_skew: 0.0, faults: Vec::new() }
    }

    /// Builds a plan from an explicit fault list (deduplicated by edge,
    /// first fault per edge wins).
    pub fn from_faults(seed: u64, faults: Vec<SensorFault>) -> Self {
        let mut fs = faults;
        fs.sort_by_key(|f| f.edge);
        fs.dedup_by_key(|f| f.edge);
        SensorFaultPlan { seed, drop_p: 0.5, dup_p: 1.0, max_skew: 50.0, faults: fs }
    }

    /// Generates a schedule: deterministically picks disjoint subsets of
    /// `candidate_edges` for each kind per `mix`, with `Dead` outages placed
    /// at seeded offsets inside `horizon = (t0, t1)`.
    pub fn generate(
        seed: u64,
        candidate_edges: &[usize],
        horizon: (f64, f64),
        mix: SensorFaultMix,
    ) -> Self {
        assert!(mix.total() <= 1.0 + 1e-9, "fault fractions must sum to ≤ 1");
        let n = candidate_edges.len();
        // Seeded partial shuffle of the candidates (Fisher–Yates driven by
        // the same SplitMix64 stream as the per-event coins).
        let mut order: Vec<usize> = candidate_edges.to_vec();
        for i in (1..n).rev() {
            let j = (mix_word(seed, 0xE0, i as u64, 0) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let (t0, t1) = horizon;
        let span = (t1 - t0).max(0.0);
        let mut faults = Vec::new();
        let mut cursor = 0usize;
        for kind in SensorFaultKind::ALL {
            let frac = match kind {
                SensorFaultKind::Dead => mix.dead,
                SensorFaultKind::Lossy => mix.lossy,
                SensorFaultKind::Duplicating => mix.duplicating,
                SensorFaultKind::Flipped => mix.flipped,
                SensorFaultKind::Skewed => mix.skewed,
            };
            let take = ((n as f64 * frac).round() as usize).min(n - cursor);
            for &edge in &order[cursor..cursor + take] {
                let (from, until) = if kind == SensorFaultKind::Dead {
                    // Outage covering a seeded 40–80% stretch of the horizon.
                    let u = coin(mix_word(seed, 0xDE, edge as u64, 0));
                    let frac_len = 0.4 + 0.4 * coin(mix_word(seed, 0xDF, edge as u64, 0));
                    let len = span * frac_len;
                    let start = t0 + u * (span - len).max(0.0);
                    (start, start + len)
                } else {
                    (f64::NEG_INFINITY, f64::INFINITY)
                };
                faults.push(SensorFault { edge, kind, from, until });
            }
            cursor += take;
        }
        faults.sort_by_key(|f| f.edge);
        SensorFaultPlan { seed, drop_p: 0.5, dup_p: 1.0, max_skew: 50.0, faults }
    }

    /// The scheduled faults, sorted by edge.
    pub fn faults(&self) -> &[SensorFault] {
        &self.faults
    }

    /// The fault afflicting `edge`, if any.
    pub fn fault_of(&self, edge: usize) -> Option<&SensorFault> {
        self.faults.binary_search_by_key(&edge, |f| f.edge).ok().map(|i| &self.faults[i])
    }

    /// Edges afflicted by any fault kind — the injected ground truth the
    /// auditor's detections are scored against.
    pub fn corrupted_edges(&self) -> Vec<usize> {
        self.faults.iter().map(|f| f.edge).collect()
    }

    /// Edges whose sensor is dead for some window.
    pub fn dead_edges(&self) -> Vec<usize> {
        self.edges_of(SensorFaultKind::Dead)
    }

    /// Edges afflicted by one specific kind.
    pub fn edges_of(&self, kind: SensorFaultKind) -> Vec<usize> {
        self.faults.iter().filter(|f| f.kind == kind).map(|f| f.edge).collect()
    }

    /// The fate of one crossing. `ordinal` is the event's index on its edge
    /// (any stable per-edge counter works); it keys the per-event coins so
    /// the same ingestion replays identically.
    pub fn corrupt(&self, edge: usize, forward: bool, time: f64, ordinal: u64) -> SensorEventFate {
        let Some(fault) = self.fault_of(edge) else {
            return SensorEventFate::clean(forward, time);
        };
        let active = time >= fault.from && time <= fault.until;
        match fault.kind {
            SensorFaultKind::Dead => {
                if active {
                    SensorEventFate { event: None, extra: None }
                } else {
                    SensorEventFate::clean(forward, time)
                }
            }
            SensorFaultKind::Lossy => {
                if coin(mix_word(self.seed, 0x01, edge as u64, ordinal)) < self.drop_p {
                    SensorEventFate { event: None, extra: None }
                } else {
                    SensorEventFate::clean(forward, time)
                }
            }
            SensorFaultKind::Duplicating => {
                let extra = if coin(mix_word(self.seed, 0x02, edge as u64, ordinal)) < self.dup_p {
                    Some((forward, time))
                } else {
                    None
                };
                SensorEventFate { event: Some((forward, time)), extra }
            }
            SensorFaultKind::Flipped => SensorEventFate::clean(!forward, time),
            SensorFaultKind::Skewed => {
                let jitter = (coin(mix_word(self.seed, 0x03, edge as u64, ordinal)) * 2.0 - 1.0)
                    * self.max_skew;
                SensorEventFate::clean(forward, time + jitter)
            }
        }
    }
}

/// SplitMix64 finalizer over `(seed, salt, a, b)` — the same construction as
/// [`crate::fault::FaultPlan`]'s per-message stream.
fn mix_word(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(salt << 23);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn coin(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(mix: SensorFaultMix) -> SensorFaultPlan {
        let edges: Vec<usize> = (0..100).collect();
        SensorFaultPlan::generate(99, &edges, (0.0, 1_000.0), mix)
    }

    #[test]
    fn noop_plan_touches_nothing() {
        let p = SensorFaultPlan::none();
        for k in 0..50 {
            assert_eq!(
                p.corrupt(k, k % 2 == 0, k as f64, 0),
                SensorEventFate::clean(k % 2 == 0, k as f64)
            );
        }
    }

    #[test]
    fn generate_is_deterministic_and_disjoint() {
        let mix =
            SensorFaultMix { dead: 0.2, lossy: 0.1, duplicating: 0.1, flipped: 0.1, skewed: 0.1 };
        let a = plan(mix);
        let b = plan(mix);
        assert_eq!(a, b);
        let mut edges = a.corrupted_edges();
        assert_eq!(edges.len(), 60, "20+10+10+10+10 of 100");
        edges.dedup();
        assert_eq!(edges.len(), 60, "fault kinds afflict disjoint sensors");
        assert_eq!(a.dead_edges().len(), 20);
    }

    #[test]
    fn different_seeds_pick_different_sensors() {
        let edges: Vec<usize> = (0..200).collect();
        let mix = SensorFaultMix::dead_only(0.2);
        let a = SensorFaultPlan::generate(1, &edges, (0.0, 100.0), mix);
        let b = SensorFaultPlan::generate(2, &edges, (0.0, 100.0), mix);
        assert_ne!(a.dead_edges(), b.dead_edges());
    }

    #[test]
    fn dead_sensor_silent_only_inside_window() {
        let p = plan(SensorFaultMix::dead_only(0.3));
        let f = p.faults()[0];
        assert_eq!(f.kind, SensorFaultKind::Dead);
        assert!(f.from >= 0.0 && f.until <= 1_000.0 && f.from < f.until);
        let mid = (f.from + f.until) / 2.0;
        assert_eq!(p.corrupt(f.edge, true, mid, 0).event, None);
        if f.from > 0.0 {
            assert!(p.corrupt(f.edge, true, f.from - 1.0, 0).event.is_some());
        }
    }

    #[test]
    fn flip_swaps_direction_and_keeps_time() {
        let p = plan(SensorFaultMix { flipped: 0.2, ..SensorFaultMix::none() });
        let e = p.edges_of(SensorFaultKind::Flipped)[0];
        assert_eq!(p.corrupt(e, true, 5.0, 3), SensorEventFate::clean(false, 5.0));
        assert_eq!(p.corrupt(e, false, 7.0, 4), SensorEventFate::clean(true, 7.0));
    }

    #[test]
    fn lossy_drops_roughly_drop_p() {
        let p = plan(SensorFaultMix { lossy: 0.1, ..SensorFaultMix::none() });
        let e = p.edges_of(SensorFaultKind::Lossy)[0];
        let dropped =
            (0..10_000).filter(|&k| p.corrupt(e, true, k as f64 * 0.1, k).event.is_none()).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - p.drop_p).abs() < 0.03, "drop rate {rate} vs {}", p.drop_p);
    }

    #[test]
    fn duplication_emits_extra_copy() {
        let p = plan(SensorFaultMix { duplicating: 0.1, ..SensorFaultMix::none() });
        let e = p.edges_of(SensorFaultKind::Duplicating)[0];
        let fate = p.corrupt(e, true, 9.0, 0);
        assert_eq!(fate.event, Some((true, 9.0)));
        assert_eq!(fate.extra, Some((true, 9.0)), "dup_p = 1 duplicates every event");
    }

    #[test]
    fn skew_stays_bounded() {
        let p = plan(SensorFaultMix { skewed: 0.1, ..SensorFaultMix::none() });
        let e = p.edges_of(SensorFaultKind::Skewed)[0];
        for k in 0..1_000u64 {
            let t = 500.0;
            let (_, jt) = p.corrupt(e, true, t, k).event.unwrap();
            assert!((jt - t).abs() <= p.max_skew);
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overfull_mix_rejected() {
        let mix = SensorFaultMix { dead: 0.8, lossy: 0.5, ..SensorFaultMix::none() };
        let _ = plan(mix);
    }
}
