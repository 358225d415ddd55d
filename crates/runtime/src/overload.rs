//! Overload control for the serving runtime: deadline budgets, cost-based
//! admission, brownout precision shedding, and per-shard circuit breakers.
//!
//! The paper's central trade — brackets whose width is the price of cheap
//! answers — is exactly the lever a service needs under overload. Instead of
//! stalling clients on a full queue or letting latency grow without bound,
//! the runtime degrades the *precision* of admitted queries while keeping
//! every `[lower, upper]` bracket sound:
//!
//! - **Admission** (`OverloadState::try_admit`): each query is priced via
//!   the §4.9 cost model (`stq_core::cost::CostModel::admission_units` —
//!   predicted perimeter sensors plus shard fan-out). The gate tracks the
//!   total estimated cost in flight and rejects with a `retry_after` hint
//!   once the capacity knob is exceeded. Rejection is *before* any work:
//!   no plan compile, no queue slot, no shard traffic.
//! - **Brownout** (`BrownoutController`): a hysteresis controller watches
//!   queue depth and a windowed p95 of execute latency. Past the high
//!   watermarks it escalates the precision level; each level maps to a
//!   boundary-sampling stride (serve every 2nd / 4th / no boundary edge,
//!   see `QueryPlan::shed_boundary`). Skipped edges degrade exactly like
//!   silent shards — worst-case totals, reduced coverage — so shed answers
//!   are wider but provably sound. Levels relax as load drains, with dwell
//!   counts on both edges so the controller cannot flap.
//! - **Breakers** (`Breakers`): a shard that times out repeatedly trips
//!   open and is skipped outright (its edges degrade immediately — no retry
//!   storm against a dead radio). After `open_for` one probe query is let
//!   through half-open; success closes the breaker, silence re-opens it.
//!
//! Everything here is advisory state *around* the fan-out path; with
//! [`crate::RuntimeConfig::overload`] unset none of it is consulted and the
//! runtime behaves exactly as before.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use stq_core::cost::CostModel;
use stq_core::sampled::SampledGraph;
use stq_core::sensing::SensingGraph;

/// Precision levels the brownout controller can impose (0 = full).
pub const MAX_BROWNOUT_LEVEL: u8 = 3;

/// The boundary-sampling stride of one brownout level: serve every
/// `stride`-th boundary edge. 0 means "serve none" (a fully shed answer
/// built from worst-case totals alone).
pub(crate) fn stride_for(level: u8) -> usize {
    match level {
        0 => 1,
        1 => 2,
        2 => 4,
        _ => 0,
    }
}

/// Knobs of the admission gate, brownout controller, and circuit breakers.
/// Installing this on [`crate::RuntimeConfig::overload`] turns the whole
/// subsystem on; `None` (the default) keeps the classic blocking behavior.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Capacity of the admission gate in cost-model units (see
    /// [`stq_core::cost::CostModel::admission_units`]): the total estimated
    /// cost allowed in flight before `try_submit` rejects. Use
    /// `f64::INFINITY` to disable admission while keeping deadlines,
    /// brownout, and breakers.
    pub max_inflight_cost: f64,
    /// Deadline stamped on specs that do not carry one (`None` leaves
    /// deadline-less queries unbounded, as before).
    pub default_deadline: Option<Duration>,
    /// Brownout hysteresis knobs.
    pub brownout: BrownoutConfig,
    /// Per-shard circuit-breaker knobs.
    pub breaker: BreakerConfig,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_inflight_cost: 512.0,
            default_deadline: None,
            brownout: BrownoutConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Hysteresis knobs of the brownout controller.
#[derive(Clone, Debug)]
pub struct BrownoutConfig {
    /// Queue depth at or above which an observation counts as hot.
    pub queue_high: usize,
    /// Queue depth at or below which an observation can count as cool.
    pub queue_low: usize,
    /// Windowed p95 execute latency (µs) at or above which an observation
    /// counts as hot.
    pub p95_high_us: u64,
    /// Windowed p95 execute latency (µs) at or below which an observation
    /// can count as cool.
    pub p95_low_us: u64,
    /// Consecutive hot (cool) observations required before the level
    /// escalates (relaxes) one step. Observations between the watermarks
    /// reset both counts — the hysteresis band where the level holds.
    pub dwell: u32,
    /// Execute-latency samples in the sliding p95 window.
    pub window: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            queue_high: 48,
            queue_low: 8,
            p95_high_us: 50_000,
            p95_low_us: 10_000,
            dwell: 8,
            window: 64,
        }
    }
}

/// Knobs of the per-shard circuit breakers.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive silent attempt windows before the breaker trips open
    /// (0 disables breakers).
    pub failure_threshold: u32,
    /// How long an open breaker rejects fan-out before letting one probe
    /// through half-open.
    pub open_for: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 4, open_for: Duration::from_millis(250) }
    }
}

/// Why `try_submit` refused a query. The query consumed no capacity; the
/// client should back off for roughly `retry_after` before resubmitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// Backoff hint derived from the gate's fullness and the recent
    /// execute-latency window (clamped to a sane range).
    pub retry_after: Duration,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "admission rejected, retry after {:?}", self.retry_after)
    }
}

impl std::error::Error for Rejected {}

/// What happened to a breaker on one event (the server maps these onto
/// metric counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Transition {
    Opened,
    HalfOpened,
    Closed,
}

/// The fan-out verdict for one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Breaker closed: send normally.
    Allow,
    /// Breaker was open long enough — this query is the half-open probe.
    Probe,
    /// Breaker open (or a probe is already in flight): skip the shard,
    /// degrade its edges to worst-case bounds immediately.
    Skip,
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

struct Breaker {
    state: u8,
    consecutive_failures: u32,
    opened_at: Instant,
}

/// One circuit breaker per shard, each under its own small mutex (the
/// per-query fan-out touches each at most twice).
pub(crate) struct Breakers {
    cfg: BreakerConfig,
    slots: Vec<Mutex<Breaker>>,
}

impl Breakers {
    fn new(cfg: BreakerConfig, num_shards: usize) -> Self {
        let now = Instant::now();
        Breakers {
            cfg,
            slots: (0..num_shards)
                .map(|_| {
                    Mutex::new(Breaker { state: CLOSED, consecutive_failures: 0, opened_at: now })
                })
                .collect(),
        }
    }

    /// Gate one fan-out to `shard`.
    pub(crate) fn admit(&self, shard: usize) -> (Gate, Option<Transition>) {
        if self.cfg.failure_threshold == 0 {
            return (Gate::Allow, None);
        }
        let mut b = self.slots[shard].lock();
        match b.state {
            OPEN if b.opened_at.elapsed() >= self.cfg.open_for => {
                b.state = HALF_OPEN;
                (Gate::Probe, Some(Transition::HalfOpened))
            }
            OPEN => (Gate::Skip, None),
            // While half-open exactly one probe is outstanding; everyone
            // else keeps degrading until the probe resolves the state.
            HALF_OPEN => (Gate::Skip, None),
            _ => (Gate::Allow, None),
        }
    }

    /// The shard answered an attempt in time.
    pub(crate) fn success(&self, shard: usize) -> Option<Transition> {
        if self.cfg.failure_threshold == 0 {
            return None;
        }
        let mut b = self.slots[shard].lock();
        let was_open = b.state != CLOSED;
        b.state = CLOSED;
        b.consecutive_failures = 0;
        was_open.then_some(Transition::Closed)
    }

    /// The shard stayed silent through an attempt window.
    pub(crate) fn failure(&self, shard: usize) -> Option<Transition> {
        if self.cfg.failure_threshold == 0 {
            return None;
        }
        let mut b = self.slots[shard].lock();
        match b.state {
            // A failed half-open probe re-opens immediately.
            HALF_OPEN => {
                b.state = OPEN;
                b.opened_at = Instant::now();
                Some(Transition::Opened)
            }
            CLOSED => {
                b.consecutive_failures += 1;
                if b.consecutive_failures >= self.cfg.failure_threshold {
                    b.state = OPEN;
                    b.opened_at = Instant::now();
                    Some(Transition::Opened)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

struct BrownoutWindow {
    samples: Vec<u64>,
    next: usize,
    filled: usize,
    hot_obs: u32,
    cool_obs: u32,
}

/// The hysteresis controller deciding the current precision level. One
/// observation per served query; the level is read lock-free on the serve
/// path and only the (cheap) observation takes the window mutex.
pub(crate) struct BrownoutController {
    cfg: BrownoutConfig,
    level: AtomicU8,
    window: Mutex<BrownoutWindow>,
}

impl BrownoutController {
    fn new(cfg: BrownoutConfig) -> Self {
        let window = BrownoutWindow {
            samples: vec![0; cfg.window.max(1)],
            next: 0,
            filled: 0,
            hot_obs: 0,
            cool_obs: 0,
        };
        BrownoutController { cfg, level: AtomicU8::new(0), window: Mutex::new(window) }
    }

    /// The precision level queries should currently be served at.
    pub(crate) fn level(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    /// p95 of the execute-latency window (µs); 0 before any sample.
    pub(crate) fn window_p95_us(&self) -> u64 {
        let w = self.window.lock();
        Self::p95(&w)
    }

    fn p95(w: &BrownoutWindow) -> u64 {
        if w.filled == 0 {
            return 0;
        }
        let mut sorted: Vec<u64> = w.samples[..w.filled].to_vec();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * 0.95).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Feeds one served query's context in; returns `Some((from, to))` when
    /// the level changed.
    pub(crate) fn observe(&self, queue_depth: usize, exec_us: u64) -> Option<(u8, u8)> {
        let mut w = self.window.lock();
        let n = w.next;
        w.samples[n] = exec_us;
        w.next = (n + 1) % w.samples.len();
        w.filled = (w.filled + 1).min(w.samples.len());
        let p95 = Self::p95(&w);
        let hot = queue_depth >= self.cfg.queue_high || p95 >= self.cfg.p95_high_us;
        let cool = queue_depth <= self.cfg.queue_low && p95 <= self.cfg.p95_low_us;
        let level = self.level.load(Ordering::Relaxed);
        let dwell = self.cfg.dwell.max(1);
        if hot {
            w.cool_obs = 0;
            w.hot_obs += 1;
            if w.hot_obs >= dwell && level < MAX_BROWNOUT_LEVEL {
                w.hot_obs = 0;
                self.level.store(level + 1, Ordering::Relaxed);
                return Some((level, level + 1));
            }
        } else if cool {
            w.hot_obs = 0;
            w.cool_obs += 1;
            if w.cool_obs >= dwell && level > 0 {
                w.cool_obs = 0;
                self.level.store(level - 1, Ordering::Relaxed);
                return Some((level, level - 1));
            }
        } else {
            // Inside the hysteresis band: hold the level, restart both
            // dwell counts so a change needs sustained evidence.
            w.hot_obs = 0;
            w.cool_obs = 0;
        }
        None
    }
}

/// The §4.9-model pricer the admission gate consults at submit time —
/// before any plan exists, so the price comes from the region's junction
/// fraction (the model's `A(Q)/A(T)` proxy), not a compiled boundary.
struct Pricer {
    model: CostModel,
    total_junctions: f64,
    num_shards: usize,
}

/// All overload-control state of one running [`crate::Runtime`].
pub(crate) struct OverloadState {
    pub(crate) cfg: OverloadConfig,
    pricer: Pricer,
    /// Estimated cost currently admitted and not yet served, in
    /// milli-units (atomic integer arithmetic; prices are a few hundred
    /// units at most, so overflow would need ~10¹⁶ in-flight queries).
    inflight_milli: AtomicU64,
    pub(crate) brownout: BrownoutController,
    pub(crate) breakers: Breakers,
}

impl OverloadState {
    pub(crate) fn new(
        cfg: OverloadConfig,
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        num_shards: usize,
    ) -> Self {
        let model = CostModel::for_deployment(sensing, sampled, 1.0);
        let total_junctions = sensing.road().num_junctions().max(1) as f64;
        OverloadState {
            brownout: BrownoutController::new(cfg.brownout.clone()),
            breakers: Breakers::new(cfg.breaker.clone(), num_shards),
            cfg,
            pricer: Pricer { model, total_junctions, num_shards },
            inflight_milli: AtomicU64::new(0),
        }
    }

    /// Prices a query from its region's junction count.
    pub(crate) fn price(&self, region_junctions: usize) -> f64 {
        let frac = region_junctions as f64 / self.pricer.total_junctions;
        self.pricer.model.admission_units(frac, self.pricer.num_shards)
    }

    /// Tries to reserve `cost` units of gate capacity. On success returns
    /// the milli-unit reservation to hand back via [`Self::release`]; on
    /// refusal returns the `retry_after` hint.
    pub(crate) fn try_admit(&self, cost: f64) -> Result<u64, Duration> {
        if !self.cfg.max_inflight_cost.is_finite() {
            return Ok(0);
        }
        let cap_milli = (self.cfg.max_inflight_cost.max(0.0) * 1000.0) as u64;
        let milli = ((cost * 1000.0).round() as u64).max(1);
        let prev = self.inflight_milli.fetch_add(milli, Ordering::Relaxed);
        if prev.saturating_add(milli) > cap_milli {
            self.inflight_milli.fetch_sub(milli, Ordering::Relaxed);
            return Err(self.retry_after(prev, cap_milli));
        }
        Ok(milli)
    }

    /// Reserves gate capacity for a batch of ingested events (one
    /// milli-unit per event — ingest is orders of magnitude cheaper than a
    /// query) so a write flood shows up as admission pressure on reads
    /// instead of invisibly starving them. Never rejects; hand the
    /// reservation back via [`Self::release`] once the batch is dispatched.
    pub(crate) fn charge_ingest(&self, events: usize) -> u64 {
        if !self.cfg.max_inflight_cost.is_finite() || events == 0 {
            return 0;
        }
        let milli = events as u64;
        self.inflight_milli.fetch_add(milli, Ordering::Relaxed);
        milli
    }

    /// Returns a reservation made by [`Self::try_admit`].
    pub(crate) fn release(&self, milli: u64) {
        if milli > 0 {
            self.inflight_milli.fetch_sub(milli, Ordering::Relaxed);
        }
    }

    /// Backoff hint for a full submission queue (the gate itself had room,
    /// so there is no fullness ratio to scale by): one recent p95 window.
    pub(crate) fn queue_retry_after(&self) -> Duration {
        Duration::from_micros(self.brownout.window_p95_us().clamp(2_000, 250_000))
    }

    /// Backoff hint: one recent p95 execute window per unit of gate
    /// fullness — an overfull gate quotes a proportionally longer wait.
    fn retry_after(&self, inflight_milli: u64, cap_milli: u64) -> Duration {
        let base_us = self.brownout.window_p95_us().max(2_000);
        let fullness = if cap_milli == 0 { 1.0 } else { inflight_milli as f64 / cap_milli as f64 };
        let us = (base_us as f64 * fullness.max(1.0)).min(250_000.0);
        Duration::from_micros(us as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakers(threshold: u32, open_for: Duration) -> Breakers {
        Breakers::new(BreakerConfig { failure_threshold: threshold, open_for }, 2)
    }

    /// One breaker's state, by name.
    fn state(b: &Breakers, shard: usize) -> &'static str {
        match b.slots[shard].lock().state {
            OPEN => "open",
            HALF_OPEN => "half-open",
            _ => "closed",
        }
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let b = breakers(2, Duration::from_millis(5));
        assert_eq!(b.admit(0).0, Gate::Allow);
        assert_eq!(b.failure(0), None);
        assert_eq!(b.failure(0), Some(Transition::Opened));
        assert_eq!(state(&b, 0), "open");
        assert_eq!(b.admit(0).0, Gate::Skip, "freshly open breaker rejects");
        std::thread::sleep(Duration::from_millis(6));
        let (gate, tr) = b.admit(0);
        assert_eq!(gate, Gate::Probe);
        assert_eq!(tr, Some(Transition::HalfOpened));
        assert_eq!(b.admit(0).0, Gate::Skip, "only one probe at a time");
        assert_eq!(b.success(0), Some(Transition::Closed));
        assert_eq!(b.admit(0).0, Gate::Allow);
        assert!((0..2).all(|shard| state(&b, shard) == "closed"));
        // The other shard's breaker never moved.
        assert_eq!(state(&b, 1), "closed");
    }

    #[test]
    fn failed_probe_reopens() {
        let b = breakers(1, Duration::from_millis(1));
        assert_eq!(b.failure(0), Some(Transition::Opened));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.admit(0).0, Gate::Probe);
        assert_eq!(b.failure(0), Some(Transition::Opened), "silent probe re-opens");
        assert_eq!(state(&b, 0), "open");
    }

    #[test]
    fn zero_threshold_disables_breakers() {
        let b = breakers(0, Duration::from_millis(1));
        for _ in 0..10 {
            assert_eq!(b.failure(0), None);
        }
        assert_eq!(b.admit(0).0, Gate::Allow);
    }

    #[test]
    fn brownout_escalates_and_relaxes_with_hysteresis() {
        let cfg = BrownoutConfig {
            queue_high: 10,
            queue_low: 2,
            p95_high_us: 1_000_000,
            p95_low_us: 1_000_000, // latency never blocks cooling here
            dwell: 3,
            window: 8,
        };
        let c = BrownoutController::new(cfg);
        assert_eq!(c.level(), 0);
        // Two hot observations: below dwell, level holds.
        assert_eq!(c.observe(20, 10), None);
        assert_eq!(c.observe(20, 10), None);
        // A band observation resets the dwell count.
        assert_eq!(c.observe(5, 10), None);
        assert_eq!(c.observe(20, 10), None);
        assert_eq!(c.observe(20, 10), None);
        assert_eq!(c.observe(20, 10), Some((0, 1)), "dwell hot observations escalate");
        // Saturating at the max level.
        for _ in 0..3 {
            c.observe(20, 10);
        }
        for _ in 0..3 {
            c.observe(20, 10);
        }
        assert_eq!(c.level(), 3);
        for _ in 0..9 {
            c.observe(20, 10);
        }
        assert_eq!(c.level(), MAX_BROWNOUT_LEVEL, "level saturates");
        // Cool observations relax one step per dwell run.
        assert_eq!(c.observe(0, 10), None);
        assert_eq!(c.observe(0, 10), None);
        assert_eq!(c.observe(0, 10), Some((3, 2)));
        for _ in 0..6 {
            c.observe(0, 10);
        }
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn brownout_latency_watermark_escalates() {
        let cfg = BrownoutConfig {
            queue_high: usize::MAX,
            queue_low: usize::MAX, // queue never blocks cooling
            p95_high_us: 1_000,
            p95_low_us: 100,
            dwell: 1,
            window: 4,
        };
        let c = BrownoutController::new(cfg);
        assert_eq!(c.observe(0, 5_000), Some((0, 1)), "slow executes alone escalate");
        assert!(c.window_p95_us() >= 5_000);
        // Fast executes wash the slow sample out of the window, then cool.
        let mut relaxed = false;
        for _ in 0..8 {
            if c.observe(0, 10) == Some((1, 0)) {
                relaxed = true;
            }
        }
        assert!(relaxed, "windowed p95 must recover and relax the level");
    }

    #[test]
    fn stride_map_is_monotone() {
        assert_eq!(stride_for(0), 1);
        assert_eq!(stride_for(1), 2);
        assert_eq!(stride_for(2), 4);
        assert_eq!(stride_for(3), 0);
        assert_eq!(stride_for(200), 0, "levels past max shed fully");
    }
}
