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
//! - **Breakers** (`Breakers`): a shard silent through
//!   `FAILURE_THRESHOLD` attempt windows in a row trips open and is skipped
//!   outright (its edges degrade immediately — no retry storm against a dead
//!   radio). After `OPEN_FOR` one probe query is let through half-open;
//!   success closes the breaker, silence re-opens it. The fan-out loop hands
//!   the breakers its clock reading: they read none of their own.
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

/// Knobs of the admission gate and brownout controller. Installing this on
/// [`crate::RuntimeConfig::overload`] turns the whole subsystem on, circuit
/// breakers included (their trip count and open time are the constants
/// `FAILURE_THRESHOLD` and `OPEN_FOR`); `None` (the default) keeps the
/// classic blocking behavior.
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
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_inflight_cost: 512.0,
            default_deadline: None,
            brownout: BrownoutConfig::default(),
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

/// Consecutive silent attempt windows before a shard's breaker trips open.
const FAILURE_THRESHOLD: u32 = 4;

/// How long an open breaker skips its shard before letting one probe
/// through half-open.
const OPEN_FOR: Duration = Duration::from_millis(250);

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

/// One shard's breaker.
enum Breaker {
    /// Sending, after this many silent windows in a row.
    Closed(u32),
    /// Skipping the shard since the instant.
    Open(Instant),
    /// The one probe is out.
    HalfOpen,
}

/// One circuit breaker per shard, each under its own small mutex (the
/// per-query fan-out touches each at most twice).
pub(crate) struct Breakers {
    slots: Vec<Mutex<Breaker>>,
}

impl Breakers {
    fn new(num_shards: usize) -> Self {
        Breakers { slots: (0..num_shards).map(|_| Mutex::new(Breaker::Closed(0))).collect() }
    }

    /// Gate one fan-out to `shard` at `now`.
    pub(crate) fn admit(&self, shard: usize, now: Instant) -> (Gate, Option<Transition>) {
        let mut b = self.slots[shard].lock();
        match *b {
            Breaker::Open(since) if now.saturating_duration_since(since) >= OPEN_FOR => {
                *b = Breaker::HalfOpen;
                (Gate::Probe, Some(Transition::HalfOpened))
            }
            // While half-open exactly one probe is outstanding; everyone
            // else keeps degrading until the probe resolves the state.
            Breaker::Open(_) | Breaker::HalfOpen => (Gate::Skip, None),
            Breaker::Closed(_) => (Gate::Allow, None),
        }
    }

    /// The shard answered an attempt in time.
    pub(crate) fn success(&self, shard: usize) -> Option<Transition> {
        let mut b = self.slots[shard].lock();
        let was_open = !matches!(*b, Breaker::Closed(_));
        *b = Breaker::Closed(0);
        was_open.then_some(Transition::Closed)
    }

    /// The shard stayed silent through an attempt window that closed at
    /// `now`.
    pub(crate) fn failure(&self, shard: usize, now: Instant) -> Option<Transition> {
        let mut b = self.slots[shard].lock();
        match *b {
            // A failed half-open probe re-opens immediately.
            Breaker::HalfOpen => *b = Breaker::Open(now),
            Breaker::Closed(n) if n + 1 >= FAILURE_THRESHOLD => *b = Breaker::Open(now),
            Breaker::Closed(n) => {
                *b = Breaker::Closed(n + 1);
                return None;
            }
            Breaker::Open(_) => return None,
        }
        Some(Transition::Opened)
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

    /// Feeds one served query's context in; returns the new level when it
    /// changed.
    pub(crate) fn observe(&self, queue_depth: usize, exec_us: u64) -> Option<u8> {
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
                return Some(level + 1);
            }
        } else if cool {
            w.hot_obs = 0;
            w.cool_obs += 1;
            if w.cool_obs >= dwell && level > 0 {
                w.cool_obs = 0;
                self.level.store(level - 1, Ordering::Relaxed);
                return Some(level - 1);
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
            breakers: Breakers::new(num_shards),
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

    /// One breaker's state, by name.
    fn state(b: &Breakers, shard: usize) -> &'static str {
        match *b.slots[shard].lock() {
            Breaker::Open(_) => "open",
            Breaker::HalfOpen => "half-open",
            Breaker::Closed(_) => "closed",
        }
    }

    /// Trips shard 0's breaker with silent windows closing at `t`, checking
    /// that only the last one trips it.
    fn trip(b: &Breakers, t: Instant) {
        for _ in 1..FAILURE_THRESHOLD {
            assert_eq!(b.failure(0, t), None);
            assert_eq!(b.admit(0, t).0, Gate::Allow, "below the threshold the shard is asked");
        }
        assert_eq!(b.failure(0, t), Some(Transition::Opened));
        assert_eq!(state(b, 0), "open");
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let (b, t0) = (Breakers::new(2), Instant::now());
        trip(&b, t0);
        assert_eq!(b.admit(0, t0).0, Gate::Skip, "freshly open breaker rejects");
        let almost = t0 + OPEN_FOR - Duration::from_nanos(1);
        assert_eq!(b.admit(0, almost), (Gate::Skip, None));
        // A dispatcher whose tick read the clock before the trip skips too.
        assert_eq!(b.admit(0, t0 - Duration::from_millis(1)).0, Gate::Skip);
        assert_eq!(state(&b, 0), "open");
        // The other shard's breaker never moved.
        assert_eq!(b.admit(1, t0), (Gate::Allow, None));
        assert_eq!(state(&b, 1), "closed");

        let t1 = t0 + OPEN_FOR;
        assert_eq!(b.admit(0, t1), (Gate::Probe, Some(Transition::HalfOpened)));
        assert_eq!(state(&b, 0), "half-open");
        assert_eq!(b.admit(0, t1).0, Gate::Skip, "only one probe at a time");
        assert_eq!(b.success(0), Some(Transition::Closed), "a successful probe closes");
        assert_eq!(b.admit(0, t1), (Gate::Allow, None));
        // Closed again, the count starts over: it takes a full run of
        // silent windows to trip once more.
        trip(&b, t1);
        assert_eq!(b.success(0), Some(Transition::Closed));
        assert_eq!(b.success(0), None, "a closed breaker has nothing to close");
        assert!((0..2).all(|shard| state(&b, shard) == "closed"));
    }

    #[test]
    fn failed_probe_reopens() {
        let (b, t0) = (Breakers::new(2), Instant::now());
        trip(&b, t0);
        let t1 = t0 + OPEN_FOR;
        assert_eq!(b.admit(0, t1).0, Gate::Probe);
        assert_eq!(b.failure(0, t1), Some(Transition::Opened), "silent probe re-opens");
        assert_eq!(state(&b, 0), "open");
        // Open from the probe's window, not from the first trip.
        assert_eq!(b.admit(0, t1 + OPEN_FOR - Duration::from_nanos(1)).0, Gate::Skip);
        assert_eq!(b.failure(0, t1), None, "an open breaker counts nothing");
        assert_eq!(b.admit(0, t1 + OPEN_FOR).0, Gate::Probe);
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
        assert_eq!(c.observe(20, 10), Some(1), "dwell hot observations escalate");
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
        assert_eq!(c.observe(0, 10), Some(2));
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
        assert_eq!(c.observe(0, 5_000), Some(1), "slow executes alone escalate");
        assert!(c.window_p95_us() >= 5_000);
        // Fast executes wash the slow sample out of the window, then cool.
        let mut relaxed = false;
        for _ in 0..8 {
            if c.observe(0, 10) == Some(0) {
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
