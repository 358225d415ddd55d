//! Overload control for the serving runtime: deadline budgets, one
//! delay-driven controller for admission and brownout, and per-shard circuit
//! breakers.
//!
//! The paper's central trade — brackets whose width is the price of cheap
//! answers — is exactly the lever a service needs under overload. Instead of
//! stalling clients on a full queue or letting latency grow without bound,
//! the runtime degrades the *precision* of admitted queries while keeping
//! every `[lower, upper]` bracket sound.
//!
//! - **The signal** (`Delay`), after CoDel (Nichols and Jacobson,
//!   "Controlling Queue Delay", 2012): how long the oldest admitted query
//!   still in flight has been waiting since its submission, and whether any
//!   query settled within the target during the last interval. Target and
//!   interval are both a tenth of [`OverloadConfig::default_deadline`]
//!   (10 ms without one). The signal is *hot* for `k` intervals when the
//!   oldest query has been older than the target for `k` whole intervals
//!   and no query settled within the target during the last one; it is
//!   *cool* at `k = 0`. It is measured, not predicted.
//! - **Admission** (`OverloadState::enter`): `try_submit` is refused while
//!   the signal is hot, with one interval as the `retry_after` hint.
//!   Refusal is before any work: no plan compile, no queue slot, no shard
//!   traffic. `submit` is never refused.
//! - **Brownout**: hot for two intervals or more, the precision level steps
//!   up one level per interval; cool, it steps down one level per interval;
//!   in between it holds. Each level maps to a boundary-sampling stride
//!   (serve every 2nd / 4th / no boundary edge, see
//!   `QueryPlan::shed_boundary`). Skipped edges degrade exactly like silent
//!   shards — worst-case totals, reduced coverage — so shed answers are
//!   wider but provably sound.
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

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crossbeam::clock;
use parking_lot::Mutex;

use crate::metrics::Metrics;
use crate::server::Job;

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

/// Installing this on [`crate::RuntimeConfig::overload`] turns overload
/// control on: admission and brownout on the delay signal, and the circuit
/// breakers (their trip count and open time are the constants
/// `FAILURE_THRESHOLD` and `OPEN_FOR`); `None` (the default) keeps the
/// classic blocking behavior.
#[derive(Clone, Debug, Default)]
pub struct OverloadConfig {
    /// Deadline stamped on specs that do not carry one (`None` leaves
    /// deadline-less queries unbounded, as before). A tenth of it is the
    /// controller's delay target and interval.
    pub default_deadline: Option<Duration>,
}

/// The delay target and interval without a default deadline.
const TARGET_WITHOUT_DEADLINE: Duration = Duration::from_millis(10);

/// Consecutive silent attempt windows before a shard's breaker trips open.
const FAILURE_THRESHOLD: u32 = 4;

/// How long an open breaker skips its shard before letting one probe
/// through half-open.
const OPEN_FOR: Duration = Duration::from_millis(250);

/// Why `try_submit` refused a query: the delay signal was hot, or the
/// submission queue was full. The query consumed nothing; the client should
/// back off for roughly `retry_after` before resubmitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// Backoff hint: one control interval with overload control on, one
    /// full retry schedule without it.
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

/// The controller's view of the queries in flight: the signal and the
/// brownout level it sets. A pure core — every reading takes its `now`.
#[derive(Default)]
struct Delay {
    /// `(submitted, id)` of every admitted query not yet settled; the first
    /// is the oldest.
    inflight: BTreeSet<(Instant, u64)>,
    /// When a query last settled within the target.
    last_quick: Option<Instant>,
    /// When the signal last read hot.
    last_hot: Option<Instant>,
    /// When the level last moved.
    last_step: Option<Instant>,
    level: u8,
}

impl Delay {
    /// Whole intervals of `target` since `t` (all of them before any `t`).
    fn intervals(now: Instant, t: Option<Instant>, target: Duration) -> u128 {
        let Some(t) = t else { return u128::MAX };
        now.saturating_duration_since(t).as_nanos() / target.as_nanos().max(1)
    }

    /// The signal: how many whole intervals the oldest query in flight has
    /// been older than the target for, or 0 once a query settled within the
    /// target during the last interval.
    fn hot_intervals(&self, now: Instant, target: Duration) -> u128 {
        if Self::intervals(now, self.last_quick, target) == 0 {
            return 0;
        }
        let Some(&(oldest, _)) = self.inflight.first() else { return 0 };
        let over = now.saturating_duration_since(oldest).saturating_sub(target);
        over.as_nanos() / target.as_nanos().max(1)
    }

    /// Moves the level on the signal at `now`: up one level per interval
    /// while hot for two intervals or more, down one level per interval it
    /// has been cool, and held in between.
    fn step(&mut self, now: Instant, target: Duration) {
        let hot = self.hot_intervals(now, target);
        if hot > 0 {
            self.last_hot = Some(now);
        }
        let since_step = Self::intervals(now, self.last_step, target);
        let level = if hot >= 2 && since_step >= 1 {
            (self.level + 1).min(MAX_BROWNOUT_LEVEL)
        } else if hot == 0 {
            let cool = since_step.min(Self::intervals(now, self.last_hot, target));
            self.level.saturating_sub(cool.min(u128::from(MAX_BROWNOUT_LEVEL)) as u8)
        } else {
            self.level
        };
        if level != self.level {
            self.level = level;
            self.last_step = Some(now);
        }
    }
}

/// All overload-control state of one running [`crate::Runtime`].
pub(crate) struct OverloadState {
    pub(crate) cfg: OverloadConfig,
    /// The delay target, which is also the control interval.
    target: Duration,
    delay: Mutex<Delay>,
    pub(crate) breakers: Breakers,
}

impl OverloadState {
    pub(crate) fn new(cfg: OverloadConfig, num_shards: usize) -> Self {
        let target = cfg.default_deadline.map_or(TARGET_WITHOUT_DEADLINE, |d| d / 10);
        OverloadState {
            cfg,
            target,
            delay: Mutex::new(Delay::default()),
            breakers: Breakers::new(num_shards),
        }
    }

    /// The backoff a refused query is told: one interval.
    pub(crate) fn retry_after(&self) -> Duration {
        self.target
    }

    /// Steps the level at `now` and records a move in the metrics.
    fn step(&self, d: &mut Delay, now: Instant, m: &Metrics) {
        let before = d.level;
        d.step(now, self.target);
        if d.level != before {
            m.brownout_level.store(u64::from(d.level), Ordering::Relaxed);
            Metrics::add(&m.brownout_shifts, u64::from(d.level.abs_diff(before)));
        }
    }

    /// Puts a submitted job in flight, or — where `refusable`, as for
    /// `try_submit` — refuses it while the signal is hot.
    pub(crate) fn enter(&self, job: &Job, refusable: bool, m: &Metrics) -> Result<(), Rejected> {
        let mut d = self.delay.lock();
        self.step(&mut d, job.submitted, m);
        if refusable && d.hot_intervals(job.submitted, self.target) > 0 {
            return Err(Rejected { retry_after: self.target });
        }
        d.inflight.insert((job.submitted, job.id));
        Ok(())
    }

    /// Takes a job out of flight unanswered (a full queue refused it).
    pub(crate) fn forget(&self, job: &Job) {
        self.delay.lock().inflight.remove(&(job.submitted, job.id));
    }

    /// Takes a job out of flight as its answer goes out, `latency` after its
    /// submission. The controller looks while the job is still in flight.
    pub(crate) fn settle(&self, job: &Job, latency: Duration, m: &Metrics) {
        let now = clock::now();
        let mut d = self.delay.lock();
        self.step(&mut d, now, m);
        d.inflight.remove(&(job.submitted, job.id));
        if latency <= self.target {
            d.last_quick = Some(now);
        }
    }

    /// The precision level a query starting now is served at.
    pub(crate) fn level(&self, m: &Metrics) -> u8 {
        let mut d = self.delay.lock();
        self.step(&mut d, clock::now(), m);
        d.level
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

    const T: Duration = Duration::from_millis(10);

    /// `n` ms after `t0`.
    fn ms(t0: Instant, n: u64) -> Instant {
        t0 + Duration::from_millis(n)
    }

    /// The level after a step at `now`, with the target and interval `T`.
    fn level_at(d: &mut Delay, now: Instant) -> u8 {
        d.step(now, T);
        d.level
    }

    #[test]
    fn the_signal_is_the_age_of_the_oldest_query_in_flight() {
        let t0 = Instant::now();
        let mut d = Delay::default();
        assert_eq!(d.hot_intervals(ms(t0, 100), T), 0, "nothing in flight is cool");
        d.inflight.insert((t0, 1));
        d.inflight.insert((ms(t0, 5), 2));
        assert_eq!(d.hot_intervals(ms(t0, 19), T), 0, "past the target for under an interval");
        assert_eq!(d.hot_intervals(ms(t0, 20), T), 1, "a whole interval: admission refuses");
        assert_eq!(d.hot_intervals(ms(t0, 30), T), 2);
        d.inflight.remove(&(t0, 1));
        assert_eq!(d.hot_intervals(ms(t0, 30), T), 1, "the younger query is the oldest now");
        // A query that settled within the target cools the signal for one
        // interval, however old the oldest one in flight is.
        d.last_quick = Some(ms(t0, 25));
        assert_eq!(d.hot_intervals(ms(t0, 34), T), 0);
        assert_eq!(d.hot_intervals(ms(t0, 35), T), 2);
        // A target past the clock's range never reads hot.
        assert_eq!(d.hot_intervals(ms(t0, 35), Duration::MAX / 10), 0);
    }

    #[test]
    fn brownout_escalates_and_relaxes_with_hysteresis() {
        let t0 = Instant::now();
        let mut d = Delay::default();
        d.inflight.insert((t0, 1));
        assert_eq!(level_at(&mut d, ms(t0, 25)), 0, "one hot interval holds the level");
        assert_eq!(level_at(&mut d, ms(t0, 30)), 1, "two step it up");
        assert_eq!(level_at(&mut d, ms(t0, 39)), 1, "one level per interval");
        assert_eq!(level_at(&mut d, ms(t0, 40)), 2);
        assert_eq!(level_at(&mut d, ms(t0, 50)), 3);
        assert_eq!(level_at(&mut d, ms(t0, 90)), MAX_BROWNOUT_LEVEL, "the level saturates");
        // The old query settles and a young one is in flight: cool, one
        // step down per interval the signal stays cool.
        d.inflight.clear();
        d.inflight.insert((ms(t0, 90), 2));
        assert_eq!(level_at(&mut d, ms(t0, 95)), 3, "cool for under an interval");
        assert_eq!(level_at(&mut d, ms(t0, 100)), 2);
        assert_eq!(level_at(&mut d, ms(t0, 109)), 2);
        // Hot for one interval is the band where the level holds.
        assert_eq!(level_at(&mut d, ms(t0, 110)), 2);
        assert_eq!(level_at(&mut d, ms(t0, 119)), 2);
        d.inflight.clear();
        assert_eq!(level_at(&mut d, ms(t0, 128)), 2, "cool counts from the last hot reading");
        assert_eq!(level_at(&mut d, ms(t0, 129)), 1);
        assert_eq!(level_at(&mut d, ms(t0, 500)), 0, "an idle stretch steps down all the way");
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
