//! Deterministic fault injection (message loss, delay, duplication, sensor
//! crashes) for the simulated network and the query-serving runtime.
//!
//! Every decision is a pure function of the plan's seed and the message's
//! identity ([`MessageCtx`]), so a faulty run can be replayed bit-for-bit:
//! the same seed, query ids and retry attempts produce the same drops and
//! delays regardless of thread scheduling. Retries are *not* re-rolls of the
//! same coin — the attempt number is part of the identity, so a retry can
//! succeed where the first attempt was dropped, exactly like a fresh radio
//! transmission.

/// Identity of one message for fault purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MessageCtx {
    /// Query (or request) the message belongs to.
    pub query_id: u64,
    /// Destination sensor / shard index.
    pub node: usize,
    /// Retry attempt, starting at 0.
    pub attempt: u32,
}

/// What the fault plan decided for one message.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultDecision {
    /// The message is lost; the receiver never sees it.
    pub drop: bool,
    /// Extra in-flight latency in milliseconds (0 = delivered promptly).
    pub delay_ms: u64,
    /// The message arrives twice (receivers must deduplicate).
    pub duplicate: bool,
    /// The message triggers a handler crash (firmware bug): the receiver
    /// panics while processing instead of answering.
    pub poison: bool,
}

impl FaultDecision {
    /// A clean delivery: no drop, no delay, no duplicate, no poison.
    pub const CLEAN: FaultDecision =
        FaultDecision { drop: false, delay_ms: 0, duplicate: false, poison: false };
}

/// A scheduled sensor outage, expressed in messages delivered to that sensor
/// (the simulator's clock): the sensor stops responding after it has seen
/// `after_messages` messages and recovers once `lasts_messages` more have
/// been addressed to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The sensor / shard that crashes.
    pub node: usize,
    /// Messages the sensor handles before the outage starts.
    pub after_messages: u64,
    /// Length of the outage in addressed messages (`u64::MAX` = forever).
    pub lasts_messages: u64,
}

/// A seeded, replayable description of everything that goes wrong.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed; all per-message coins derive from it.
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop_p: f64,
    /// Probability a message is delayed (by up to [`FaultPlan::max_delay_ms`]).
    pub delay_p: f64,
    /// Probability a message is duplicated.
    pub dup_p: f64,
    /// Upper bound on injected delay; actual delays are uniform in
    /// `1..=max_delay_ms`.
    pub max_delay_ms: u64,
    /// Probability a message poisons its handler (panic while processing).
    pub poison_p: f64,
    /// Scheduled outages.
    pub crashes: Vec<CrashWindow>,
    /// Scheduled poison windows: every message addressed to the node while
    /// the window is open crashes its handler. Unlike `poison_p` (a fresh
    /// coin per message), a window models a *persistent* firmware fault:
    /// every query that reaches the node while it lasts widens by that
    /// node's edges, and retries do not help.
    pub poison_windows: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing — the identity element for composition.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            delay_p: 0.0,
            dup_p: 0.0,
            max_delay_ms: 0,
            poison_p: 0.0,
            crashes: Vec::new(),
            poison_windows: Vec::new(),
        }
    }

    /// A uniform lossy-link plan: every message independently dropped with
    /// probability `drop_p`, delayed with `delay_p` (up to `max_delay_ms`),
    /// duplicated with `dup_p`.
    pub fn lossy(seed: u64, drop_p: f64, delay_p: f64, dup_p: f64, max_delay_ms: u64) -> Self {
        for (name, p) in [("drop_p", drop_p), ("delay_p", delay_p), ("dup_p", dup_p)] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1], got {p}");
        }
        FaultPlan {
            seed,
            drop_p,
            delay_p,
            dup_p,
            max_delay_ms,
            poison_p: 0.0,
            crashes: Vec::new(),
            poison_windows: Vec::new(),
        }
    }

    /// Adds a scheduled outage (builder style).
    pub fn with_crash(mut self, window: CrashWindow) -> Self {
        self.crashes.push(window);
        self
    }

    /// Sets the handler-poison probability (builder style).
    pub fn with_poison(mut self, poison_p: f64) -> Self {
        assert!((0.0..=1.0).contains(&poison_p), "poison_p must be in [0, 1], got {poison_p}");
        self.poison_p = poison_p;
        self
    }

    /// Adds a scheduled poison window (builder style): messages addressed
    /// to `window.node` while the window is open crash its handler.
    pub fn with_poison_window(mut self, window: CrashWindow) -> Self {
        self.poison_windows.push(window);
        self
    }

    /// Whether a message addressed to `node` after `delivered` prior
    /// messages falls in a scheduled poison window.
    pub fn scheduled_poison(&self, node: usize, delivered: u64) -> bool {
        self.poison_windows.iter().any(|w| {
            w.node == node
                && delivered >= w.after_messages
                && delivered - w.after_messages < w.lasts_messages
        })
    }

    /// True when the plan can never perturb anything.
    pub fn is_noop(&self) -> bool {
        self.drop_p == 0.0
            && self.delay_p == 0.0
            && self.dup_p == 0.0
            && self.poison_p == 0.0
            && self.crashes.is_empty()
            && self.poison_windows.is_empty()
    }

    /// The fate of one message. Pure: same plan + same context → same answer.
    pub fn decide(&self, ctx: MessageCtx) -> FaultDecision {
        if self.is_noop() {
            return FaultDecision::CLEAN;
        }
        let drop = self.coin(ctx, Salt::Drop) < self.drop_p;
        let delay_ms = if !drop && self.coin(ctx, Salt::Delay) < self.delay_p {
            1 + (self.word(ctx, Salt::DelayAmount) % self.max_delay_ms.max(1))
        } else {
            0
        };
        let duplicate = !drop && self.coin(ctx, Salt::Duplicate) < self.dup_p;
        let poison = !drop && self.coin(ctx, Salt::Poison) < self.poison_p;
        FaultDecision { drop, delay_ms, duplicate, poison }
    }

    /// Whether `node` is inside a crash window after having been addressed
    /// `delivered` messages.
    pub fn is_crashed(&self, node: usize, delivered: u64) -> bool {
        self.crashes.iter().any(|w| {
            w.node == node
                && delivered >= w.after_messages
                && delivered - w.after_messages < w.lasts_messages
        })
    }

    fn word(&self, ctx: MessageCtx, salt: Salt) -> u64 {
        // SplitMix64 finalizer over the message identity — cheap, stateless,
        // and well-mixed enough that per-salt streams are independent.
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(ctx.query_id.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((ctx.node as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add((ctx.attempt as u64) << 17)
            .wrapping_add(salt as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn coin(&self, ctx: MessageCtx, salt: Salt) -> f64 {
        (self.word(ctx, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[derive(Clone, Copy)]
enum Salt {
    Drop = 1,
    Delay = 2,
    DelayAmount = 3,
    Duplicate = 4,
    Poison = 5,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(q: u64, node: usize, attempt: u32) -> MessageCtx {
        MessageCtx { query_id: q, node, attempt }
    }

    #[test]
    fn noop_plan_is_clean() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        for q in 0..100 {
            assert_eq!(plan.decide(ctx(q, 3, 0)), FaultDecision::CLEAN);
        }
        assert!(!plan.is_crashed(0, 1_000_000));
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::lossy(42, 0.5, 0.3, 0.2, 50);
        for q in 0..200 {
            let c = ctx(q, 7, 0);
            assert_eq!(plan.decide(c), plan.decide(c), "same identity, same fate");
        }
        // Retries re-roll: across many dropped messages, some attempt-1
        // deliveries must succeed.
        let retried_ok = (0..500)
            .filter(|&q| plan.decide(ctx(q, 1, 0)).drop && !plan.decide(ctx(q, 1, 1)).drop)
            .count();
        assert!(retried_ok > 50, "retries should often succeed, got {retried_ok}");
    }

    #[test]
    fn frequencies_match_probabilities() {
        let plan = FaultPlan::lossy(7, 0.25, 0.4, 0.1, 20);
        let n = 20_000u64;
        let mut drops = 0;
        let mut delays = 0;
        let mut dups = 0;
        for q in 0..n {
            let d = plan.decide(ctx(q, q as usize % 13, 0));
            drops += d.drop as u64;
            delays += (d.delay_ms > 0) as u64;
            dups += d.duplicate as u64;
            assert!(d.delay_ms <= 20);
            if d.drop {
                assert_eq!(d.delay_ms, 0, "dropped messages are simply gone");
                assert!(!d.duplicate);
            }
        }
        let frac = |x: u64| x as f64 / n as f64;
        assert!((frac(drops) - 0.25).abs() < 0.02, "drop rate {}", frac(drops));
        // Delay/dup rates are conditional on not dropping (≈ p · 0.75).
        assert!((frac(delays) - 0.4 * 0.75).abs() < 0.02, "delay rate {}", frac(delays));
        assert!((frac(dups) - 0.1 * 0.75).abs() < 0.02, "dup rate {}", frac(dups));
    }

    #[test]
    fn crash_windows_bound_the_outage() {
        let plan = FaultPlan::none()
            .with_crash(CrashWindow { node: 2, after_messages: 10, lasts_messages: 5 })
            .with_crash(CrashWindow { node: 4, after_messages: 0, lasts_messages: u64::MAX });
        assert!(!plan.is_crashed(2, 9));
        assert!(plan.is_crashed(2, 10));
        assert!(plan.is_crashed(2, 14));
        assert!(!plan.is_crashed(2, 15));
        assert!(plan.is_crashed(4, 0));
        assert!(plan.is_crashed(4, u64::MAX - 1));
        assert!(!plan.is_crashed(3, 0));
    }

    #[test]
    fn poison_windows_bound_the_fault() {
        let plan = FaultPlan::none().with_poison_window(CrashWindow {
            node: 1,
            after_messages: 3,
            lasts_messages: 4,
        });
        assert!(!plan.is_noop());
        assert!(!plan.scheduled_poison(1, 2));
        assert!(plan.scheduled_poison(1, 3));
        assert!(plan.scheduled_poison(1, 6));
        assert!(!plan.scheduled_poison(1, 7), "window closes: the node heals");
        assert!(!plan.scheduled_poison(0, 5), "other nodes unaffected");
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::lossy(0, 1.5, 0.0, 0.0, 0);
    }
}
