//! One seed to rule every fault plan.
//!
//! The chaos machinery grew three independent plan types — [`FaultPlan`]
//! (message loss/delay/duplication/poison), [`SensorFaultPlan`] (corrupted
//! event capture), and [`DurabilityFaultPlan`] (process kills and torn WAL
//! tails) — each with its own seed. Reproducing an experiment meant
//! threading three seeds through three flag sets, and nothing stopped a
//! caller from setting them inconsistently.
//!
//! [`ChaosConfig`] unifies them: **one root seed**, domain-separated into
//! per-plan sub-seeds (so the message coin stream never correlates with the
//! sensor or durability streams), and a builder that *rejects* conflicting
//! seed settings instead of silently letting the last write win. The CLI
//! maps `--chaos-seed` onto [`ChaosBuilder::seed`]; a second seed source
//! (duplicate flag, or a legacy `--fault-seed` alongside `--chaos-seed`)
//! surfaces as [`ChaosError::ConflictingSeed`].

use crate::durability::DurabilityFaultPlan;
use crate::fault::{CrashWindow, FaultPlan};
use crate::sensor::{SensorFaultMix, SensorFaultPlan};

/// Domain-separation constants: sub-seed = root seed XOR salt, then the
/// plan's own mixing does the rest. Distinct high-entropy odd constants.
const SALT_MESSAGE: u64 = 0xA24B_AED4_963E_E407;
const SALT_SENSOR: u64 = 0x9FB2_1C65_1E98_DF25;
const SALT_DURABILITY: u64 = 0xD6E8_FEB8_6659_FD93;

/// Why a [`ChaosBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosError {
    /// The seed was set twice with different values — two flags (or one
    /// flag repeated) disagree about which universe to replay.
    ConflictingSeed {
        /// The seed already recorded.
        first: u64,
        /// The seed that tried to replace it.
        second: u64,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::ConflictingSeed { first, second } => {
                write!(f, "conflicting chaos seeds: {first} vs {second} — set one seed, once")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// Builder for [`ChaosConfig`]. Fault *shapes* (probabilities, windows,
/// kill schedules) accumulate freely; the *seed* may be set at most once.
#[derive(Clone, Debug, Default)]
pub struct ChaosBuilder {
    seed: Option<u64>,
    error: Option<ChaosError>,
    drop_p: f64,
    delay_p: f64,
    dup_p: f64,
    max_delay_ms: u64,
    crashes: Vec<CrashWindow>,
    sensor_mix: SensorFaultMix,
    ingest_crashes: Vec<(usize, u64)>,
}

impl ChaosBuilder {
    /// Sets the root seed. A second call with a *different* value poisons
    /// the builder ([`ChaosError::ConflictingSeed`] at [`Self::build`]);
    /// repeating the same value is idempotent.
    pub fn seed(mut self, seed: u64) -> Self {
        match self.seed {
            None => self.seed = Some(seed),
            Some(first) if first == seed => {}
            Some(first) => {
                self.error.get_or_insert(ChaosError::ConflictingSeed { first, second: seed });
            }
        }
        self
    }

    /// Uniform lossy-link message faults (see [`FaultPlan::lossy`]).
    pub fn message_loss(
        mut self,
        drop_p: f64,
        delay_p: f64,
        dup_p: f64,
        max_delay_ms: u64,
    ) -> Self {
        self.drop_p = drop_p;
        self.delay_p = delay_p;
        self.dup_p = dup_p;
        self.max_delay_ms = max_delay_ms;
        self
    }

    /// A scheduled shard outage (see [`FaultPlan::with_crash`]).
    pub fn crash_window(mut self, window: CrashWindow) -> Self {
        self.crashes.push(window);
        self
    }

    /// Sensor corruption mix (fractions of dead/lossy/duplicating/flipped/
    /// skewed sensors).
    pub fn sensor_mix(mut self, mix: SensorFaultMix) -> Self {
        self.sensor_mix = mix;
        self
    }

    /// A scheduled ingest-time process kill for `shard` after its
    /// `after_appends`-th WAL append.
    pub fn ingest_crash(mut self, shard: usize, after_appends: u64) -> Self {
        self.ingest_crashes.push((shard, after_appends));
        self
    }

    /// Finalizes the configuration. `Err` when the seed was set
    /// inconsistently.
    pub fn build(self) -> Result<ChaosConfig, ChaosError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let seed = self.seed.unwrap_or(0);
        let mut message = FaultPlan::lossy(
            seed ^ SALT_MESSAGE,
            self.drop_p,
            self.delay_p,
            self.dup_p,
            self.max_delay_ms,
        );
        message.crashes = self.crashes;
        Ok(ChaosConfig {
            seed,
            message,
            sensor_mix: self.sensor_mix,
            durability: DurabilityFaultPlan::killing(seed ^ SALT_DURABILITY, &self.ingest_crashes),
        })
    }
}

/// Every fault plan an experiment needs, derived from one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// The root seed everything was derived from.
    pub seed: u64,
    /// Message-level faults (drop/delay/dup + scheduled outage windows).
    pub message: FaultPlan,
    /// Sensor corruption mix; the plan itself is generated late, once the
    /// candidate edge set is known ([`ChaosConfig::sensor_plan`]).
    pub sensor_mix: SensorFaultMix,
    /// Durability faults (ingest kills, torn tails).
    pub durability: DurabilityFaultPlan,
}

impl ChaosConfig {
    /// Starts a builder.
    pub fn builder() -> ChaosBuilder {
        ChaosBuilder::default()
    }

    /// Instantiates the sensor fault plan for a concrete candidate edge set
    /// and horizon, using the domain-separated sensor sub-seed.
    pub fn sensor_plan(&self, candidate_edges: &[usize], horizon: (f64, f64)) -> SensorFaultPlan {
        SensorFaultPlan::generate(
            self.seed ^ SALT_SENSOR,
            candidate_edges,
            horizon,
            self.sensor_mix,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_fans_out_to_distinct_subseeds() {
        let c = ChaosConfig::builder()
            .seed(42)
            .message_loss(0.1, 0.0, 0.0, 0)
            .ingest_crash(1, 100)
            .build()
            .unwrap();
        assert_eq!(c.seed, 42);
        assert_ne!(c.message.seed, 42, "message plan gets a domain-separated sub-seed");
        assert_ne!(c.durability.seed, 42);
        assert_ne!(c.message.seed, c.durability.seed);
        let sensor = c.sensor_plan(&[0, 1, 2], (0.0, 100.0));
        assert_ne!(sensor.seed, c.message.seed);
        assert_ne!(sensor.seed, c.durability.seed);
    }

    #[test]
    fn same_seed_reproduces_identical_plans() {
        let make = || {
            ChaosConfig::builder()
                .seed(7)
                .message_loss(0.2, 0.1, 0.05, 30)
                .ingest_crash(0, 50)
                .sensor_mix(SensorFaultMix { lossy: 0.2, ..SensorFaultMix::default() })
                .build()
                .unwrap()
        };
        assert_eq!(make(), make());
        assert_eq!(
            make().sensor_plan(&[3, 1, 4], (0.0, 10.0)),
            make().sensor_plan(&[3, 1, 4], (0.0, 10.0))
        );
    }

    #[test]
    fn conflicting_seeds_are_rejected() {
        let err = ChaosConfig::builder().seed(1).seed(2).build().unwrap_err();
        assert_eq!(err, ChaosError::ConflictingSeed { first: 1, second: 2 });
        assert!(err.to_string().contains("conflicting"));
        // The first conflict is reported even if more settings follow.
        let err = ChaosConfig::builder().seed(1).seed(2).seed(3).build().unwrap_err();
        assert_eq!(err, ChaosError::ConflictingSeed { first: 1, second: 2 });
    }

    #[test]
    fn repeating_the_same_seed_is_idempotent() {
        let c = ChaosConfig::builder().seed(9).seed(9).build().unwrap();
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn windows_land_in_the_message_plan() {
        let c = ChaosConfig::builder()
            .seed(5)
            .crash_window(CrashWindow { node: 2, after_messages: 1, lasts_messages: 3 })
            .build()
            .unwrap();
        assert!(c.message.is_crashed(2, 2));
    }
}
