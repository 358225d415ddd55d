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
//! per-plan sub-seeds, so the message coin stream never correlates with the
//! sensor or durability streams. The CLI maps `--chaos-seed` onto the root
//! seed of [`ChaosConfig::new`].

use crate::durability::DurabilityFaultPlan;
use crate::fault::{CrashWindow, FaultPlan};
use crate::sensor::{SensorFaultMix, SensorFaultPlan};

/// Domain-separation constants: sub-seed = root seed XOR salt, then the
/// plan's own mixing does the rest. Distinct high-entropy odd constants.
const SALT_MESSAGE: u64 = 0xA24B_AED4_963E_E407;
const SALT_SENSOR: u64 = 0x9FB2_1C65_1E98_DF25;
const SALT_DURABILITY: u64 = 0xD6E8_FEB8_6659_FD93;

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
    /// Derives every plan from the root `seed` and the fault shapes: uniform
    /// lossy-link message faults (see [`FaultPlan::lossy`]) with scheduled
    /// shard outages (see [`FaultPlan::with_crash`]), the sensor corruption
    /// mix, and ingest-time process kills, each `(shard, after_appends)`
    /// (see [`DurabilityFaultPlan::killing`]).
    pub fn new(
        seed: u64,
        drop_p: f64,
        delay_p: f64,
        dup_p: f64,
        max_delay_ms: u64,
        crashes: Vec<CrashWindow>,
        sensor_mix: SensorFaultMix,
        ingest_crashes: &[(usize, u64)],
    ) -> Self {
        let mut message =
            FaultPlan::lossy(seed ^ SALT_MESSAGE, drop_p, delay_p, dup_p, max_delay_ms);
        message.crashes = crashes;
        ChaosConfig {
            seed,
            message,
            sensor_mix,
            durability: DurabilityFaultPlan::killing(seed ^ SALT_DURABILITY, ingest_crashes),
        }
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
        let c = ChaosConfig::new(
            42,
            0.1,
            0.0,
            0.0,
            0,
            Vec::new(),
            SensorFaultMix::default(),
            &[(1, 100)],
        );
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
            let mix = SensorFaultMix { lossy: 0.2, ..SensorFaultMix::default() };
            ChaosConfig::new(7, 0.2, 0.1, 0.05, 30, Vec::new(), mix, &[(0, 50)])
        };
        assert_eq!(make(), make());
        assert_eq!(
            make().sensor_plan(&[3, 1, 4], (0.0, 10.0)),
            make().sensor_plan(&[3, 1, 4], (0.0, 10.0))
        );
    }

    #[test]
    fn windows_land_in_the_message_plan() {
        let window = CrashWindow { node: 2, after_messages: 1, lasts_messages: 3 };
        let c = ChaosConfig::new(5, 0.0, 0.0, 0.0, 0, vec![window], SensorFaultMix::default(), &[]);
        assert!(c.message.is_crashed(2, 2));
    }
}
