//! Machine-speed calibration. The sandbox this benchmark runs in changes
//! speed by up to 2× for seconds to minutes at a time (a busy neighbour on
//! the same hardware): twelve identical `query-hot` runs in a row read
//! 30 k to 54 k queries/s on the clock, an interquartile spread of 24 % of
//! the median, where the driver accepts at most a 25 % bound and the issue
//! asks for 10 %. No repetition inside a run averages that out, so without a
//! correction every time and rate would have to be demoted. Instead every
//! timed interval is bracketed by two runs of a fixed kernel owned by the
//! harness — hashing, binary searches, small allocations and an uncontended
//! lock, the instruction mix of the runtime — and the gated times and rates
//! are scaled to the machine on which that kernel takes [`REFERENCE_S`]
//! (10 ms); the same twelve runs then spread 6 %. The kernel never changes
//! with the code under test, so a change to the repository moves a metric by
//! the factor it would on a quiet machine. The report prints what the clock
//! read beside every scaled value, and `machine.speed`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use crate::gen::Rng;
use crate::pin;

/// What one kernel run takes on the reference machine: this sandbox, quiet.
const REFERENCE_S: f64 = 0.010;
const ROUNDS: usize = 200_000;
/// Kernel runs per sample and CPU set.
const RUNS: usize = 3;

pub struct Calib {
    arrays: Vec<Vec<f64>>,
    map: HashMap<u64, u64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut r = Rng::new(7);
        let arrays = (0..64)
            .map(|_| {
                let mut v: Vec<f64> =
                    (0..50 + r.next() % 400).map(|_| (r.next() >> 11) as f64).collect();
                v.sort_by(f64::total_cmp);
                v
            })
            .collect();
        Calib { arrays, map: (0..2_000).map(|i| (r.next(), i)).collect() }
    }

    /// One run of the kernel, in seconds.
    fn run(&self) -> f64 {
        let t0 = Instant::now();
        let mut r = Rng::new(99);
        let lock = Mutex::new(0usize);
        for _ in 0..ROUNDS {
            let h = r.next();
            let a = &self.arrays[(h % 64) as usize];
            let mut acc = a.partition_point(|&x| x <= (h >> 11) as f64);
            acc += self.map.get(&h).copied().unwrap_or(1) as usize;
            acc += black_box(Vec::<u64>::with_capacity(16 + (h & 63) as usize)).capacity();
            *lock.lock().expect("uncontended") += acc;
        }
        black_box(lock);
        t0.elapsed().as_secs_f64()
    }

    /// The machine's speed now, relative to the reference (1.0 = reference,
    /// below 1 = slower): [`RUNS`] kernel runs on each side of the placement,
    /// so a split run is calibrated on every CPU it uses.
    fn sample(&self, speeds: &mut Vec<f64>) {
        pin::on_each_side(|| speeds.extend((0..RUNS).map(|_| REFERENCE_S / self.run())));
    }

    /// Runs `f` between two samples of the machine's speed and returns its
    /// result with them. Pool the samples of a metric's windows and scale by
    /// their mean: multiply a time by it, divide a rate by it.
    pub fn around<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<f64>) {
        let mut speeds = Vec::with_capacity(4 * RUNS);
        self.sample(&mut speeds);
        let out = f();
        self.sample(&mut speeds);
        (out, speeds)
    }
}
