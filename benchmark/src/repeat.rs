//! Modes that run the benchmark more than once, each run a child process of
//! this same program (so peak memory and set-up are per run): every
//! workload in both modes, and the repeatability check.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::summarize;

/// Seeds of the repeatability check, one run each: the baseline seed 11, the
/// held-out seed 23, then others. Both sets use the same seeds.
const SEEDS: [u64; 10] = [11, 23, 37, 41, 53, 67, 71, 83, 97, 101];

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("path of this program"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    cmd
}

/// Every workload, untraced then traced, printing every metric by name and
/// unit; fails if any run does.
pub fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let status = child(w.name, seed, seconds, trace).status().expect("start a run");
            ok &= status.success();
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("stq-e2e: at least one run failed or was refused");
        ExitCode::FAILURE
    }
}

/// The `value`s of a run's result line, by metric name.
fn parse_result(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let line = stdout.lines().last()?;
    if !line.starts_with("{\"correct\": true") {
        return None;
    }
    let body = line.split_once("\"metrics\": {")?.1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let value = rest.split_once(',')?.0.parse().ok()?;
            Some((name.trim_start_matches('"').to_string(), value))
        })
        .collect()
}

/// Interquartile range as a share of the median, the driver's spread.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's `statistics.quantiles(v, n=4)` (exclusive method).
    let at = |q: f64| {
        let pos = q * (v.len() + 1) as f64 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(v.len() - 1);
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    (at(0.75) - at(0.25)) / summarize(&v).median
}

/// Runs every workload once per seed of [`SEEDS`], twice over, and holds
/// the two sets to the acceptance rule: within a set each end-to-end
/// metric's spread stays inside its bound (`setup_s` excepted), and the
/// second set's median is not worse than the first's by more than the bound.
pub fn check_repeat(seconds: f64) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        // sets[set][metric] = the metric's value in each run of the set
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for set in &mut sets {
            for seed in SEEDS {
                let out = child(w.name, seed, seconds, false)
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("start a run");
                let stdout = String::from_utf8_lossy(&out.stdout);
                let Some(metrics) = parse_result(&stdout).filter(|_| out.status.success()) else {
                    eprintln!("stq-e2e: {} seed {seed} failed:\n{stdout}", w.name);
                    return ExitCode::FAILURE;
                };
                eprintln!("{} seed {seed} done", w.name);
                for (name, value) in metrics {
                    set.entry(name).or_default().push(value);
                }
            }
        }
        for m in &END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (ma, mb) = (summarize(a).median, summarize(b).median);
            let worse = if m.better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
            let (sa, sb) = (spread(a), spread(b));
            let steady = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let pass = steady && worse <= m.bound;
            ok &= pass;
            rows.push(format!(
                "{:<15} {:<20} {:>12.4} {:>7.4} {:>12.4} {:>7.4} {:>8.4} {:>6.2} {}",
                w.name,
                m.name,
                ma,
                sa,
                mb,
                sb,
                mb / ma,
                m.bound,
                match (pass, sa.max(sb) <= m.bound / 3.0) {
                    (false, _) => "FAIL",
                    (true, true) => "ok",
                    (true, false) => "ok (spread above a third of the bound)",
                }
            ));
        }
    }
    println!(
        "{:<15} {:<20} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}",
        "workload", "metric", "median 1", "iqr/med", "median 2", "iqr/med", "ratio", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("stq-e2e: the two sets disagree by more than the benchmark's own bounds");
        ExitCode::FAILURE
    }
}
