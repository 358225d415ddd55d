//! `stq-e2e`: the repository's end-to-end benchmark. See `README.md` beside
//! this package for the method, the glossary and how to read the output.
//!
//! ```text
//! benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run
//! benchmark/run.sh [--seed N] [--seconds S]                every workload, both modes
//! benchmark/run.sh --check-repeat [--seconds S]            two sets of runs, compared
//! ```

mod calib;
mod drive;
mod gen;
mod layers;
mod pin;
mod repeat;
mod run;
mod spec;
mod stats;
mod trace;
mod world;

use std::process::ExitCode;

/// The baseline seed; 23 is the held-out seed (README, "Seeds").
const DEFAULT_SEED: u64 = 11;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                // `--trace` alone turns tracing on; the driver passes 0 or 1.
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Prints one run: every metric by name and unit, then the result line.
fn report(workload: &str, trace: bool, outcome: &run::Outcome) {
    println!("# stq-e2e {workload} ({})", if trace { "traced" } else { "untraced" });
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == workload) {
        println!("# {}", w.why);
    }
    println!("# {}", outcome.placement);
    let mut metrics = Vec::new();
    if trace {
        for m in &spec::PER_LAYER {
            let v = outcome.layer.get(m.name).copied().unwrap_or(0.0);
            println!("{:<38} {:>16.4} {}", m.name, v, m.unit);
            metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
    } else {
        for m in &spec::END_TO_END {
            let (s, raw) = outcome
                .end_to_end
                .iter()
                .find(|(name, ..)| *name == m.name)
                .map(|(_, s, raw)| (*s, *raw))
                .expect("every end-to-end metric is measured");
            print!(
                "{:<22} {:>14.4} {:<4} (p25 {:.4}, p75 {:.4}, n {}",
                m.name, s.median, m.unit, s.p25, s.p75, s.n
            );
            // Times and rates are scaled to the reference machine.
            if raw != s.median {
                print!("; as the clock read it {raw:.4}");
            }
            println!(")");
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, s.median, m.unit
            ));
        }
    }
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stq-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return repeat::check_repeat(args.seconds);
    }
    let Some(workload) = args.workload else {
        return repeat::run_all(args.seed, args.seconds);
    };
    match run::run(&workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => {
            report(&workload, args.trace, &outcome);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stq-e2e: refused: {e}");
            ExitCode::from(3)
        }
    }
}
