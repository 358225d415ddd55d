//! Overload sweep of the serving runtime: open-loop offered load at 1–4×
//! the measured saturation rate, as an ablation of overload control. Two
//! arms share each cell:
//!
//! - `baseline`: the naive blocking runtime, no overload control;
//! - `controlled`: deadline budgets, admission and brownout precision
//!   shedding on the one delay signal (the age of the oldest query in
//!   flight against a tenth of the budget), and circuit breakers.
//!
//! Two fault columns: `none`, and `silent`, where shard 0 drops every
//! message for the whole run (a dead radio the breakers must route around).
//! The silent column runs the controlled arm only: the blocking baseline
//! waits out two shard timeouts per query there, a few answers a second, so
//! one of its cells would run for minutes. Arm order alternates from cell to
//! cell.
//! Emits `results/BENCH_overload.json` plus a human-readable table.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin overload_sweep [-- --quick --seed N]
//! ```
//!
//! Every completed answer — full precision, strided, shed, or expired — is
//! checked against the synchronous oracle: `soundness_violations` counts
//! answers whose `[lower, upper]` bracket misses the exact value, and must
//! be 0. **Goodput** is on-time sound answers that carry information
//! (coverage > 0) per second of wall clock; fully shed and expired answers
//! are honest but uninformative, so they count against the shed/expired
//! fractions instead. The headline claim: the controlled runtime keeps
//! goodput and tail latency bounded at 2–4× saturation while the blocking
//! baseline's pacing collapses. `saturation_goodput` and
//! `goodput_at_{2,3,4}x` are the `controlled` arm's with no fault.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stq_bench::{runtime_scenario, sweep_args, write_sweep_json, SEEDS};
use stq_core::prelude::*;
use stq_core::query::evaluate;
use stq_runtime::{
    CrashWindow, FaultPlan, OverloadConfig, QuerySpec, Runtime, RuntimeConfig, ServedAnswer,
};

/// Client-visible response budget: answers later than this are not goodput
/// (and the controlled runtime stamps it as the query deadline).
const BUDGET: Duration = Duration::from_millis(100);

struct Workload {
    specs: Vec<QuerySpec>,
    /// Synchronous oracle value per spec (`None` = miss).
    exact: Vec<Option<f64>>,
    mean_boundary: f64,
}

/// Resolvable small-perimeter queries (the §4.5 perimeter ≪ region regime)
/// plus their exact synchronous values for the soundness oracle.
fn workload(s: &Scenario, g: &SampledGraph, want: usize, seed: u64) -> Workload {
    let mut specs = Vec::new();
    let mut exact = Vec::new();
    let mut boundary_edges = 0usize;
    let mut salt = 0u64;
    while specs.len() < want && salt < 64 {
        salt += 1;
        for (region, t0, t1) in s.make_queries(want, 0.015, 2_000.0, seed ^ (0xb7 + salt)) {
            let plan = QueryPlan::compile(&s.sensing, g, &region, Approximation::Lower);
            if plan.miss || !(1..=10).contains(&plan.boundary.len()) {
                continue;
            }
            boundary_edges += plan.boundary.len();
            let kind = QueryKind::Transient(t0, t1);
            exact.push(Some(evaluate(&s.tracked.store, &plan.boundary, kind)));
            specs.push(QuerySpec::new(region, kind, Approximation::Lower));
            if specs.len() >= want {
                break;
            }
        }
    }
    assert!(!specs.is_empty(), "workload generation found no small-perimeter queries");
    let mean_boundary = boundary_edges as f64 / specs.len() as f64;
    Workload { specs, exact, mean_boundary }
}

/// 1 ms of in-network delay per shard message: sensor-hop latency, not
/// CPU, sets the service time (§4.6), so saturation is a real, stable rate
/// instead of a scheduler artifact. `silent` also silences shard 0 for the
/// whole run.
fn network(fault_seed: u64, silent: bool) -> FaultPlan {
    let plan = FaultPlan::lossy(fault_seed, 0.0, 1.0, 0.0, 1);
    if !silent {
        return plan;
    }
    plan.with_crash(CrashWindow { node: 0, after_messages: 0, lasts_messages: u64::MAX })
}

/// One arm of the ablation.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Baseline,
    Controlled,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Baseline => "baseline",
            Arm::Controlled => "controlled",
        }
    }

    fn config(self, fault: FaultPlan) -> RuntimeConfig {
        let base = RuntimeConfig {
            num_shards: 4,
            dispatchers: 4,
            queue_capacity: 64,
            shard_timeout: Duration::from_millis(250),
            max_retries: 1,
            fault,
            ..RuntimeConfig::default()
        };
        match self {
            Arm::Baseline => base,
            Arm::Controlled => {
                let overload = OverloadConfig { default_deadline: Some(BUDGET) };
                RuntimeConfig { overload: Some(overload), ..base }
            }
        }
    }
}

/// Closed-loop capacity: batch-submit the workload and measure completions
/// per second. This is the saturation rate the open-loop cells multiply.
fn measure_saturation(s: &Scenario, g: &SampledGraph, w: &Workload, rounds: usize) -> f64 {
    let cfg = Arm::Baseline.config(network(SEEDS[1], false));
    let rt = Runtime::new(s.sensing.clone(), g.clone(), &s.tracked.store, cfg);
    let specs: Vec<QuerySpec> = (0..rounds).flat_map(|_| w.specs.iter().cloned()).collect();
    let start = Instant::now();
    let pending: Vec<_> = specs.iter().cloned().map(|spec| rt.submit(spec)).collect();
    let n = pending.len();
    for p in pending {
        let _ = p.wait();
    }
    let elapsed = start.elapsed().as_secs_f64();
    rt.shutdown();
    n as f64 / elapsed
}

struct CellOutcome {
    offered_qps: f64,
    achieved_qps: f64,
    submitted: usize,
    completed: usize,
    rejected: usize,
    expired: usize,
    shed: usize,
    downgraded: usize,
    goodput_qps: f64,
    p99_response_ms: f64,
    mean_coverage: f64,
    soundness_violations: usize,
}

/// One open-loop cell: pace `count` submissions at `rate` per second, then
/// score every response against the pacing clock and the oracle.
fn run_cell(
    s: &Scenario,
    g: &SampledGraph,
    w: &Workload,
    arm: Arm,
    fault: FaultPlan,
    rate: f64,
    count: usize,
) -> CellOutcome {
    let rt = Runtime::new(s.sensing.clone(), g.clone(), &s.tracked.store, arm.config(fault));
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    // (spec index, lateness of the submit call itself, outcome)
    let mut rejected = 0usize;
    let mut submissions = Vec::with_capacity(count);
    for i in 0..count {
        let sched = start + period * (i as u32);
        let now = Instant::now();
        if sched > now {
            std::thread::sleep(sched - now);
        }
        let lag = Instant::now().saturating_duration_since(sched);
        let idx = i % w.specs.len();
        let spec = w.specs[idx].clone();
        if arm != Arm::Baseline {
            match rt.try_submit(spec) {
                Ok(p) => submissions.push((idx, lag, p)),
                Err(_) => rejected += 1,
            }
        } else {
            // The naive baseline blocks right here when the queue is full —
            // the pacing clock keeps running and lateness compounds.
            submissions.push((idx, lag, rt.submit(spec)));
        }
    }
    let answers: Vec<(usize, Duration, ServedAnswer)> =
        submissions.into_iter().map(|(idx, lag, p)| (idx, lag, p.wait())).collect();
    let elapsed = start.elapsed().as_secs_f64();
    rt.shutdown();

    let mut good = 0usize;
    let mut expired = 0usize;
    let mut shed = 0usize;
    let mut downgraded = 0usize;
    let mut violations = 0usize;
    let mut coverage_sum = 0.0;
    let mut response_ms: Vec<f64> = Vec::with_capacity(answers.len());
    for (idx, lag, a) in &answers {
        // Response time as the client sees it: pacing lag (how late the
        // submit call itself ran) plus the runtime's end-to-end latency.
        let response = *lag + a.latency;
        response_ms.push(response.as_secs_f64() * 1e3);
        coverage_sum += a.coverage;
        if let Some(exact) = w.exact[*idx] {
            if !(a.lower <= exact + 1e-9 && exact <= a.upper + 1e-9) {
                violations += 1;
            }
        }
        if a.expired {
            expired += 1;
            continue;
        }
        match a.brownout {
            0 => {}
            1 | 2 => downgraded += 1,
            _ => {
                shed += 1;
                continue;
            }
        }
        if response <= BUDGET {
            good += 1;
        }
    }
    response_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = if response_ms.is_empty() {
        0.0
    } else {
        response_ms[((response_ms.len() - 1) as f64 * 0.99) as usize]
    };
    CellOutcome {
        offered_qps: rate,
        achieved_qps: count as f64 / elapsed,
        submitted: count,
        completed: answers.len(),
        rejected,
        expired,
        shed,
        downgraded,
        goodput_qps: good as f64 / elapsed,
        p99_response_ms: p99,
        mean_coverage: coverage_sum / (answers.len() as f64).max(1.0),
        soundness_violations: violations,
    }
}

fn main() {
    let (quick, pinned) = sweep_args();
    let seed = pinned.unwrap_or(SEEDS[0]);
    let (junctions, objects, regions, sat_rounds, cell_secs) =
        if quick { (150, 45, 16, 2, 1.0) } else { (300, 100, 32, 4, 2.0) };

    let (scenario, sampled) = runtime_scenario(seed, junctions, objects);
    let w = workload(&scenario, &sampled, regions, seed);
    println!(
        "# overload_sweep — seed {seed}, {junctions} junctions, {} base specs, \
         mean perimeter {:.1} edges, budget {} ms",
        w.specs.len(),
        w.mean_boundary,
        BUDGET.as_millis()
    );

    let saturation_qps = measure_saturation(&scenario, &sampled, &w, sat_rounds);
    println!("closed-loop saturation: {saturation_qps:.0} q/s");

    println!(
        "\n{:<10} | {:<6} | {:>4} | {:>8} | {:>8} | {:>8} | {:>6} | {:>6} | {:>6} | {:>6} | {:>8} | {:>5}",
        "system",
        "fault",
        "mult",
        "offered",
        "goodput",
        "p99 ms",
        "rej%",
        "exp%",
        "shed%",
        "down%",
        "cover",
        "viol"
    );
    let multipliers = [1.0f64, 2.0, 3.0, 4.0];
    let mut json_rows = String::new();
    let mut violations_total = 0usize;
    // The controlled arm's goodput per multiplier, without and with the fault.
    let mut controlled_goodput = [[0.0f64; 4]; 2];
    for silent in [false, true] {
        let fault = if silent { "silent" } else { "none" };
        let arms: &[Arm] =
            if silent { &[Arm::Controlled] } else { &[Arm::Baseline, Arm::Controlled] };
        for (mi, &mult) in multipliers.iter().enumerate() {
            let rate = saturation_qps * mult;
            let count = ((rate * cell_secs) as usize).clamp(32, 6_000);
            // Alternate the arm order so no arm always runs first (or last)
            // on a machine that warms up or slows down over the sweep.
            let mut order = arms.to_vec();
            if mi % 2 == 1 {
                order.reverse();
            }
            let mut outcomes: Vec<(Arm, CellOutcome)> = order
                .into_iter()
                .map(|arm| {
                    let plan = network(seed ^ 0x2e, silent);
                    (arm, run_cell(&scenario, &sampled, &w, arm, plan, rate, count))
                })
                .collect();
            outcomes.sort_by_key(|(arm, _)| *arm as u8);
            for (arm, o) in outcomes {
                let system = arm.name();
                let frac = |n: usize| n as f64 / o.submitted.max(1) as f64;
                println!(
                    "{system:<10} | {fault:<6} | {mult:>4.1} | {:>8.0} | {:>8.1} | {:>8.1} | {:>6.3} \
                     | {:>6.3} | {:>6.3} | {:>6.3} | {:>8.3} | {:>5}",
                    o.offered_qps,
                    o.goodput_qps,
                    o.p99_response_ms,
                    frac(o.rejected),
                    frac(o.expired),
                    frac(o.shed),
                    frac(o.downgraded),
                    o.mean_coverage,
                    o.soundness_violations
                );
                violations_total += o.soundness_violations;
                if arm == Arm::Controlled {
                    controlled_goodput[usize::from(silent)][mi] = o.goodput_qps;
                }
                let _ = write!(
                    json_rows,
                    "{}    {{\"system\": \"{system}\", \"fault\": \"{fault}\", \
                     \"multiplier\": {mult}, \
                     \"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \"submitted\": {}, \
                     \"completed\": {}, \"rejected_frac\": {:.4}, \"expired_frac\": {:.4}, \
                     \"shed_frac\": {:.4}, \"downgraded_frac\": {:.4}, \"goodput_qps\": {:.1}, \
                     \"p99_response_ms\": {:.2}, \"mean_coverage\": {:.4}, \
                     \"soundness_violations\": {}}}",
                    if json_rows.is_empty() { "" } else { ",\n" },
                    o.offered_qps,
                    o.achieved_qps,
                    o.submitted,
                    o.completed,
                    frac(o.rejected),
                    frac(o.expired),
                    frac(o.shed),
                    frac(o.downgraded),
                    o.goodput_qps,
                    o.p99_response_ms,
                    o.mean_coverage,
                    o.soundness_violations
                );
            }
        }
    }

    println!(
        "\ncontrolled goodput at 3x saturation: {:.1} q/s vs {:.1} q/s at 1x, {:.1} q/s at 3x \
         with shard 0 silent ({} soundness violations total)",
        controlled_goodput[0][2],
        controlled_goodput[0][0],
        controlled_goodput[1][2],
        violations_total
    );
    let json = format!(
        "{{\n  \"bench\": \"overload_sweep\",\n  \"quick\": {quick},\n  \"seed\": {seed},\n  \
         \"scenario\": {{\"junctions\": {junctions}, \"objects\": {objects}}},\n  \
         \"workload\": {{\"base_specs\": {}, \"mean_boundary_edges\": {:.2}, \
         \"budget_ms\": {}}},\n  \"saturation_qps\": {saturation_qps:.1},\n  \
         \"saturation_goodput\": {:.1},\n  \"goodput_at_2x\": {:.1},\n  \
         \"goodput_at_3x\": {:.1},\n  \"goodput_at_4x\": {:.1},\n  \
         \"soundness_violations\": {violations_total},\n  \"cells\": [\n{json_rows}\n  ]\n}}\n",
        w.specs.len(),
        w.mean_boundary,
        BUDGET.as_millis(),
        controlled_goodput[0][0],
        controlled_goodput[0][1],
        controlled_goodput[0][2],
        controlled_goodput[0][3],
    );
    write_sweep_json(quick, "BENCH_overload.json", &json);
}
