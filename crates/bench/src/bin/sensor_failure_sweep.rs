//! Sensor-failure sweep: kills a growing fraction of monitored sensors,
//! runs the 1-form integrity audit + quarantine-and-repair pipeline, and
//! checks that every served bracket still contains the oracle truth. Emits
//! `results/BENCH_sensors.json` (`target/quick/BENCH_sensors.json` under
//! `--quick`) plus a human-readable table.
//!
//! ```sh
//! cargo run --release -p stq-bench --bin sensor_failure_sweep [-- --quick --seed N]
//! ```
//!
//! Two experiments:
//!
//! 1. **Dead-sensor sweep** — for each dead fraction, corrupt ingestion
//!    with a seeded [`SensorFaultPlan`]. A *blind* audit (no heartbeat)
//!    scores detection: recall over the dead set and the blame it sprays on
//!    healthy neighbours. The *serving* pipeline then applies heartbeat
//!    knowledge first — fail-stop deaths announce themselves, so dead edges
//!    are demoted before the audit runs on the merged components — and
//!    additionally distrusts hard-evidence flags (conservation violations,
//!    non-monotone logs, duplicate timestamps) and repaired-then-rewritten
//!    logs. Silence-only flags stay monitored: their logs are untouched, so
//!    keeping them costs nothing in soundness and saves most of the
//!    coverage. Every query of all three kinds is asserted sound:
//!    `lower ≤ oracle ≤ upper`. The failover column re-selects detour edges
//!    around the untrusted set via [`SampledGraph::reroute_around`] and
//!    measures how much granularity (components) and coverage it buys back.
//! 2. **Exact repair** — a flipped + duplicating mix (no deaths) for
//!    aggregate repair stats, plus isolated single-edge flip trials that
//!    assert the core contract: the corrupted edge is either restored to
//!    byte-equality with a clean ingestion or quarantined — never silently
//!    served wrong.
//! 3. **Mixed cocktail** — dead + skewed + flipped simultaneously, served
//!    once with degraded-mode answering enabled and once with imputation
//!    switched off, so the marginal value of conservation-residual
//!    imputation under compound faults is a measured cell, not a claim.
//!
//! Each dead-sweep cell also answers every query through the
//! [`DegradedAnswerer`] escalation (multi-face detours → imputation →
//! learned fallback); those brackets are asserted sound exactly like the
//! demoted and rerouted ones, and the per-strategy tallies are reported.

use std::collections::HashSet;
use std::fmt::Write as _;

use stq_bench::{runtime_scenario, sweep_args, write_sweep_json, SEEDS};
use stq_core::prelude::*;
use stq_forms::Evidence;
use stq_net::{SensorFaultMix, SensorFaultPlan};

/// Per-cell measurements of the dead-sensor sweep.
struct SweepOut {
    dead: usize,
    flagged: usize,
    silence_only: usize,
    recall: f64,
    queries: usize,
    sound: usize,
    misses: usize,
    infinite: usize,
    mean_coverage: f64,
    mean_width: f64,
    components_before: usize,
    components_demoted: usize,
    components_rerouted: usize,
    rerouted_sound: usize,
    rerouted_misses: usize,
    rerouted_mean_coverage: f64,
    degraded: DegradedOut,
}

/// Measurements of one degraded-mode answering pass (soundness is asserted
/// inline; a violation aborts the sweep).
struct DegradedOut {
    sound: usize,
    misses: usize,
    infinite: usize,
    mean_coverage: f64,
    mean_confidence: f64,
    mean_width: f64,
    finite: usize,
    /// Winning-strategy tally: [demoted, detour, imputed, learned].
    strategies: [usize; 4],
}

impl DegradedOut {
    fn json(&self) -> String {
        format!(
            "{{\"sound\": {}, \"misses\": {}, \"infinite_brackets\": {}, \
             \"mean_coverage\": {:.4}, \"mean_confidence\": {:.4}, \"mean_width\": {}, \
             \"strategies\": {{\"demoted\": {}, \"detour\": {}, \"imputed\": {}, \
             \"learned\": {}}}}}",
            self.sound,
            self.misses,
            self.infinite,
            self.mean_coverage,
            self.mean_confidence,
            width_json(self.finite, self.mean_width),
            self.strategies[0],
            self.strategies[1],
            self.strategies[2],
            self.strategies[3]
        )
    }
}

/// `mean_width` is an average over *finite* brackets; with none measured
/// there is no mean, and printing `0.000` would fake a perfectly tight
/// cell. Emit JSON `null` so "no sound answers" stays distinguishable.
fn width_json(finite: usize, mean: f64) -> String {
    if finite == 0 {
        "null".to_string()
    } else {
        format!("{mean:.3}")
    }
}

fn monitored_edges(g: &SampledGraph) -> Vec<usize> {
    g.monitored().iter().enumerate().filter(|&(_, &m)| m).map(|(e, _)| e).collect()
}

/// Answers every query on `graph`, asserting soundness against the oracle.
/// Returns (sound, misses, infinite, coverage sum, width sum, finite count).
fn answer_all(
    s: &Scenario,
    graph: &SampledGraph,
    tracked: &Tracked,
    queries: &[(QueryRegion, f64, f64)],
    label: &str,
) -> (usize, usize, usize, f64, f64, usize) {
    let (mut sound, mut misses, mut infinite) = (0usize, 0usize, 0usize);
    let (mut cov_sum, mut width_sum, mut finite) = (0.0f64, 0.0f64, 0usize);
    for (q, t0, t1) in queries {
        let inside = |j: usize| q.contains(j);
        for kind in
            [QueryKind::Snapshot(*t0), QueryKind::Transient(*t0, *t1), QueryKind::Static(*t0, *t1)]
        {
            let b = answer_with_bounds(&s.sensing, graph, &tracked.store, q, kind);
            if b.miss {
                misses += 1;
                continue;
            }
            let truth = match kind {
                QueryKind::Snapshot(t) => tracked.oracle.snapshot_count(&inside, t) as f64,
                QueryKind::Transient(a, z) => tracked.oracle.transient_count(&inside, a, z) as f64,
                QueryKind::Static(a, z) => {
                    tracked.oracle.static_interval_count(&inside, a, z) as f64
                }
            };
            // The acceptance criterion: served answers stay sound no matter
            // how many sensors died. A violation is a bug, not a data point.
            assert!(
                b.contains(truth),
                "{label} {kind:?}: oracle {truth} outside [{}, {}]",
                b.lower,
                b.upper
            );
            sound += 1;
            cov_sum += b.coverage;
            if b.width().is_finite() {
                width_sum += b.width();
                finite += 1;
            } else {
                infinite += 1;
            }
        }
    }
    (sound, misses, infinite, cov_sum, width_sum, finite)
}

/// Answers every query through the degraded-mode escalation, asserting the
/// certified bracket is sound and the point estimate honest (inside it).
fn answer_degraded(
    s: &Scenario,
    deg: &DegradedAnswerer,
    tracked: &Tracked,
    queries: &[(QueryRegion, f64, f64)],
    label: &str,
) -> DegradedOut {
    let mut o = DegradedOut {
        sound: 0,
        misses: 0,
        infinite: 0,
        mean_coverage: 0.0,
        mean_confidence: 0.0,
        mean_width: 0.0,
        finite: 0,
        strategies: [0; 4],
    };
    let (mut cov_sum, mut conf_sum, mut width_sum) = (0.0f64, 0.0f64, 0.0f64);
    for (q, t0, t1) in queries {
        let inside = |j: usize| q.contains(j);
        for kind in
            [QueryKind::Snapshot(*t0), QueryKind::Transient(*t0, *t1), QueryKind::Static(*t0, *t1)]
        {
            let a = deg.answer(&s.sensing, &tracked.store, q, kind);
            if a.bracket.miss {
                o.misses += 1;
                continue;
            }
            let truth = match kind {
                QueryKind::Snapshot(t) => tracked.oracle.snapshot_count(&inside, t) as f64,
                QueryKind::Transient(x, z) => tracked.oracle.transient_count(&inside, x, z) as f64,
                QueryKind::Static(x, z) => {
                    tracked.oracle.static_interval_count(&inside, x, z) as f64
                }
            };
            assert!(
                a.bracket.contains(truth),
                "{label} {kind:?} ({:?}): oracle {truth} outside [{}, {}]",
                a.strategy,
                a.bracket.lower,
                a.bracket.upper
            );
            assert!(
                a.bracket.lower <= a.value && a.value <= a.bracket.upper,
                "{label} {kind:?}: point estimate {} escapes its own bracket",
                a.value
            );
            o.sound += 1;
            cov_sum += a.bracket.coverage;
            conf_sum += a.confidence;
            match a.strategy {
                DegradedStrategy::Demoted => o.strategies[0] += 1,
                DegradedStrategy::MultiFaceDetour => o.strategies[1] += 1,
                DegradedStrategy::Imputation => o.strategies[2] += 1,
                DegradedStrategy::LearnedFallback => o.strategies[3] += 1,
                DegradedStrategy::None => {}
            }
            if a.bracket.width().is_finite() {
                width_sum += a.bracket.width();
                o.finite += 1;
            } else {
                o.infinite += 1;
            }
        }
    }
    o.mean_coverage = cov_sum / (o.sound as f64).max(1.0);
    o.mean_confidence = conf_sum / (o.sound as f64).max(1.0);
    o.mean_width = width_sum / (o.finite as f64).max(1.0);
    o
}

fn sweep_cell(
    s: &Scenario,
    g: &SampledGraph,
    frac: f64,
    seed: u64,
    queries: &[(QueryRegion, f64, f64)],
) -> SweepOut {
    let horizon = (0.0, s.config.trajectory.duration);
    let plan = SensorFaultPlan::generate(
        seed ^ 0xFA11,
        &monitored_edges(g),
        horizon,
        SensorFaultMix::dead_only(frac),
    );
    let dead = plan.dead_edges();
    let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);

    // Blind pass — the no-heartbeat counterfactual, for detection stats
    // only: how much of the dead set does the audit find on its own, and
    // how many healthy edges does it drag down (dead sensors spray
    // conservation blame over every boundary edge of their violated
    // components, so blind quarantine over-demotes by design)?
    let mut blind_store = tracked.store.clone();
    let blind =
        quarantine_and_repair(&s.sensing, g, &mut blind_store, horizon, &RepairConfig::default());
    let silence = |rep: &RepairOutcome, e: usize| {
        rep.report.verdict(e).is_some_and(|v| {
            v.evidence
                .iter()
                .all(|ev| matches!(ev, Evidence::SilentGap { .. } | Evidence::SilentSibling { .. }))
        })
    };
    let dead_set: HashSet<usize> = dead.iter().copied().collect();
    let caught = blind.quarantined.iter().filter(|e| dead_set.contains(e)).count();
    let silence_only = blind.quarantined.iter().filter(|&&e| silence(&blind, e)).count();

    // Serving pass — heartbeats announce fail-stop deaths, so demote the
    // dead edges *before* auditing: the merged components then have only
    // healthy boundary logs, conservation holds again, and no blame lands
    // on healthy edges. On top of the heartbeat demotion we drop whatever
    // the audit still flags with hard evidence and any edge the repair
    // pass rewrote (under a dead-only mix a "repair" was a mis-repair of a
    // healthy log). Silence-only flags stay monitored: their logs are
    // untouched, so they cost nothing in soundness and would cost most of
    // the remaining coverage.
    let g_live = g.demote_edges(&s.sensing, &dead);
    let out = quarantine_and_repair(
        &s.sensing,
        &g_live,
        &mut tracked.store,
        horizon,
        &RepairConfig::default(),
    );
    let mut distrusted: Vec<usize> = out
        .quarantined
        .iter()
        .copied()
        .filter(|&e| !silence(&out, e))
        .chain(out.repaired.iter().map(|r| r.edge))
        .collect();
    distrusted.sort_unstable();
    distrusted.dedup();
    let demoted = g_live.demote_edges(&s.sensing, &distrusted);

    // Failover: re-route detours around everything untrusted; detour edges
    // were never in the fault plan, so their logs are clean.
    let mut untrusted: Vec<usize> =
        dead.iter().copied().chain(distrusted.iter().copied()).collect();
    untrusted.sort_unstable();
    untrusted.dedup();
    let rerouted = g.reroute_around(&s.sensing, &untrusted);

    let (sound, misses, infinite, cov_sum, width_sum, finite) =
        answer_all(s, &demoted, &tracked, queries, "demoted");
    let (r_sound, r_misses, _, r_cov_sum, _, _) =
        answer_all(s, &rerouted, &tracked, queries, "rerouted");
    // Degraded-mode escalation over the same untrusted set: the answerer
    // owns its own demoted/rerouted graphs plus the imputation constraint
    // system and learned fallback, so every query gets the best certified
    // bracket the quarantine leaves reachable.
    let deg =
        DegradedAnswerer::new(&s.sensing, g, &untrusted, &tracked.store, DegradedPolicy::default());
    let degraded = answer_degraded(s, &deg, &tracked, queries, "degraded");
    SweepOut {
        dead: dead.len(),
        flagged: blind.report.flagged().len(),
        silence_only,
        recall: if dead.is_empty() { 1.0 } else { caught as f64 / dead.len() as f64 },
        queries: queries.len() * 3,
        sound,
        misses,
        infinite,
        mean_coverage: cov_sum / (sound as f64).max(1.0),
        mean_width: width_sum / (finite as f64).max(1.0),
        components_before: g.components().len(),
        components_demoted: demoted.components().len(),
        components_rerouted: rerouted.components().len(),
        rerouted_sound: r_sound,
        rerouted_misses: r_misses,
        rerouted_mean_coverage: r_cov_sum / (r_sound as f64).max(1.0),
        degraded,
    }
}

/// One mixed-fault cocktail cell: dead + skewed + flipped simultaneously.
struct CocktailOut {
    dead: usize,
    skewed: usize,
    flipped: usize,
    untrusted: usize,
    base_sound: usize,
    base_misses: usize,
    base_infinite: usize,
    base_mean_coverage: f64,
    base_mean_width: f64,
    base_finite: usize,
    degraded: DegradedOut,
}

/// Serves a compound fault mix (fail-stop deaths announced by heartbeat,
/// clock skew and direction flips only catchable by the audit) through the
/// same demote-first pipeline as the dead sweep, then through the degraded
/// escalation with `impute` on or off. Every bracket on both paths is
/// asserted sound.
fn cocktail_cell(
    s: &Scenario,
    g: &SampledGraph,
    seed: u64,
    queries: &[(QueryRegion, f64, f64)],
    impute: bool,
) -> CocktailOut {
    let horizon = (0.0, s.config.trajectory.duration);
    // Flips and skews spray conservation blame over whole component
    // boundaries, so those fractions dominate how much of the network the
    // audit ends up distrusting; keep them low enough that the cocktail
    // measures degraded answering rather than a total blackout.
    let mix = SensorFaultMix { dead: 0.08, skewed: 0.01, flipped: 0.005, ..SensorFaultMix::none() };
    let plan = SensorFaultPlan::generate(seed ^ 0xC0C7, &monitored_edges(g), horizon, mix);
    let dead = plan.dead_edges();
    let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);

    let g_live = g.demote_edges(&s.sensing, &dead);
    let out = quarantine_and_repair(
        &s.sensing,
        &g_live,
        &mut tracked.store,
        horizon,
        &RepairConfig::default(),
    );
    let silence = |e: usize| {
        out.report.verdict(e).is_some_and(|v| {
            v.evidence
                .iter()
                .all(|ev| matches!(ev, Evidence::SilentGap { .. } | Evidence::SilentSibling { .. }))
        })
    };
    let mut untrusted: Vec<usize> = dead
        .iter()
        .copied()
        .chain(out.quarantined.iter().copied().filter(|&e| !silence(e)))
        .chain(out.repaired.iter().map(|r| r.edge))
        .collect();
    untrusted.sort_unstable();
    untrusted.dedup();

    let demoted = g.demote_edges(&s.sensing, &untrusted);
    let (b_sound, b_misses, b_infinite, b_cov, b_width, b_finite) =
        answer_all(s, &demoted, &tracked, queries, "cocktail-demoted");
    let policy = DegradedPolicy { impute, ..DegradedPolicy::default() };
    let deg = DegradedAnswerer::new(&s.sensing, g, &untrusted, &tracked.store, policy);
    let label = if impute { "cocktail-degraded" } else { "cocktail-no-impute" };
    let degraded = answer_degraded(s, &deg, &tracked, queries, label);
    CocktailOut {
        dead: dead.len(),
        skewed: plan.edges_of(stq_net::SensorFaultKind::Skewed).len(),
        flipped: plan.edges_of(stq_net::SensorFaultKind::Flipped).len(),
        untrusted: untrusted.len(),
        base_sound: b_sound,
        base_misses: b_misses,
        base_infinite: b_infinite,
        base_mean_coverage: b_cov / (b_sound as f64).max(1.0),
        base_mean_width: b_width / (b_finite as f64).max(1.0),
        base_finite: b_finite,
        degraded,
    }
}

/// Per-seed exact-repair accounting.
struct RepairOut {
    corrupted: usize,
    unflips: usize,
    unflips_exact: usize,
    dedups: usize,
    dedups_exact: usize,
    quarantined: usize,
    isolated_trials: usize,
    isolated_exact: usize,
    isolated_quarantined: usize,
    isolated_undetected: usize,
}

fn forms_equal(a: &stq_forms::TrackingForm, b: &stq_forms::TrackingForm) -> bool {
    a.timestamps(true) == b.timestamps(true) && a.timestamps(false) == b.timestamps(false)
}

/// Aggregate repair stats under a flipped + duplicating mix, plus isolated
/// single-edge flip trials. In the mixed setting repairs can collide (two
/// suspects on one violated component), so exactness is reported, not
/// asserted; the isolated trials assert the actual contract — restored
/// byte-exactly or quarantined, never silently served wrong.
fn repair_cell(s: &Scenario, g: &SampledGraph, seed: u64) -> RepairOut {
    let horizon = (0.0, s.config.trajectory.duration);
    let clean = &s.tracked.store;
    let mix = SensorFaultMix { flipped: 0.12, duplicating: 0.12, ..SensorFaultMix::none() };
    let plan = SensorFaultPlan::generate(seed ^ 0xF1B, &monitored_edges(g), horizon, mix);
    let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);
    let out =
        quarantine_and_repair(&s.sensing, g, &mut tracked.store, horizon, &RepairConfig::default());
    let mut r = RepairOut {
        corrupted: plan.corrupted_edges().len(),
        unflips: 0,
        unflips_exact: 0,
        dedups: 0,
        dedups_exact: 0,
        quarantined: out.quarantined.len(),
        isolated_trials: 0,
        isolated_exact: 0,
        isolated_quarantined: 0,
        isolated_undetected: 0,
    };
    for rep in &out.repaired {
        let exact = forms_equal(tracked.store.form(rep.edge), clean.form(rep.edge));
        match rep.kind {
            stq_core::repair::RepairKind::Unflip => {
                r.unflips += 1;
                r.unflips_exact += usize::from(exact);
            }
            stq_core::repair::RepairKind::Dedup => {
                r.dedups += 1;
                r.dedups_exact += usize::from(exact);
            }
        }
    }

    // Isolated trials: flip exactly one busy edge, whole horizon.
    let busy: Vec<usize> = monitored_edges(g)
        .into_iter()
        .filter(|&e| clean.form(e).total(true) + clean.form(e).total(false) >= 6)
        .take(6)
        .collect();
    for &edge in &busy {
        let plan = SensorFaultPlan::from_faults(
            seed ^ 0x150,
            vec![stq_net::SensorFault {
                edge,
                kind: stq_net::SensorFaultKind::Flipped,
                from: f64::NEG_INFINITY,
                until: f64::INFINITY,
            }],
        );
        let mut t = ingest_with_faults(&s.sensing, &s.trajectories, &plan);
        let out =
            quarantine_and_repair(&s.sensing, g, &mut t.store, horizon, &RepairConfig::default());
        r.isolated_trials += 1;
        if !out.initial.flagged().contains(&edge) {
            // A flip that leaves every component's running population
            // non-negative breaks no conservation law — the audit is a
            // necessary-condition check and cannot see it. Reported, so
            // the detectability limit is measured rather than hidden.
            r.isolated_undetected += 1;
        } else if forms_equal(t.store.form(edge), clean.form(edge)) {
            r.isolated_exact += 1;
        } else {
            // Flagged but not confidently invertible: the contract is
            // quarantine, never a silently wrong monitored log.
            assert!(
                out.quarantined.contains(&edge),
                "isolated flip on edge {edge}: flagged but neither repaired nor quarantined"
            );
            r.isolated_quarantined += 1;
        }
    }
    r
}

fn main() {
    // `--seed N` pins the whole pipeline to one seed (the CI chaos matrix
    // runs three of them); without it the standard bench seed set is used.
    let (quick, pinned) = sweep_args();
    let (junctions, objects, regions) = if quick { (150, 45, 8) } else { (300, 100, 18) };
    let seeds: Vec<u64> = match pinned {
        Some(s) => vec![s],
        None if quick => SEEDS[..2].to_vec(),
        None => SEEDS[..3].to_vec(),
    };
    let fracs = [0.0f64, 0.1, 0.2, 0.3];

    println!("# sensor_failure_sweep — {junctions} junctions, {} seeds", seeds.len());
    println!(
        "\n{:>6} | {:>5} | {:>5} | {:>5} | {:>5} | {:>6} | {:>11} | {:>6} | {:>7} | {:>15} | {:>7} | {:>7}",
        "seed",
        "dead%",
        "dead",
        "flag",
        "fp",
        "recall",
        "sound/asked",
        "miss",
        "cover",
        "comps b/d/r",
        "r-sound",
        "r-cover"
    );

    let mut json_sweep = String::new();
    let mut json_repair = String::new();
    let mut json_cocktail = String::new();
    let mut total_sound = 0usize;
    let mut total_asked = 0usize;
    let mut total_isolated_exact = 0usize;

    for &seed in &seeds {
        let (scenario, sampled) = runtime_scenario(seed, junctions, objects);
        let queries = scenario.make_queries(regions, 0.06, 2_000.0, seed ^ 0x9E);
        for &frac in &fracs {
            let o = sweep_cell(&scenario, &sampled, frac, seed, &queries);
            total_sound += o.sound + o.rerouted_sound + o.degraded.sound;
            total_asked += o.sound
                + o.misses
                + o.rerouted_sound
                + o.rerouted_misses
                + o.degraded.sound
                + o.degraded.misses;
            println!(
                "{:>6} | {:>5.2} | {:>5} | {:>5} | {:>5} | {:>6.3} | {:>5}/{:<5} | {:>6} | {:>7.3} | {:>4}/{:>4}/{:>4} | {:>7} | {:>7.3}",
                seed,
                frac,
                o.dead,
                o.flagged,
                o.silence_only,
                o.recall,
                o.sound,
                o.queries,
                o.misses,
                o.mean_coverage,
                o.components_before,
                o.components_demoted,
                o.components_rerouted,
                o.rerouted_sound,
                o.rerouted_mean_coverage
            );
            println!(
                "{:>6} | degraded: {}/{} sound, cover {:.3}, \
                 strategies demoted/detour/imputed/learned {}/{}/{}/{}",
                seed,
                o.degraded.sound,
                o.queries,
                o.degraded.mean_coverage,
                o.degraded.strategies[0],
                o.degraded.strategies[1],
                o.degraded.strategies[2],
                o.degraded.strategies[3]
            );
            let _ = write!(
                json_sweep,
                "{}    {{\"seed\": {}, \"dead_frac\": {}, \"dead\": {}, \"flagged\": {}, \
                 \"silence_only\": {}, \"recall\": {:.4}, \"queries\": {}, \"sound\": {}, \
                 \"misses\": {}, \
                 \"infinite_brackets\": {}, \"mean_coverage\": {:.4}, \"mean_width\": {}, \
                 \"components\": {{\"before\": {}, \"demoted\": {}, \"rerouted\": {}}}, \
                 \"rerouted_sound\": {}, \"rerouted_misses\": {}, \
                 \"rerouted_mean_coverage\": {:.4}, \"degraded\": {}}}",
                if json_sweep.is_empty() { "" } else { ",\n" },
                seed,
                frac,
                o.dead,
                o.flagged,
                o.silence_only,
                o.recall,
                o.queries,
                o.sound,
                o.misses,
                o.infinite,
                o.mean_coverage,
                width_json(o.sound - o.infinite, o.mean_width),
                o.components_before,
                o.components_demoted,
                o.components_rerouted,
                o.rerouted_sound,
                o.rerouted_misses,
                o.rerouted_mean_coverage,
                o.degraded.json()
            );
        }

        // Mixed cocktail: the same compound mix served with and without
        // imputation — the delta between the two cells is the measured
        // value of conservation-residual imputation under compound faults.
        for impute in [true, false] {
            let c = cocktail_cell(&scenario, &sampled, seed, &queries, impute);
            total_sound += c.base_sound + c.degraded.sound;
            total_asked += c.base_sound + c.base_misses + c.degraded.sound + c.degraded.misses;
            println!(
                "{seed:>6} | cocktail (impute {}): {} dead + {} skewed + {} flipped \
                 ({} untrusted); base {}/{} cover {:.3}; degraded {}/{} cover {:.3} \
                 strategies {}/{}/{}/{}",
                if impute { "on" } else { "off" },
                c.dead,
                c.skewed,
                c.flipped,
                c.untrusted,
                c.base_sound,
                c.base_sound + c.base_misses,
                c.base_mean_coverage,
                c.degraded.sound,
                c.degraded.sound + c.degraded.misses,
                c.degraded.mean_coverage,
                c.degraded.strategies[0],
                c.degraded.strategies[1],
                c.degraded.strategies[2],
                c.degraded.strategies[3]
            );
            let _ = write!(
                json_cocktail,
                "{}    {{\"seed\": {}, \"impute\": {}, \"dead\": {}, \"skewed\": {}, \
                 \"flipped\": {}, \"untrusted\": {}, \"base\": {{\"sound\": {}, \
                 \"misses\": {}, \"infinite_brackets\": {}, \"mean_coverage\": {:.4}, \
                 \"mean_width\": {}}}, \"degraded\": {}}}",
                if json_cocktail.is_empty() { "" } else { ",\n" },
                seed,
                impute,
                c.dead,
                c.skewed,
                c.flipped,
                c.untrusted,
                c.base_sound,
                c.base_misses,
                c.base_infinite,
                c.base_mean_coverage,
                width_json(c.base_finite, c.base_mean_width),
                c.degraded.json()
            );
        }

        let r = repair_cell(&scenario, &sampled, seed);
        total_isolated_exact += r.isolated_exact;
        println!(
            "{seed:>6} | repair: {} corrupted, {} unflips ({} byte-exact), \
             {} dedups ({} byte-exact), {} quarantined; isolated flips: \
             {}/{} exact, {} quarantined, {} undetected",
            r.corrupted,
            r.unflips,
            r.unflips_exact,
            r.dedups,
            r.dedups_exact,
            r.quarantined,
            r.isolated_exact,
            r.isolated_trials,
            r.isolated_quarantined,
            r.isolated_undetected
        );
        let _ = write!(
            json_repair,
            "{}    {{\"seed\": {}, \"corrupted\": {}, \"unflips\": {}, \"unflips_exact\": {}, \
             \"dedups\": {}, \"dedups_exact\": {}, \"quarantined\": {}, \
             \"isolated_trials\": {}, \"isolated_exact\": {}, \"isolated_quarantined\": {}, \
             \"isolated_undetected\": {}}}",
            if json_repair.is_empty() { "" } else { ",\n" },
            seed,
            r.corrupted,
            r.unflips,
            r.unflips_exact,
            r.dedups,
            r.dedups_exact,
            r.quarantined,
            r.isolated_trials,
            r.isolated_exact,
            r.isolated_quarantined,
            r.isolated_undetected
        );
    }

    assert!(
        total_isolated_exact > 0,
        "across all seeds, at least one isolated flip must be exactly repaired"
    );
    println!(
        "\nsoundness: {total_sound}/{total_asked} non-miss brackets contained the oracle \
         (a single violation aborts the sweep)"
    );

    let json = format!(
        "{{\n  \"bench\": \"sensor_failure_sweep\",\n  \"quick\": {},\n  \"scenario\": \
         {{\"junctions\": {}, \"objects\": {}, \"seeds\": {:?}}},\n  \"soundness\": \
         {{\"sound\": {}, \"asked\": {}}},\n  \"dead_sweep\": [\n{}\n  ],\n  \
         \"mixed_cocktail\": [\n{}\n  ],\n  \"exact_repair\": [\n{}\n  ]\n}}\n",
        quick,
        junctions,
        objects,
        seeds,
        total_sound,
        total_asked,
        json_sweep,
        json_cocktail,
        json_repair
    );
    write_sweep_json(quick, "BENCH_sensors.json", &json);
}
