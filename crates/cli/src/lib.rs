//! # stq-cli
//!
//! Command-line driver for the `stq` framework. The binary is `stq`:
//!
//! ```sh
//! stq generate --junctions 600 --seed 7 --svg city.svg
//! stq simulate --junctions 600 --objects 150 --seed 7
//! stq deploy   --junctions 600 --method quadtree --size 0.1 --svg deploy.svg
//! stq query    --junctions 600 --method quadtree --size 0.1 \
//!              --kind transient --area 0.05 --queries 10
//! ```
//!
//! The command surface is a thin, deterministic wrapper over the library —
//! every run is reproducible from its flags. Argument parsing is hand
//! rolled (the workspace's dependency policy keeps external crates to the
//! approved list).

use std::collections::HashMap;
use std::path::PathBuf;

use stq_core::prelude::*;
use stq_core::repair::{RepairKind, RepairOutcome};
use stq_core::tracker::Crossing;
use stq_forms::{EdgeHealth, Evidence, FormStore};
use stq_mobility::stats::{population_curve, WorkloadStats};
use stq_net::{ChaosConfig, CrashWindow, SensorFaultKind, SensorFaultMix, SensorFaultPlan};
use stq_runtime::{
    DurabilityConfig, OverloadConfig, QuerySpec, RebalanceConfig, Runtime, RuntimeConfig,
    SubscribeError, SubscriptionHandle,
};
use stq_sampling::SamplingMethod;

/// Parsed command-line arguments: a subcommand plus `--key value` flags.
#[derive(Clone, Debug)]
pub struct Args {
    /// The subcommand name (`generate`, `simulate`, `deploy`, `query`).
    pub command: String,
    flags: HashMap<String, String>,
}

/// CLI errors (bad flags, unknown commands, I/O).
#[derive(Debug)]
pub enum CliError {
    /// Bad flags or an unknown command; the message is user-facing.
    Usage(String),
    /// Filesystem failure while writing an output artifact.
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, CliError> {
        let mut it = argv.into_iter();
        let command = it.next().ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
        let mut flags = HashMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got {key}")))?
                .to_string();
            let value =
                it.next().ok_or_else(|| CliError::Usage(format!("flag --{key} needs a value")))?;
            if flags.insert(key.clone(), value).is_some() {
                // A repeated flag is never what the user meant: either a
                // typo or two conflicting values, and silently letting the
                // last one win makes the run unreproducible from memory.
                return Err(CliError::Usage(format!("duplicate flag --{key}")));
            }
        }
        Ok(Args { command, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError::Usage(format!("invalid value for --{key}: {v}")))
            }
        }
    }

    fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("invalid value for --{key}: {v}"))),
        }
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
stq — in-network spatiotemporal range queries (EDBT 2024 reproduction)

USAGE: stq <command> [--flag value]...

COMMANDS:
  generate   build a synthetic city            [--junctions N --seed S --svg FILE]
  simulate   build city + workload, print stats[--junctions N --objects K --seed S]
  deploy     select sensors, build G̃           [--method M --size F --knn K --svg FILE]
  query      answer range count queries        [--kind snapshot|static|transient
                                                --area F --queries N --learned MODEL]
  serve      run the sharded serving runtime   [--shards N --dispatchers N --queries N
                                                --drop P --delay P --dup P --delay-ms MS
                                                --crash SHARD --retries N --timeout-ms MS
                                                --chaos-seed S + sensor-fault flags
                                                --wal-dir DIR --snapshot-every N
                                                --sync-every N --ingest N --kill SHARD:SEQ
                                                --subscribe N --subscribe-area F
                                                --impute 0|1 --overload 0|1
                                                --deadline-ms MS --rebalance 0|1
                                                --batch N]
  recover    rebuild shard state from disk     [--wal-dir DIR --snapshot-every N
                                                --sync-every N + deployment flags]
  audit      corrupt sensors, audit + repair   [--dead F --lossy F --dup-sensors F
                                                --flip F --skew F --chaos-seed S]
common flags: --junctions N (600) --objects K (120) --seed S (2024)
chaos: one root seed drives message, sensor, and durability faults;
  --chaos-seed S is canonical, --fault-seed S is the legacy alias, and
  conflicting or repeated seed flags are rejected
sensor-fault flags (fractions of monitored links): --dead F --lossy F
  --dup-sensors F --flip F --skew F; serve quarantines what the audit flags
  --impute 1 answers through quarantine via detours, conservation-residual
  imputation and learned fallback instead of worst-case widening
methods: uniform|systematic|stratified|kdtree|quadtree";

/// Parses `--<flag>` as a fraction in `[0, 1]` (`default` when absent).
fn fraction(args: &Args, flag: &str, default: f64) -> Result<f64, CliError> {
    let p: f64 = args.get(flag, default)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::Usage(format!("--{flag} must be in [0, 1]")));
    }
    Ok(p)
}

fn scenario_from(args: &Args) -> Result<Scenario, CliError> {
    let junctions: usize = args.get("junctions", 600)?;
    if junctions < 4 {
        return Err(CliError::Usage("--junctions must be at least 4".into()));
    }
    let objects: usize = args.get("objects", 120)?;
    let seed: u64 = args.get("seed", 2024)?;
    Ok(Scenario::build(ScenarioConfig {
        junctions,
        mix: WorkloadMix {
            random_waypoint: objects / 3,
            commuter: objects / 3,
            transit: objects - 2 * (objects / 3),
        },
        seed,
        ..Default::default()
    }))
}

fn method_from(args: &Args) -> Result<SamplingMethod, CliError> {
    match args.get_str("method").unwrap_or("quadtree") {
        "uniform" => Ok(SamplingMethod::Uniform),
        "systematic" => Ok(SamplingMethod::Systematic),
        "stratified" => Ok(SamplingMethod::Stratified),
        "kdtree" => Ok(SamplingMethod::KdTree),
        "quadtree" => Ok(SamplingMethod::QuadTree),
        other => Err(CliError::Usage(format!("unknown sampling method: {other}"))),
    }
}

fn deployment_from(args: &Args, s: &Scenario) -> Result<SampledGraph, CliError> {
    let size = fraction(args, "size", 0.1)?;
    let seed: u64 = args.get("seed", 2024)?;
    let cands = s.sensing.sensor_candidates();
    if cands.len() < 3 {
        return Err(CliError::Usage(format!(
            "a deployment needs at least 3 sensor candidates; this city has {} \
             (raise --junctions)",
            cands.len()
        )));
    }
    let m = ((cands.len() as f64 * size).round() as usize).clamp(3, cands.len());
    let ids = stq_sampling::sample(method_from(args)?, &cands, m, seed ^ 0x5a);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let conn = match args.get::<usize>("knn", 0)? {
        0 => Connectivity::Triangulation,
        k => Connectivity::Knn(k),
    };
    Ok(SampledGraph::from_sensors(&s.sensing, &faces, conn))
}

/// Parses the sensor-fault mix flags (fractions of monitored links).
fn sensor_mix_from(args: &Args) -> Result<SensorFaultMix, CliError> {
    let mix = SensorFaultMix {
        dead: fraction(args, "dead", 0.0)?,
        lossy: fraction(args, "lossy", 0.0)?,
        duplicating: fraction(args, "dup-sensors", 0.0)?,
        flipped: fraction(args, "flip", 0.0)?,
        skewed: fraction(args, "skew", 0.0)?,
    };
    if mix.total() > 1.0 {
        return Err(CliError::Usage("sensor-fault fractions must sum to ≤ 1".into()));
    }
    Ok(mix)
}

/// Builds the unified chaos configuration from the fault flags. One root
/// seed drives every plan: `--chaos-seed` is the canonical flag, the legacy
/// `--fault-seed` still works, and giving both (or either twice) with
/// different values is rejected instead of letting one silently win.
fn chaos_from(args: &Args, default_seed: u64) -> Result<ChaosConfig, CliError> {
    let drop_p = fraction(args, "drop", 0.0)?;
    let delay_p = fraction(args, "delay", 0.0)?;
    let dup_p = fraction(args, "dup", 0.0)?;
    let delay_ms: u64 = args.get("delay-ms", 2)?;
    let mut b = ChaosConfig::builder()
        .message_loss(drop_p, delay_p, dup_p, delay_ms)
        .sensor_mix(sensor_mix_from(args)?);
    if let Some(shard) = args.get_str("crash") {
        let node: usize = shard
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid --crash shard: {shard}")))?;
        b = b.crash_window(CrashWindow { node, after_messages: 0, lasts_messages: u64::MAX });
    }
    if let Some(kill) = args.get_str("kill") {
        let (shard, seq) = kill
            .split_once(':')
            .and_then(|(s, q)| Some((s.parse().ok()?, q.parse().ok()?)))
            .ok_or_else(|| {
                CliError::Usage(format!("invalid --kill (want SHARD:SEQ, got {kill})"))
            })?;
        b = b.ingest_crash(shard, seq);
    }
    let mut seeded = false;
    for key in ["chaos-seed", "fault-seed"] {
        if let Some(v) = args.get_opt::<u64>(key)? {
            b = b.seed(v);
            seeded = true;
        }
    }
    if !seeded {
        b = b.seed(default_seed);
    }
    b.build().map_err(|e| CliError::Usage(e.to_string()))
}

/// Corrupts ingestion per the chaos config's sensor mix, then audits and
/// repairs. Returns the fault schedule, the (repaired) tracked data and the
/// repair outcome.
fn faulty_pipeline(
    s: &Scenario,
    g: &SampledGraph,
    chaos: &ChaosConfig,
) -> (SensorFaultPlan, Tracked, RepairOutcome) {
    let horizon = (0.0, s.config.trajectory.duration);
    let monitored: Vec<usize> = (0..s.sensing.num_edges()).filter(|&e| g.monitored()[e]).collect();
    let plan = chaos.sensor_plan(&monitored, horizon);
    let mut tracked = ingest_with_faults(&s.sensing, &s.trajectories, &plan);
    let outcome =
        quarantine_and_repair(&s.sensing, g, &mut tracked.store, horizon, &RepairConfig::default());
    (plan, tracked, outcome)
}

fn health_label(h: EdgeHealth) -> &'static str {
    match h {
        EdgeHealth::Healthy => "healthy",
        EdgeHealth::Suspect => "suspect",
        EdgeHealth::Dead => "dead",
    }
}

fn evidence_label(e: &Evidence) -> &'static str {
    match e {
        Evidence::NonMonotone { .. } => "non-monotone",
        Evidence::DuplicateTimestamps { .. } => "dup-timestamps",
        Evidence::Conservation { .. } => "conservation",
        Evidence::SilentGap { .. } => "silent-gap",
        Evidence::SilentSibling { .. } => "silent-sibling",
    }
}

/// Parses `--kind` into the constructor that turns a query's `(t0, t1)`
/// window into its [`QueryKind`]. Subcommands call it before doing any
/// work, so a bad kind fails before a city is built or an event ingested.
fn kind_from(args: &Args) -> Result<fn(f64, f64) -> QueryKind, CliError> {
    let make: fn(f64, f64) -> QueryKind = match args.get_str("kind").unwrap_or("snapshot") {
        "snapshot" => |t0, _| QueryKind::Snapshot(t0),
        "static" => QueryKind::Static,
        "transient" => QueryKind::Transient,
        other => return Err(CliError::Usage(format!("unknown query kind: {other}"))),
    };
    Ok(make)
}

/// Parses `--snapshot-every` and `--sync-every` (65 536 and 32 events when
/// absent). A cadence of 0 events is refused: it has no meaning to clamp.
fn cadences_from(args: &Args) -> Result<(u64, u64), CliError> {
    let snapshot_every: u64 = args.get("snapshot-every", 65_536)?;
    let sync_every: u64 = args.get("sync-every", 32)?;
    if snapshot_every == 0 || sync_every == 0 {
        return Err(CliError::Usage("--snapshot-every and --sync-every must be at least 1".into()));
    }
    Ok((snapshot_every, sync_every))
}

/// Parses an opt-in `--<flag> 0|1` switch (off when absent).
fn switch_from(args: &Args, flag: &str) -> Result<bool, CliError> {
    match args.get::<u8>(flag, 0)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CliError::Usage(format!("--{flag} must be 0 or 1"))),
    }
}

/// Runs one command, writing human-readable output into `out`.
pub fn run(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => generate(args, out),
        "simulate" => simulate(args, out),
        "deploy" => deploy(args, out),
        "query" => query(args, out),
        "serve" => serve(args, out),
        "audit" => audit(args, out),
        "recover" => recover(args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command: {other}\n\n{USAGE}"))),
    }
}

fn generate(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let s = scenario_from(args)?;
    writeln!(
        out,
        "city: {} junctions, {} roads, {} sensors, {} gates",
        s.sensing.road().num_junctions(),
        s.sensing.num_edges(),
        s.sensing.num_sensors(),
        s.sensing.road().gate_junctions().len()
    )?;
    if let Some(path) = args.get_str("svg") {
        std::fs::write(path, Scene::new(&s.sensing).to_svg())?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn simulate(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let s = scenario_from(args)?;
    let stats = WorkloadStats::compute(s.sensing.road(), &s.trajectories);
    writeln!(out, "objects: {}  crossings: {}", stats.objects, s.tracked.num_crossings)?;
    writeln!(
        out,
        "distance: {:.0}  exited: {}  edge-load gini: {:.3}",
        stats.total_distance,
        stats.exited,
        stats.edge_load_gini()
    )?;
    let curve =
        population_curve(s.sensing.road(), &s.trajectories, 9, s.config.trajectory.duration);
    write!(out, "population: ")?;
    for (t, p) in curve {
        write!(out, "{p}@{t:.0} ")?;
    }
    writeln!(out)?;
    Ok(())
}

fn deploy(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let s = scenario_from(args)?;
    let g = deployment_from(args, &s)?;
    let topo = AbstractTopology::build(&s.sensing, &g);
    writeln!(
        out,
        "deployment: {} communication sensors ({:.1}%), {} monitored links ({:.1}%)",
        g.sensors().len(),
        100.0 * g.size_fraction(&s.sensing),
        g.num_monitored_edges(),
        100.0 * g.num_monitored_edges() as f64 / s.sensing.num_edges() as f64
    )?;
    writeln!(
        out,
        "abstract topology: {} nodes, {} chains, mean {:.1} hops/chain",
        topo.nodes.len(),
        topo.chains.len(),
        topo.mean_chain_hops()
    )?;
    if let Some(path) = args.get_str("svg") {
        std::fs::write(path, Scene::new(&s.sensing).with_sampled(&s.sensing, &g).to_svg())?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn query(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let kind_of = kind_from(args)?;
    let area = fraction(args, "area", 0.05)?;
    let s = scenario_from(args)?;
    let g = deployment_from(args, &s)?;
    let n: usize = args.get("queries", 5)?;
    let seed: u64 = args.get("seed", 2024)?;
    let learned = match args.get_str("learned") {
        Some("linear") => Some(stq_learned::RegressorKind::Linear),
        Some("pwl") => Some(stq_learned::RegressorKind::PiecewiseLinear(16)),
        Some("step") => Some(stq_learned::RegressorKind::Step(16)),
        Some(other) => return Err(CliError::Usage(format!("unknown model: {other}"))),
        None => None,
    };
    let store: Box<dyn stq_forms::CountSource> = match learned {
        Some(kind) => Box::new(LearnedStore::fit(&s.tracked.store, Some(g.monitored()), kind)),
        None => Box::new(s.tracked.store.clone()),
    };
    writeln!(
        out,
        "{:>3} | {:>10} | {:>10} | {:>8} | {:>6}",
        "#", "exact η", "answer η̂", "rel.err", "nodes"
    )?;
    for (i, (q, t0, t1)) in s.make_queries(n, area, 2_000.0, seed ^ 0x7).iter().enumerate() {
        let kind = kind_of(*t0, *t1);
        let truth = ground_truth(&s.sensing, &s.tracked.store, q, kind);
        let est = answer(&s.sensing, &g, store.as_ref(), q, kind, Approximation::Lower);
        let err = relative_error(truth, est.value)
            .map(|e| format!("{:.1}%", e * 100.0))
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{i:>3} | {truth:>10.1} | {:>10.1} | {err:>8} | {:>6}{}",
            est.value,
            est.nodes_accessed,
            if est.miss { "  MISS" } else { "" }
        )?;
    }
    Ok(())
}

/// The validated flags of one `serve` run: everything that can be refused
/// is refused while building this, before the city exists.
struct ServeOpts {
    area: f64,
    queries: usize,
    seed: u64,
    kind_of: fn(f64, f64) -> QueryKind,
    chaos: ChaosConfig,
    ingest: usize,
    batch: Option<usize>,
    subscribe: Option<usize>,
    subscribe_area: f64,
    /// `--impute`, `--overload` and `--rebalance` live here, as the
    /// `degraded`, `overload` and `rebalance` sections they switch on.
    cfg: RuntimeConfig,
}

impl ServeOpts {
    fn from_args(args: &Args) -> Result<Self, CliError> {
        let area = fraction(args, "area", 0.05)?;
        let queries: usize = args.get("queries", 8)?;
        let seed: u64 = args.get("seed", 2024)?;
        let kind_of = kind_from(args)?;
        let chaos = chaos_from(args, seed)?;
        let shards: usize = args.get("shards", 4)?;
        let dispatchers: usize = args.get("dispatchers", 2)?;
        if shards == 0 || dispatchers == 0 {
            return Err(CliError::Usage("--shards and --dispatchers must be at least 1".into()));
        }
        let (snapshot_every, sync_every) = cadences_from(args)?;
        let wal_dir = args.get_str("wal-dir");
        let ingest: usize = args.get("ingest", 0)?;
        // Standing subscriptions: `--subscribe N` registers N regions
        // before ingestion so the stream moves their brackets by count
        // deltas.
        let subscribe = args.get_opt::<usize>("subscribe")?;
        // Overload control is opt-in: `--overload 1` turns on the
        // admission gate (queries then go through `try_submit` and can
        // come back REJECTED), brownout shedding, and circuit breakers;
        // `--deadline-ms` stamps a default budget on every query.
        let overload = switch_from(args, "overload")?;
        // A modifier without its anchor is a refusal, not a silent no-op.
        for (flag, anchored, anchor) in [
            ("kill", wal_dir.is_some(), "--wal-dir"),
            ("snapshot-every", wal_dir.is_some(), "--wal-dir"),
            ("sync-every", wal_dir.is_some(), "--wal-dir"),
            ("subscribe-area", subscribe.is_some(), "--subscribe"),
            ("deadline-ms", overload, "--overload 1"),
            ("batch", ingest > 0, "--ingest"),
        ] {
            if !anchored && args.get_str(flag).is_some() {
                return Err(CliError::Usage(format!("--{flag} needs {anchor}")));
            }
        }
        if subscribe == Some(0) {
            return Err(CliError::Usage(
                "--subscribe must register at least one standing query".into(),
            ));
        }
        let subscribe_area = fraction(args, "subscribe-area", area)?;
        // Degraded-mode answering is opt-in: it trades the default
        // worst-case widening on quarantined boundaries for detour /
        // imputation / learned-fallback answers with honest brackets.
        let impute = switch_from(args, "impute")?;
        if impute && chaos.sensor_mix.total() == 0.0 {
            return Err(CliError::Usage(
                "--impute answers through quarantine and needs sensor-fault flags".into(),
            ));
        }
        let deadline_ms = args.get_opt::<u64>("deadline-ms")?;
        if deadline_ms == Some(0) {
            return Err(CliError::Usage("--deadline-ms must be at least 1".into()));
        }
        // Load-aware shard rebalancing is opt-in: with `--rebalance 1` the
        // edge→shard map migrates hot edges between shards as crossing
        // rates skew instead of keeping the static modulo assignment.
        // `--batch N` streams ingestion in calls of N events (one WAL frame
        // per shard lane) instead of one event a call.
        let rebalance = switch_from(args, "rebalance")?;
        let batch = args.get_opt::<usize>("batch")?;
        if batch == Some(0) {
            return Err(CliError::Usage("--batch must be at least 1".into()));
        }
        let durability = wal_dir.map(|dir| DurabilityConfig {
            wal_dir: PathBuf::from(dir),
            snapshot_every,
            sync_every,
            faults: chaos.durability.clone(),
        });
        let cfg = RuntimeConfig {
            num_shards: shards,
            dispatchers,
            shard_timeout: std::time::Duration::from_millis(args.get("timeout-ms", 20)?),
            max_retries: args.get("retries", 2)?,
            fault: chaos.message.clone(),
            durability,
            degraded: impute.then(DegradedPolicy::default),
            overload: overload.then(|| OverloadConfig {
                default_deadline: deadline_ms.map(std::time::Duration::from_millis),
                ..OverloadConfig::default()
            }),
            rebalance: rebalance.then(RebalanceConfig::default),
            ..RuntimeConfig::default()
        };
        Ok(ServeOpts {
            area,
            queries,
            seed,
            kind_of,
            chaos,
            ingest,
            batch,
            subscribe,
            subscribe_area,
            cfg,
        })
    }
}

fn serve(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let opts = ServeOpts::from_args(args)?;
    let s = scenario_from(args)?;
    let g = deployment_from(args, &s)?;
    let rt = start_runtime(&opts, &s, &g, out)?;
    // Standing queries register before ingestion: their baselines
    // snapshot the pre-stream state and every streamed crossing on a
    // subscribed boundary then arrives as a bracket delta.
    let handles = subscribe_standing(&opts, &s, &rt, out)?;
    if opts.ingest > 0 {
        stream_ingest(&opts, &s, &g, &rt, out)?;
    }
    if !handles.is_empty() {
        write_standing_table(&rt, &handles, out)?;
    }
    write_answer_table(&opts, &s, &rt, out)?;
    writeln!(out, "{}", rt.metrics().report())?;
    rt.shutdown();
    Ok(())
}

/// Builds the runtime `opts` describes. Sensor faults: corrupt ingestion,
/// audit + repair, then serve the repaired store with the quarantined edges
/// blocked at the shards (audit verdicts gate serving).
fn start_runtime(
    opts: &ServeOpts,
    s: &Scenario,
    g: &SampledGraph,
    out: &mut impl std::io::Write,
) -> Result<Runtime, CliError> {
    let cfg = opts.cfg.clone();
    if opts.chaos.sensor_mix.total() == 0.0 {
        return Ok(Runtime::new(s.sensing.clone(), g.clone(), &s.tracked.store, cfg));
    }
    let (plan, tracked, outcome) = faulty_pipeline(s, g, &opts.chaos);
    writeln!(
        out,
        "sensor faults: {} corrupted links, {} repaired, {} quarantined",
        plan.corrupted_edges().len(),
        outcome.repaired.len(),
        outcome.quarantined.len()
    )?;
    Ok(Runtime::with_quarantine(
        s.sensing.clone(),
        g.clone(),
        &tracked.store,
        cfg,
        &outcome.quarantined,
    ))
}

/// Registers the `--subscribe N` standing regions (none without the flag).
fn subscribe_standing(
    opts: &ServeOpts,
    s: &Scenario,
    rt: &Runtime,
    out: &mut impl std::io::Write,
) -> Result<Vec<SubscriptionHandle>, CliError> {
    let mut handles = Vec::new();
    let Some(nsub) = opts.subscribe else {
        return Ok(handles);
    };
    let mut unresolvable = 0usize;
    for (region, _, _) in s.make_queries(nsub, opts.subscribe_area, 2_000.0, opts.seed ^ 0x51) {
        match rt.subscribe(region, Approximation::Lower) {
            Ok(h) => handles.push(h),
            Err(SubscribeError::Unresolvable) => unresolvable += 1,
        }
    }
    writeln!(
        out,
        "standing: registered {} subscriptions ({unresolvable} unresolvable)",
        handles.len()
    )?;
    // Imputation can certify flow intervals on quarantined links before
    // any live event arrives, tightening every standing bracket at once
    // (still containing the truth).
    if opts.cfg.degraded.is_some() && !handles.is_empty() {
        let certified = rt.certify_standing_brackets(1.0e12);
        if certified > 0 {
            writeln!(out, "standing: imputation certified {certified} quarantined links")?;
        }
    }
    Ok(handles)
}

/// Live ingestion: stream synthetic post-horizon crossings over the
/// monitored links, WAL-logging each when --wal-dir is set (and firing any
/// scheduled --kill, which the supervisor must survive). The flush barrier
/// lines every shard up before queries are served.
fn stream_ingest(
    opts: &ServeOpts,
    s: &Scenario,
    g: &SampledGraph,
    rt: &Runtime,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let ingest_n = opts.ingest;
    let monitored: Vec<usize> = (0..s.sensing.num_edges()).filter(|&e| g.monitored()[e]).collect();
    if monitored.is_empty() {
        return Err(CliError::Usage("--ingest needs monitored links".into()));
    }
    let t0 = s.config.trajectory.duration;
    let events: Vec<Crossing> = (0..ingest_n)
        .map(|i| Crossing {
            time: t0 + 1.0 + i as f64 * 0.1,
            edge: monitored[i % monitored.len()],
            forward: i % 2 == 0,
        })
        .collect();
    // Without `--batch`, every event is a call of its own.
    for chunk in events.chunks(opts.batch.unwrap_or(1)) {
        let report = rt.ingest_batch(chunk);
        debug_assert_eq!(report.rejected, 0);
    }
    let applied = rt.flush_ingest();
    writeln!(out, "ingested {ingest_n} crossings (per-shard applied: {applied:?})")?;
    if opts.cfg.rebalance.is_some() {
        writeln!(
            out,
            "rebalance: map epoch {}, shard loads {:?}",
            rt.map_epoch(),
            rt.shard_loads()
        )?;
    }
    Ok(())
}

fn write_standing_table(
    rt: &Runtime,
    handles: &[SubscriptionHandle],
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{:>7} | {:>10} | {:>10} | {:>10} | {:>6} | {:>5}",
        "sub", "value", "lower", "upper", "deltas", "epoch"
    )?;
    for h in handles {
        let b = rt.standing_bracket(h.id).expect("subscription is live");
        writeln!(
            out,
            "{:>7} | {:>10.1} | {:>10.1} | {:>10.1} | {:>6} | {:>5}{}",
            h.id,
            b.value,
            b.lower,
            b.upper,
            b.deltas,
            b.epoch,
            if b.is_exact() { "" } else { "  WIDENED" }
        )?;
    }
    Ok(())
}

/// Serves the `--queries N` one-shot queries and prints one row each.
fn write_answer_table(
    opts: &ServeOpts,
    s: &Scenario,
    rt: &Runtime,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let specs: Vec<QuerySpec> = s
        .make_queries(opts.queries, opts.area, 2_000.0, opts.seed ^ 0x7)
        .into_iter()
        .map(|(region, t0, t1)| {
            QuerySpec::new(region, (opts.kind_of)(t0, t1), Approximation::Lower)
        })
        .collect();
    writeln!(
        out,
        "{:>3} | {:>10} | {:>10} | {:>10} | {:>6} | {:>5} | {:>8}",
        "#", "answer η̂", "lower", "upper", "cover", "retry", "µs"
    )?;
    // Submit everything first so the queue and shard pool actually run
    // concurrently, then collect in submission order. With overload
    // control on, the admission gate may refuse some submissions outright
    // — those print as REJECTED rows.
    let gated = opts.cfg.overload.is_some();
    let pending: Vec<_> = specs
        .into_iter()
        .map(|spec| if gated { rt.try_submit(spec) } else { Ok(rt.submit(spec)) })
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let a = match p {
            Ok(pending) => pending.wait(),
            Err(rej) => {
                writeln!(
                    out,
                    "{i:>3} | {:>10} (retry after {} ms)",
                    "REJECTED",
                    rej.retry_after.as_millis()
                )?;
                continue;
            }
        };
        // Degraded strategies print which rung of the escalation answered
        // (and how much structural coverage certified it); classic
        // worst-case degradation keeps the bare tag.
        let tag = if a.miss {
            "  MISS".to_string()
        } else if a.expired {
            "  EXPIRED".to_string()
        } else if a.strategy != DegradedStrategy::None {
            format!("  {} conf {:.2}", a.strategy.label().to_uppercase(), a.confidence)
        } else if a.quarantined > 0 {
            "  QUARANTINED".to_string()
        } else if a.brownout > 0 {
            format!("  BROWNOUT L{}", a.brownout)
        } else if a.degraded {
            "  DEGRADED".to_string()
        } else {
            String::new()
        };
        writeln!(
            out,
            "{i:>3} | {:>10.1} | {:>10.1} | {:>10.1} | {:>6.2} | {:>5} | {:>8}{tag}",
            a.value,
            a.lower,
            a.upper,
            a.coverage,
            a.retries,
            a.latency.as_micros(),
        )?;
    }
    Ok(())
}

fn audit(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let s = scenario_from(args)?;
    let g = deployment_from(args, &s)?;
    let chaos = chaos_from(args, args.get("seed", 2024)?)?;
    let (plan, _tracked, outcome) = faulty_pipeline(&s, &g, &chaos);
    writeln!(
        out,
        "injected: {} corrupted of {} monitored links (seed {})",
        plan.corrupted_edges().len(),
        g.num_monitored_edges(),
        chaos.seed
    )?;
    for kind in SensorFaultKind::ALL {
        let n = plan.edges_of(kind).len();
        if n > 0 {
            writeln!(out, "  {:<12} {n}", kind.label())?;
        }
    }
    writeln!(
        out,
        "{:>6} | {:>8} | {:>5} | {:>11} | evidence",
        "edge", "health", "conf", "outcome"
    )?;
    for e in outcome.initial.flagged() {
        let v = outcome.initial.verdict(e).expect("flagged edge has a verdict");
        let fate = if outcome.repaired.iter().any(|r| r.edge == e) {
            "repaired"
        } else if outcome.quarantined.contains(&e) {
            "quarantined"
        } else {
            "cleared"
        };
        let kinds: Vec<&str> = v.evidence.iter().map(evidence_label).collect();
        writeln!(
            out,
            "{e:>6} | {:>8} | {:>5.2} | {fate:>11} | {}",
            health_label(v.health),
            v.confidence,
            kinds.join(", ")
        )?;
    }
    let unflips = outcome.repaired.iter().filter(|r| r.kind == RepairKind::Unflip).count();
    let dedups = outcome.repaired.iter().filter(|r| r.kind == RepairKind::Dedup).count();
    writeln!(
        out,
        "audit: {} flagged, {} repaired ({unflips} unflip, {dedups} dedup), {} quarantined",
        outcome.initial.flagged().len(),
        outcome.repaired.len(),
        outcome.quarantined.len()
    )?;
    writeln!(
        out,
        "granularity: {} → {} components after demotion",
        g.components().len(),
        outcome.graph.components().len()
    )?;
    Ok(())
}

/// Offline crash recovery: rebuild every shard's state from its snapshot +
/// WAL, report torn tails, reassemble the store, and run the integrity audit
/// over it — the same audit → quarantine path the live supervisor hands
/// unexplained gaps to.
fn recover(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let dir =
        args.get_str("wal-dir").ok_or_else(|| CliError::Usage("recover needs --wal-dir".into()))?;
    let (snapshot_every, sync_every) = cadences_from(args)?;
    let s = scenario_from(args)?;
    let g = deployment_from(args, &s)?;
    let root = PathBuf::from(dir);
    let mut shards: Vec<usize> = std::fs::read_dir(&root)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str()?.strip_prefix("shard-")?.parse::<usize>().ok())
        .collect();
    shards.sort_unstable();
    if shards.is_empty() {
        return Err(CliError::Usage(format!("no shard-<i> directories under {dir}")));
    }
    writeln!(
        out,
        "{:>5} | {:>9} | {:>8} | {:>9} | {:>6} | {:>9}",
        "shard", "snap seq", "wal recs", "recovered", "tail", "discarded"
    )?;
    let mut store = FormStore::new(s.sensing.num_edges());
    let mut torn = 0usize;
    for &i in &shards {
        let rec = stq_durability::recover_shard(&root, i, snapshot_every, sync_every)?;
        let r = &rec.report;
        writeln!(
            out,
            "{i:>5} | {:>9} | {:>8} | {:>9} | {:>6} | {:>9}",
            r.snapshot_seq,
            r.wal_records,
            r.recovered_seq,
            if r.torn_tail { "TORN" } else { "clean" },
            r.discarded_bytes
        )?;
        torn += usize::from(r.torn_tail);
        for (e, form) in rec.forms {
            if e >= store.num_edges() {
                return Err(CliError::Usage(format!(
                    "recovered edge {e} exceeds the city's {} edges — pass the same \
                     --junctions/--seed the serving run used",
                    store.num_edges()
                )));
            }
            store.set_form(e, form);
        }
    }
    writeln!(
        out,
        "recovered {} shards ({torn} torn tails), {} events total",
        shards.len(),
        store.total_events()
    )?;
    let horizon = (0.0, s.config.trajectory.duration);
    let outcome =
        quarantine_and_repair(&s.sensing, &g, &mut store, horizon, &RepairConfig::default());
    writeln!(
        out,
        "audit: {} flagged, {} repaired, {} quarantined",
        outcome.initial.flagged().len(),
        outcome.repaired.len(),
        outcome.quarantined.len()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(argv: &[&str]) -> String {
        let args = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn parse_flags() {
        let a =
            Args::parse(["query", "--area", "0.1", "--kind", "static"].map(String::from)).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.get::<f64>("area", 0.0).unwrap(), 0.1);
        assert_eq!(a.get_str("kind"), Some("static"));
        assert_eq!(a.get::<usize>("missing", 9).unwrap(), 9);
    }

    #[test]
    fn parse_errors() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["x", "notaflag"].map(String::from)).is_err());
        assert!(Args::parse(["x", "--flag"].map(String::from)).is_err());
        let a = Args::parse(["x", "--n", "abc"].map(String::from)).unwrap();
        assert!(a.get::<usize>("n", 0).is_err());
    }

    #[test]
    fn generate_reports_city() {
        let out = run_cmd(&["generate", "--junctions", "120", "--seed", "3"]);
        assert!(out.contains("120 junctions"));
        assert!(out.contains("sensors"));
    }

    #[test]
    fn simulate_reports_workload() {
        let out = run_cmd(&["simulate", "--junctions", "100", "--objects", "12", "--seed", "5"]);
        assert!(out.contains("objects: 12"));
        assert!(out.contains("gini"));
        assert!(out.contains("population:"));
    }

    #[test]
    fn deploy_reports_topology() {
        let out = run_cmd(&[
            "deploy",
            "--junctions",
            "100",
            "--objects",
            "6",
            "--method",
            "uniform",
            "--size",
            "0.15",
        ]);
        assert!(out.contains("communication sensors"));
        assert!(out.contains("abstract topology"));
    }

    #[test]
    fn query_outputs_table() {
        let out = run_cmd(&[
            "query",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--kind",
            "transient",
            "--queries",
            "3",
        ]);
        assert!(out.contains("rel.err"));
        assert_eq!(out.lines().count(), 4); // header + 3 rows
    }

    #[test]
    fn query_with_learned_store() {
        let out = run_cmd(&[
            "query",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--learned",
            "pwl",
            "--queries",
            "2",
        ]);
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn serve_outputs_answers_and_metrics() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--kind",
            "transient",
            "--queries",
            "4",
            "--shards",
            "3",
        ]);
        assert!(out.contains("cover"));
        assert!(out.contains("queries 4"));
        assert!(out.contains("latency p50"));
        assert!(!out.contains("DEGRADED"), "fault-free serving must not degrade:\n{out}");
    }

    #[test]
    fn serve_with_crashed_shard_reports_degradation() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--queries",
            "4",
            "--shards",
            "2",
            "--crash",
            "0",
            "--timeout-ms",
            "2",
            "--retries",
            "1",
        ]);
        assert!(out.contains("DEGRADED") || out.contains("MISS"), "shard 0 is down:\n{out}");
        assert!(out.contains("crashed"));
    }

    #[test]
    fn audit_reports_verdicts_and_repairs() {
        let out = run_cmd(&[
            "audit",
            "--junctions",
            "120",
            "--objects",
            "24",
            "--size",
            "0.3",
            "--dead",
            "0.15",
            "--flip",
            "0.1",
            "--fault-seed",
            "9",
        ]);
        assert!(out.contains("injected:"), "{out}");
        assert!(out.contains("audit:"), "{out}");
        assert!(out.contains("flagged"), "{out}");
        assert!(out.contains("granularity:"), "{out}");
    }

    #[test]
    fn audit_clean_sensors_flag_little() {
        let out = run_cmd(&["audit", "--junctions", "100", "--objects", "20", "--size", "0.3"]);
        assert!(out.contains("injected: 0 corrupted"), "{out}");
    }

    #[test]
    fn serve_with_sensor_faults_quarantines() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--queries",
            "4",
            "--shards",
            "2",
            "--dead",
            "0.2",
            "--fault-seed",
            "5",
        ]);
        assert!(out.contains("sensor faults:"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
    }

    #[test]
    fn serve_with_impute_reports_degraded_strategies() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--queries",
            "8",
            "--area",
            "0.15",
            "--shards",
            "2",
            "--dead",
            "0.25",
            "--fault-seed",
            "5",
            "--impute",
            "1",
            "--subscribe",
            "4",
        ]);
        assert!(out.contains("sensor faults:"), "{out}");
        assert!(out.contains("degraded-mode:"), "metrics must report strategies:\n{out}");
        assert!(out.contains("quarantined edges"), "{out}");
    }

    #[test]
    fn serve_impute_needs_sensor_faults() {
        let args = Args::parse(["serve", "--impute", "1"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).expect_err("--impute without faults is a refusal");
        assert!(err.to_string().contains("sensor-fault"), "{err}");
        let args = Args::parse(["serve", "--impute", "2", "--dead", "0.1"].map(String::from));
        assert!(run(&args.unwrap(), &mut Vec::new()).is_err(), "--impute takes 0|1");
    }

    #[test]
    fn serve_with_overload_control_serves_and_reports() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--queries",
            "4",
            "--shards",
            "2",
            "--overload",
            "1",
            "--deadline-ms",
            "5000",
        ]);
        // A generous budget on an unloaded runtime: everything serves at
        // full precision and the overload counters all stay at zero.
        assert!(out.contains("overload:"), "report must carry the overload line:\n{out}");
        assert!(out.contains("breakers:"), "report must carry the breaker line:\n{out}");
        assert!(!out.contains("EXPIRED"), "nothing expires under a 5 s budget:\n{out}");
        assert!(!out.contains("REJECTED"), "4 queries cannot fill the default gate:\n{out}");
    }

    #[test]
    fn serve_overload_flag_validation() {
        let args = Args::parse(["serve", "--deadline-ms", "100"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).expect_err("--deadline-ms needs --overload 1");
        assert!(err.to_string().contains("--overload"), "{err}");
        let args = Args::parse(["serve", "--overload", "2"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err(), "--overload takes 0|1");
        let args =
            Args::parse(["serve", "--overload", "1", "--deadline-ms", "0"].map(String::from))
                .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err(), "a zero budget is a refusal");
    }

    #[test]
    fn serve_with_batched_ingest_and_rebalance_reports() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--queries",
            "4",
            "--shards",
            "2",
            "--ingest",
            "300",
            "--batch",
            "64",
            "--rebalance",
            "1",
        ]);
        assert!(out.contains("ingested 300 crossings"), "{out}");
        assert!(out.contains("rebalance: map epoch"), "report must carry the map line:\n{out}");
    }

    #[test]
    fn serve_rebalance_and_batch_flag_validation() {
        let args = Args::parse(["serve", "--rebalance", "2"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err(), "--rebalance takes 0|1");
        let args =
            Args::parse(["serve", "--ingest", "10", "--batch", "0"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err(), "a zero batch is a refusal");
        let args = Args::parse(["serve", "--batch", "8"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).expect_err("--batch without --ingest is a refusal");
        assert!(err.to_string().contains("--ingest"), "{err}");
    }

    #[test]
    fn audit_rejects_overfull_mix() {
        let args =
            Args::parse(["audit", "--dead", "0.8", "--lossy", "0.5"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn serve_rejects_bad_probability() {
        let args = Args::parse(["serve", "--drop", "1.5"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn bad_kind_is_refused_before_any_work() {
        let argv = ["serve", "--junctions", "100", "--kind", "bogus", "--ingest", "500"];
        let args = Args::parse(argv.map(String::from)).unwrap();
        let mut out = Vec::new();
        let err = run(&args, &mut out).expect_err("an unknown kind is a usage error");
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.to_string(), "unknown query kind: bogus");
        // No `ingested 500 crossings` line, nor any other: nothing ran.
        assert_eq!(String::from_utf8(out).unwrap(), "");

        let args = Args::parse(["query", "--kind", "bogus"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).expect_err("query refuses it too");
        assert_eq!(err.to_string(), "unknown query kind: bogus");
    }

    /// Runs `argv`, which must be refused as a usage error with `message`
    /// before anything is printed.
    fn assert_refused(argv: &[&str], message: &str) {
        let args = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        let mut out = Vec::new();
        let err = run(&args, &mut out).expect_err("a usage error");
        assert!(matches!(err, CliError::Usage(_)), "{argv:?}: {err}");
        assert!(err.to_string().contains(message), "{argv:?}: {err}");
        assert_eq!(String::from_utf8(out).unwrap(), "", "{argv:?}: nothing ran");
    }

    #[test]
    fn bad_area_is_refused_before_any_work() {
        for area in ["5", "-1", "nan"] {
            assert_refused(&["query", "--junctions", "100", "--area", area], "--area must be in");
        }
        // Serve names `--area`, not the `--subscribe-area` it defaults.
        assert_refused(&["serve", "--area", "5"], "--area must be in [0, 1]");
    }

    #[test]
    fn a_full_area_query_is_served() {
        let common = ["--junctions", "100", "--objects", "10", "--size", "0.3", "--area", "1"];
        let mut argv = vec!["query", "--queries", "2"];
        argv.extend_from_slice(&common);
        assert_eq!(run_cmd(&argv).lines().count(), 3, "a header and two rows");
        let mut argv = vec!["serve", "--queries", "2", "--shards", "2"];
        argv.extend_from_slice(&common);
        assert!(run_cmd(&argv).contains("answer η̂"));
    }

    #[test]
    fn tiny_cities_are_refused_before_any_work() {
        assert_refused(&["generate", "--junctions", "3"], "--junctions must be at least 4");
        for command in ["deploy", "query", "serve", "audit"] {
            assert_refused(&[command, "--junctions", "4"], "at least 3 sensor candidates");
        }
    }

    #[test]
    fn serve_rejects_zero_shards() {
        let args = Args::parse(["serve", "--shards", "0"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let err = Args::parse(["serve", "--seed", "1", "--seed", "2"].map(String::from))
            .expect_err("duplicate flag must fail to parse");
        assert!(err.to_string().contains("duplicate flag --seed"), "{err}");
        // Even repeating the same value is a refusal — the command line is
        // ambiguous either way.
        assert!(Args::parse(["serve", "--drop", "0.1", "--drop", "0.1"].map(String::from)).is_err());
    }

    #[test]
    fn conflicting_seed_flags_are_rejected() {
        let args =
            Args::parse(["serve", "--chaos-seed", "1", "--fault-seed", "2"].map(String::from))
                .unwrap();
        let err = run(&args, &mut Vec::new()).expect_err("conflicting seeds must be rejected");
        assert!(err.to_string().contains("conflicting"), "{err}");
        // The same value through both flags is merely redundant, not wrong.
        let ok = Args::parse(
            [
                "serve",
                "--junctions",
                "100",
                "--objects",
                "10",
                "--size",
                "0.3",
                "--queries",
                "1",
                "--chaos-seed",
                "7",
                "--fault-seed",
                "7",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(run(&ok, &mut Vec::new()).is_ok());
    }

    #[test]
    fn serve_with_subscriptions_prints_bracket_table() {
        let out = run_cmd(&[
            "serve",
            "--junctions",
            "100",
            "--objects",
            "20",
            "--size",
            "0.3",
            "--queries",
            "2",
            "--shards",
            "2",
            "--subscribe",
            "3",
            "--subscribe-area",
            "0.1",
            "--ingest",
            "90",
        ]);
        assert!(out.contains("standing: registered"), "{out}");
        assert!(out.contains("deltas"), "bracket table header missing:\n{out}");
        assert!(out.contains("sub-0"), "{out}");
        assert!(out.contains("standing: subscriptions"), "metrics line missing:\n{out}");
    }

    #[test]
    fn subscribe_area_without_subscribe_is_rejected() {
        let args = Args::parse(["serve", "--subscribe-area", "0.1"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("needs --subscribe"), "{err}");
    }

    #[test]
    fn subscribe_rejects_degenerate_values() {
        let args = Args::parse(["serve", "--subscribe", "0"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--subscribe"), "{err}");
        let args =
            Args::parse(["serve", "--subscribe", "2", "--subscribe-area", "1.5"].map(String::from))
                .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn kill_without_wal_dir_is_rejected() {
        let args = Args::parse(["serve", "--kill", "0:10"].map(String::from)).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--wal-dir"), "{err}");
        let args = Args::parse(["serve", "--kill", "bogus"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn cadences_without_wal_dir_are_rejected() {
        for flag in ["--snapshot-every", "--sync-every"] {
            let args = Args::parse(["serve", flag, "8"].map(String::from)).unwrap();
            let err = run(&args, &mut Vec::new()).expect_err("a cadence with no WAL is a refusal");
            assert!(matches!(err, CliError::Usage(_)));
            assert!(err.to_string().contains(&format!("{flag} ")), "{err}");
            assert!(err.to_string().contains("needs --wal-dir"), "{err}");
        }
    }

    #[test]
    fn zero_cadences_are_rejected() {
        let dir = std::env::temp_dir().join(format!("stq-cli-zero-{}", std::process::id()));
        let wal = dir.to_str().unwrap();
        for command in ["serve", "recover"] {
            for flag in ["--snapshot-every", "--sync-every"] {
                let argv = [command, "--wal-dir", wal, flag, "0"];
                let args = Args::parse(argv.map(String::from)).unwrap();
                let mut out = Vec::new();
                let err = run(&args, &mut out).expect_err("a cadence of 0 events is a refusal");
                assert!(matches!(err, CliError::Usage(_)));
                assert!(err.to_string().contains("must be at least 1"), "{command} {flag}: {err}");
                assert!(out.is_empty(), "{command} {flag}: refused before any work");
            }
        }
        assert!(!dir.exists(), "nothing was written");
    }

    #[test]
    fn serve_then_recover_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("stq-cli-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap();
        let common = ["--junctions", "100", "--objects", "20", "--size", "0.3", "--seed", "11"];
        let mut serve_args = vec![
            "serve",
            "--queries",
            "2",
            "--shards",
            "2",
            "--ingest",
            "120",
            "--kill",
            "0:40",
            "--snapshot-every",
            "32",
            "--sync-every",
            "8",
            "--wal-dir",
            wal,
        ];
        serve_args.extend_from_slice(&common);
        let out = run_cmd(&serve_args);
        assert!(out.contains("ingested 120 crossings"), "{out}");
        assert!(out.contains("respawns 1"), "the scheduled kill must fire and recover:\n{out}");

        let mut rec_args =
            vec!["recover", "--wal-dir", wal, "--snapshot-every", "32", "--sync-every", "8"];
        rec_args.extend_from_slice(&common);
        let out = run_cmd(&rec_args);
        assert!(out.contains("recovered 2 shards"), "{out}");
        assert!(out.contains("audit:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_requires_wal_dir_with_shards() {
        let args = Args::parse(["recover"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        let empty = std::env::temp_dir().join(format!("stq-cli-rec-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        let args = Args::parse(["recover", "--wal-dir", empty.to_str().unwrap()].map(String::from))
            .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err(), "no shard dirs → usage error");
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn svg_written_to_disk() {
        let dir = std::env::temp_dir().join(format!("stq-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("city.svg");
        let out = run_cmd(&["generate", "--junctions", "80", "--svg", path.to_str().unwrap()]);
        assert!(out.contains("wrote"));
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_bad_method() {
        let args = Args::parse(["frobnicate"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        let args = Args::parse(["deploy", "--method", "psychic"].map(String::from)).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cmd(&["help"]);
        assert!(out.contains("USAGE"));
        assert!(out.contains("deploy"));
    }
}
