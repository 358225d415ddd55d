//! One benchmark run: set-up, warm-up, the workload's timed windows, the
//! end-of-run checks every workload shares (flush, digests, verification
//! pass against the oracle, recovery), and on a traced run the per-layer
//! attribution.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stq_core::engine::EngineStats;
use stq_core::query::evaluate;
use stq_core::tracker::Crossing;
use stq_durability::{recover_shard, state_digest, ShardDurability};
use stq_forms::FormStore;
use stq_runtime::{Runtime, SubscriptionHandle};

use crate::calib::Calib;
use crate::drive::{
    ingest_paced, ingest_saturating, query_loop, Failures, IngestRun, QueryRun, Stop,
};
use crate::gen::{self, Inputs};
use crate::layers::{self, Layer};
use crate::pin;
use crate::stats::{self, quantile, summarize, Summary};
use crate::trace::Tracer;
use crate::world::{
    drain, runtime_config, scratch_dir, shard_forms, subscribe_all, World, NUM_SHARDS, OUT_DIR,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A timed window; every metric is the median over the run's windows.
const WINDOW: Duration = Duration::from_secs(1);
/// Events of one `ingest-durable` repetition (fresh runtime and WAL each).
const REP_EVENTS: usize = 256 * 1024;
/// Repetitions an untraced `ingest-durable` run makes at least.
const MIN_REPS: usize = 3;
/// Queries read back after each durable repetition's flush.
const READBACK: usize = 12_288;
/// The write tail that ends the read-only workloads: segments × events.
const TAIL_SEGMENTS: usize = 8;
const TAIL_EVENTS: usize = 256 * 1024;
/// Recoveries timed per checkpoint; `recover_ms` is their median.
const RECOVERIES: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    QueryHot,
    QueryCold,
    IngestDurable,
    MixedLive,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "query-hot" => Kind::QueryHot,
            "query-cold" => Kind::QueryCold,
            "ingest-durable" => Kind::IngestDurable,
            "mixed-live" => Kind::MixedLive,
            _ => return None,
        })
    }
}

/// What one run measured.
pub struct Outcome {
    /// Name, the metric over the run's windows, and its raw median (what
    /// the clock read, before scaling to the reference machine).
    pub end_to_end: Vec<(&'static str, Summary, f64)>,
    pub layer: Layer,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Which CPUs the generator and the runtime ran on.
    pub placement: String,
}

/// A running runtime with its subscriptions and, when durable, its WAL.
struct Live {
    rt: Runtime,
    subs: Vec<SubscriptionHandle>,
    wal_dir: Option<PathBuf>,
}

impl Live {
    /// `Runtime::new` plus the subscriptions; returns how long both took.
    fn start(world: &World, inputs: &Inputs, durable: bool, layer: &mut Layer) -> (Live, Duration) {
        let wal_dir = durable.then(|| scratch_dir("wal"));
        let t0 = Instant::now();
        let rt = world.start_runtime(wal_dir.clone());
        layer.insert("runtime.new_ms", t0.elapsed().as_secs_f64() * 1e3);
        let subs = subscribe_all(&rt, &inputs.sub_regions);
        let took = t0.elapsed();
        // The registration baselines, one per subscription.
        drain(&subs);
        (Live { rt, subs, wal_dir }, took)
    }
}

/// One value per timed window (or repetition) of a time or a rate as the
/// clock read it, and every sample of the machine's speed taken around
/// those windows (`calib.rs`).
#[derive(Default)]
struct Scaled {
    raw: Vec<f64>,
    speeds: Vec<f64>,
}

impl Scaled {
    fn push(&mut self, value: f64, speeds: &[f64]) {
        self.raw.push(value);
        self.speeds.extend(speeds);
    }

    /// The machine's mean speed over this metric's windows. Work done in a
    /// window follows the time-average of the speed, which the mean of many
    /// short samples estimates and their median does not.
    fn speed(&self) -> f64 {
        if self.speeds.is_empty() {
            1.0
        } else {
            stats::mean(self.speeds.iter().copied())
        }
    }

    /// The reported metric: median and quartiles over the windows, scaled
    /// by `factor`, and the raw median beside it.
    fn report(&self, name: &'static str, factor: f64) -> (&'static str, Summary, f64) {
        let raw = summarize(&self.raw);
        let scaled = Summary {
            median: raw.median * factor,
            p25: raw.p25 * factor,
            p75: raw.p75 * factor,
            n: raw.n,
        };
        (name, scaled, raw.median)
    }

    /// A time on the reference machine: shorter there when this one is slow.
    fn time(&self, name: &'static str) -> (&'static str, Summary, f64) {
        self.report(name, self.speed())
    }

    /// A rate on the reference machine.
    fn rate(&self, name: &'static str) -> (&'static str, Summary, f64) {
        self.report(name, 1.0 / self.speed())
    }
}

/// The end-to-end metrics window by window, and the operation counts.
#[derive(Default)]
struct Tally {
    qps: Scaled,
    query_p50_us: Scaled,
    eps: Scaled,
    batch_p50_us: Scaled,
    /// As the clock read them, for the per-layer report.
    recover_ms: Vec<f64>,
    query_p99_us: Vec<f64>,
    call_mean_us: Vec<f64>,
    call_p99_us: Vec<f64>,
    flush_ms: Vec<f64>,
    queries: u64,
    events: u64,
    failures: Failures,
}

/// Ascending copy of nanosecond samples, in microseconds.
fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v = ns.to_vec();
    v.sort_unstable();
    v.into_iter().map(|x| x as f64 / 1e3).collect()
}

impl Tally {
    /// One window of the reader; returns its rate as the clock read it.
    fn add_queries(&mut self, run: &QueryRun, speeds: &[f64]) -> f64 {
        self.queries += run.samples.len() as u64;
        let rate = run.samples.len() as f64 / run.elapsed.as_secs_f64();
        let latency = sorted_us(&run.samples);
        self.qps.push(rate, speeds);
        self.query_p50_us.push(quantile(&latency, 0.5), speeds);
        self.query_p99_us.push(quantile(&latency, 0.99));
        rate
    }

    /// One window or repetition of a writer; returns its rate as the clock
    /// read it. A paced writer's rate is set by its schedule, not by the
    /// machine, and is not scaled.
    fn add_ingest(&mut self, run: &IngestRun, speeds: &[f64]) -> f64 {
        self.events += run.events;
        let rate = run.events as f64 / run.elapsed.as_secs_f64();
        self.eps.push(rate, if run.late_ns.is_empty() { speeds } else { &[] });
        let calls = sorted_us(&run.call_ns);
        self.batch_p50_us.push(quantile(&calls, 0.5), speeds);
        self.call_mean_us.push(stats::mean(calls.iter().copied()));
        self.call_p99_us.push(quantile(&calls, 0.99));
        self.flush_ms.push(run.flush.as_secs_f64() * 1e3);
        rate
    }
}

struct Bench {
    kind: Kind,
    world: World,
    inputs: Inputs,
    /// The long-lived runtime (`ingest-durable` starts one per repetition).
    live: Option<Live>,
    tally: Tally,
    layer: Layer,
    /// Events of the stream the long-lived runtime has been fed.
    fed: u64,
    /// Queries of the working set the reader has cycled through.
    asked: usize,
    /// `ingest-durable`: the repetition's events.
    rep_events: Vec<Crossing>,
    /// The harness's own copy of the state the runtime must end in, and
    /// the digest of each shard's part of it.
    oracle: Option<(FormStore, Vec<u64>)>,
    /// The paced writer's lateness and batch latency from due time, ns.
    late_ns: Vec<u64>,
    from_due_ns: Vec<u64>,
    /// Process CPU ticks `(user, system)` and operations over the timed
    /// windows, for CPU per operation.
    cpu: (u64, u64, u64),
    /// `VmHWM` from warm-up's end to the end of the timed phase, MB.
    peak_rss_mb: f64,
}

fn with_digests(oracle: FormStore) -> (FormStore, Vec<u64>) {
    let digests = (0..NUM_SHARDS).map(|s| state_digest(&shard_forms(&oracle, s))).collect();
    (oracle, digests)
}

fn oracle_values(oracle: &FormStore, inputs: &Inputs) -> Vec<f64> {
    inputs.specs.iter().map(|s| evaluate(oracle, &s.boundary, s.query.kind)).collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Bench {
    fn live(&self) -> &Live {
        self.live.as_ref().expect("a long-lived runtime")
    }

    /// Runs `f`, charging the process CPU it used to `ops` operations.
    fn metered<R>(&mut self, f: impl FnOnce(&mut Self) -> (R, u64)) -> R {
        let (u0, s0) = stats::cpu_ticks();
        let (out, ops) = f(self);
        let (u1, s1) = stats::cpu_ticks();
        self.cpu = (self.cpu.0 + u1 - u0, self.cpu.1 + s1 - s0, self.cpu.2 + ops);
        out
    }

    /// One window of a workload with a long-lived runtime: the reader, and
    /// on `mixed-live` the paced writer beside it.
    fn window(&mut self, tracer: Option<&mut Tracer>) -> (QueryRun, Option<IngestRun>) {
        if self.kind == Kind::MixedLive {
            let (reads, writes) = self.mixed_window(tracer);
            (reads, Some(writes))
        } else {
            (self.read_window(tracer), None)
        }
    }

    /// The reader alone for one window.
    fn read_window(&mut self, tracer: Option<&mut Tracer>) -> QueryRun {
        let live = self.live.as_ref().expect("a long-lived runtime");
        let run = query_loop(
            &live.rt,
            &self.inputs.specs,
            self.asked,
            Stop::At(Instant::now() + WINDOW),
            None,
            &mut self.tally.failures,
            tracer,
        );
        self.asked += run.samples.len();
        run
    }

    /// The reader and the paced writer side by side for one window.
    fn mixed_window(&mut self, mut tracer: Option<&mut Tracer>) -> (QueryRun, IngestRun) {
        let live = self.live.as_ref().expect("a long-lived runtime");
        let (inputs, fed, asked) = (&self.inputs, self.fed, self.asked);
        let mut write_tracer = tracer.as_deref().map(Tracer::sibling);
        let mut write_failures = Failures::default();
        let until = Instant::now() + WINDOW;
        let (reads, writes) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                ingest_paced(
                    &live.rt,
                    &inputs.events,
                    fed,
                    until,
                    &live.subs,
                    &mut write_failures,
                    write_tracer.as_mut(),
                )
            });
            let reads = query_loop(
                &live.rt,
                &inputs.specs,
                asked,
                Stop::At(until),
                None,
                &mut self.tally.failures,
                tracer.as_deref_mut(),
            );
            (reads, writer.join().expect("writer thread"))
        });
        if let (Some(tr), Some(w)) = (tracer, write_tracer) {
            tr.absorb(w);
        }
        self.tally.failures.count += write_failures.count;
        self.tally.failures.kept.extend(write_failures.kept);
        self.fed += writes.events;
        self.asked += reads.samples.len();
        self.late_ns.extend(&writes.late_ns);
        self.from_due_ns.extend(&writes.from_due_ns);
        (reads, writes)
    }

    /// One `ingest-durable` repetition on `live`: saturating ingest of the
    /// first `events` of the repetition's stream, flush, read-back,
    /// shutdown, recovery, digest checks. Answers and digests are checked
    /// against the oracle only when the whole stream was ingested (the
    /// warm-up takes part of it). Returns the (unscaled) ingest rate.
    fn durable_rep(
        &mut self,
        calib: &Calib,
        live: Live,
        events: usize,
        tracer: Option<&mut Tracer>,
    ) -> f64 {
        let Live { rt, subs, wal_dir } = live;
        let wal_dir = wal_dir.expect("ingest-durable runs with a WAL");
        let whole = events == self.rep_events.len();
        let (run, speeds) = calib.around(|| {
            self.metered(|b| {
                let failures = &mut b.tally.failures;
                let run = ingest_saturating(&rt, &b.rep_events[..events], &subs, failures, tracer);
                (run, events as u64 / 1_000)
            })
        });
        let (oracle, _) = self.oracle.as_ref().expect("durable oracle");
        let want = whole.then(|| oracle_values(oracle, &self.inputs));
        let before = rt.engine_stats();
        let (reads, read_speeds) = calib.around(|| {
            let stop = Stop::Count(READBACK);
            let failures = &mut self.tally.failures;
            query_loop(&rt, &self.inputs.specs, 0, stop, want.as_deref(), failures, None)
        });
        self.note_hit_rate(before, rt.engine_stats());
        let rate = self.tally.add_ingest(&run, &speeds);
        self.tally.add_queries(&reads, &read_speeds);
        let digests = rt.shard_digests();
        self.note_runtime(&rt);
        let stored = self.world.base_store().total_events() + events;
        self.layer
            .insert("durability.disk_bytes_per_event", dir_bytes(&wal_dir) as f64 / stored as f64);
        drop(subs);
        rt.shutdown();
        if whole {
            self.recover_and_check(&wal_dir, &digests, 1);
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        rate
    }

    /// Counters the runtime keeps about itself, read before it shuts down.
    fn note_runtime(&mut self, rt: &Runtime) {
        let r = rt.metrics().report();
        let loads = rt.shard_loads();
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let l = &mut self.layer;
        l.insert("runtime.shard_load_imbalance", if mean > 0.0 { max / mean - 1.0 } else { 0.0 });
        l.insert(
            "runtime.shard_requests_per_query",
            r.shard_requests as f64 / r.queries.max(1) as f64,
        );
        l.insert("runtime.retries", r.retries as f64);
        l.insert("runtime.timeouts", r.timeouts as f64);
        l.insert("runtime.degraded", r.degraded as f64);
        l.insert("durability.snapshots", r.snapshots_taken as f64);
        l.insert("durability.wal_group_commits", r.wal_group_commits as f64);
        l.insert("durability.wal_appends", r.wal_appends as f64);
        l.insert("subscribe.deltas_pushed", r.deltas_pushed as f64);
    }

    /// Recovers every shard from `root`, `times` times, requiring each
    /// recovered digest to equal both the runtime's and the oracle's.
    fn recover_and_check(&mut self, root: &Path, runtime_digests: &[u64], times: usize) {
        let (_, want) = self.oracle.as_ref().expect("oracle of the final state");
        // Recovery must be told the settings the WAL was written under.
        let settings = runtime_config(Some(root.into())).durability.expect("durable config");
        for _ in 0..times {
            let mut took = Duration::ZERO;
            for shard in 0..NUM_SHARDS {
                let t0 = Instant::now();
                let recovered =
                    recover_shard(root, shard, settings.snapshot_every, settings.sync_every);
                took += t0.elapsed();
                let got = recovered.map(|r| r.digest());
                if !matches!(got, Ok(d) if d == want[shard] && d == runtime_digests[shard]) {
                    self.tally.failures.add(1, || {
                        format!(
                            "write lost: shard {shard} recovered {got:?}, runtime {:#x}, oracle {:#x}",
                            runtime_digests[shard], want[shard]
                        )
                    });
                }
            }
            self.tally.recover_ms.push(took.as_secs_f64() * 1e3);
        }
    }

    /// A second of the workload, untimed.
    fn warm_up(&mut self, calib: &Calib) {
        if self.kind == Kind::IngestDurable {
            let live = self.live.take().expect("set-up runtime");
            self.durable_rep(calib, live, REP_EVENTS / 4, None);
        } else {
            self.window(None);
        }
        self.tally = Tally::default();
        self.cpu = (0, 0, 0);
        // Set-up built the town three times over; from here on the
        // high-water mark is the workload's own.
        self.layer.insert("setup.peak_rss_mb", stats::rss_mb("VmHWM"));
        if let Err(e) = stats::reset_peak_rss() {
            eprintln!("stq-e2e: cannot restart VmHWM ({e}): peak_rss_mb includes set-up");
        }
    }

    /// The workload's timed phase: windows (or durable repetitions) until
    /// `span` has passed. Returns the mean rate of its primary operation.
    fn primary(&mut self, calib: &Calib, span: Duration, mut tracer: Option<&mut Tracer>) -> f64 {
        let began = Instant::now();
        let min_reps = if span < 3 * WINDOW { 1 } else { MIN_REPS };
        let mut rates = Vec::new();
        while began.elapsed() < span || rates.len() < min_reps {
            let tracer = tracer.as_deref_mut();
            rates.push(if self.kind == Kind::IngestDurable {
                let live = Live::start(&self.world, &self.inputs, true, &mut self.layer).0;
                self.durable_rep(calib, live, REP_EVENTS, tracer)
            } else {
                let before = self.live().rt.engine_stats();
                let ((reads, writes), speeds) = calib.around(|| {
                    self.metered(|b| {
                        let both = b.window(tracer);
                        let n = both.0.samples.len() as u64;
                        (both, n)
                    })
                });
                self.note_hit_rate(before, self.live().rt.engine_stats());
                if let Some(writes) = writes {
                    self.tally.add_ingest(&writes, &speeds);
                }
                self.tally.add_queries(&reads, &speeds)
            });
        }
        // Here ends what `peak_rss_mb` covers: the write tail and the
        // harness's end-of-run copies of the state are not the workload's.
        self.peak_rss_mb = stats::rss_mb("VmHWM");
        stats::mean(rates)
    }

    fn note_hit_rate(&mut self, before: EngineStats, after: EngineStats) {
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.layer
            .insert("engine.plan_cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    }

    /// The write tail that ends the read-only workloads.
    fn write_tail(&mut self, calib: &Calib, mut tracer: Option<&mut Tracer>) {
        if matches!(self.kind, Kind::QueryHot | Kind::QueryCold) {
            let live = self.live.as_ref().expect("a long-lived runtime");
            let mut buf = Vec::with_capacity(TAIL_EVENTS);
            for _ in 0..TAIL_SEGMENTS {
                self.inputs.events.fill(self.fed, TAIL_EVENTS, &mut buf);
                let (run, speeds) = calib.around(|| {
                    ingest_saturating(
                        &live.rt,
                        &buf,
                        &live.subs,
                        &mut self.tally.failures,
                        tracer.as_deref_mut(),
                    )
                });
                self.tally.add_ingest(&run, &speeds);
                self.fed += run.events;
            }
        }
    }

    /// The end-of-run checks on a long-lived runtime: flush, digests, the
    /// verification pass over every spec, shutdown, and recovery of a
    /// checkpoint.
    fn finish(&mut self) {
        let Some(live) = self.live.take() else { return };
        let mut oracle = self.world.base_store().clone();
        for i in 0..self.fed {
            let c = self.inputs.events.event(i);
            oracle.record(c.edge, c.forward, c.time);
        }
        let want = oracle_values(&oracle, &self.inputs);
        let digests = live.rt.shard_digests();
        let reads = query_loop(
            &live.rt,
            &self.inputs.specs,
            0,
            Stop::Count(self.inputs.specs.len()),
            Some(&want),
            &mut self.tally.failures,
            None,
        );
        self.tally.queries += reads.samples.len() as u64;
        self.note_runtime(&live.rt);
        drop(live.subs);
        live.rt.shutdown();

        // A non-durable runtime leaves nothing to recover from, so the
        // harness checkpoints the oracle's copy of the final state through
        // the durability layer and times recovery of that: the restart cost
        // at this workload's state size, and a digest check of the
        // runtime's shards against the oracle on every workload.
        let ckpt = scratch_dir("ckpt");
        let d = runtime_config(Some(ckpt.clone())).durability.expect("durable config");
        for shard in 0..NUM_SHARDS {
            let forms = shard_forms(&oracle, shard);
            ShardDurability::initialize(&ckpt, shard, &forms, 0, d.snapshot_every, d.sync_every)
                .expect("write checkpoint");
        }
        self.oracle = Some(with_digests(oracle));
        self.recover_and_check(&ckpt, &digests, RECOVERIES);
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    /// Per-layer attribution of a traced run: layer replay of the same
    /// operations, direct probes, and what the harness's own spans say.
    fn attribute(&mut self, tr: &mut Tracer) {
        let (oracle, _) = self.oracle.take().expect("oracle of the final state");
        let durable = self.kind == Kind::IngestDurable;
        let dir = scratch_dir("probe");
        let queries = tr.total_ns("query").1.max(READBACK);
        let batches = tr.total_ns("runtime.ingest_batch").1;
        let l = &mut self.layer;
        layers::replay_queries(&self.world, &self.inputs, &oracle, queries, tr, l);
        layers::replay_batches(&self.world, &self.inputs, batches, durable.then_some(&*dir), tr, l);
        layers::probes(&self.inputs, &oracle, durable, &dir, l);
        let _ = std::fs::remove_dir_all(&dir);

        l.insert("runtime.submit_us", tr.mean_us("runtime.submit"));
        l.insert("runtime.wait_us", tr.mean_us("runtime.wait"));
        let (user, sys, ops) = self.cpu;
        let per_op = |ticks: u64| ticks as f64 * stats::TICK_US / ops.max(1) as f64;
        if durable {
            l.insert("runtime.ingest_cpu_us_per_kev", per_op(user + sys));
        } else {
            // On `mixed-live` this includes the writer's share of the CPU.
            l.insert("runtime.cpu_user_us_per_query", per_op(user));
            l.insert("runtime.cpu_sys_us_per_query", per_op(sys));
            let engine = l["engine.compile_us"] + l["engine.plan_hit_us"] + l["engine.execute_us"];
            l.insert("runtime.overhead_share", 1.0 - engine / per_op(user + sys));
        }
        l.insert("trace.spans", tr.spans.len() as f64);
    }

    /// Refuses a seed whose inputs lost the shape the workload is named for.
    fn check_shape(&self) -> Result<(), String> {
        let edges = self.inputs.boundary_edges_mean();
        let hit = self.layer.get("engine.plan_cache_hit_rate").copied().unwrap_or(0.0);
        let imbalance = self.layer["runtime.shard_load_imbalance"];
        let ok = match self.kind {
            Kind::QueryHot | Kind::MixedLive => hit >= 0.95 && (20.0..=70.0).contains(&edges),
            Kind::QueryCold => hit <= 0.05 && (60.0..=160.0).contains(&edges),
            Kind::IngestDurable => imbalance >= 0.7 && (20.0..=70.0).contains(&edges),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "workload lost its shape: plan-cache hit rate {hit:.3}, mean boundary edges \
                 {edges:.1}, shard load imbalance {imbalance:.3}"
            ))
        }
    }
}

/// Runs `workload` once. `Err` means the run was refused (unknown name, or
/// a seed that degenerates the workload) and nothing was measured.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let durable = kind == Kind::IngestDurable;
    // Only `mixed-live` is about contention between threads running at the
    // same instant; the others measure the code better on one CPU.
    let placement = pin::place_generator(kind == Kind::MixedLive)?;
    let calib = Calib::new();
    let mut setup_s = Scaled::default();
    let mut layer = Layer::new();

    // Set-up, several times over so `setup_s` is a median; the last is kept.
    // Generating the inputs is the generator's work, not the system's
    // set-up, and is not counted.
    let mut inputs = None;
    let mut kept: Option<(World, Live)> = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some((_, Live { wal_dir: Some(dir), .. })) = kept.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (built, speeds) = calib.around(|| -> Result<_, String> {
            let world = World::build();
            if inputs.is_none() {
                inputs = Some(gen::inputs(&world, workload, seed)?);
            }
            let (live, started) =
                Live::start(&world, inputs.as_ref().expect("generated"), durable, &mut layer);
            Ok((world, live, started))
        });
        let (world, live, started) = built?;
        setup_s.push(world.scenario_s + world.sampled_s + started.as_secs_f64(), &speeds);
        kept = Some((world, live));
    }
    let (world, live) = kept.expect("at least one set-up");
    let inputs = inputs.expect("generated");
    layer.insert("setup.scenario_s", world.scenario_s);
    layer.insert("setup.sampled_s", world.sampled_s);
    layer.insert("engine.boundary_edges_mean", inputs.boundary_edges_mean());

    let mut bench = Bench {
        kind,
        world,
        inputs,
        live: Some(live),
        tally: Tally::default(),
        layer,
        fed: 0,
        asked: 0,
        rep_events: Vec::new(),
        oracle: None,
        late_ns: Vec::new(),
        from_due_ns: Vec::new(),
        cpu: (0, 0, 0),
        peak_rss_mb: 0.0,
    };
    if durable {
        bench.inputs.events.fill(0, REP_EVENTS, &mut bench.rep_events);
        let mut oracle = bench.world.base_store().clone();
        for c in &bench.rep_events {
            oracle.record(c.edge, c.forward, c.time);
        }
        bench.oracle = Some(with_digests(oracle));
    }

    bench.warm_up(&calib);
    let span = Duration::from_secs_f64(seconds);
    if trace {
        // End-to-end metrics come from untraced runs; here one short
        // untraced phase gives the rate the traced one is compared with.
        let short = (span / 3).min(WINDOW);
        let plain = bench.primary(&calib, short, None);
        let cpu = bench.cpu;
        let mut tracer = Tracer::new();
        let traced = bench.primary(&calib, short, Some(&mut tracer));
        // CPU per operation is the untraced phase's.
        bench.cpu = cpu;
        bench.layer.insert("trace.overhead_frac", 1.0 - traced / plain);
        bench.write_tail(&calib, Some(&mut tracer));
        bench.finish();
        bench.attribute(&mut tracer);
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
        tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        bench.primary(&calib, span, None);
        bench.write_tail(&calib, None);
        bench.finish();
    }
    bench.check_shape()?;

    let Bench { tally: t, mut layer, late_ns, from_due_ns, peak_rss_mb: rss, .. } = bench;
    let (late, from_due) = (sorted_us(&late_ns), sorted_us(&from_due_ns));
    let paced = |us: &[f64], q: f64| if us.is_empty() { 0.0 } else { quantile(us, q) };
    layer.insert("gen.late_p50_us", paced(&late, 0.5));
    layer.insert("gen.late_p99_us", paced(&late, 0.99));
    layer.insert("gen.from_due_p50_us", paced(&from_due, 0.5));
    layer.insert("gen.from_due_p99_us", paced(&from_due, 0.99));
    layer.insert("runtime.query_p99_us", summarize(&t.query_p99_us).median);
    layer.insert("durability.recover_ms", summarize(&t.recover_ms).median);
    layer.insert("runtime.ingest_batch_us", summarize(&t.call_mean_us).median);
    layer.insert("runtime.ingest_batch_p99_us", summarize(&t.call_p99_us).median);
    layer.insert("runtime.flush_ingest_ms", summarize(&t.flush_ms).median);
    // Over the windows of the workload's own operation.
    layer.insert("machine.speed", if durable { t.eps.speed() } else { t.qps.speed() });
    let attempted = t.queries + t.events;
    layer.insert("ops.queries", t.queries as f64);
    layer.insert("ops.events", t.events as f64);
    layer.insert("ops.failed_frac", t.failures.count as f64 / attempted.max(1) as f64);
    Ok(Outcome {
        end_to_end: vec![
            setup_s.time("setup_s"),
            t.qps.rate("query_qps"),
            t.query_p50_us.time("query_p50_us"),
            t.eps.rate("ingest_eps"),
            t.batch_p50_us.time("ingest_batch_p50_us"),
            ("peak_rss_mb", Summary { median: rss, p25: rss, p75: rss, n: 1 }, rss),
        ],
        layer,
        attempted,
        failed: t.failures.count,
        failures: t.failures.kept,
        placement,
    })
}
