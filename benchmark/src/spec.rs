//! The benchmark's contract in one place: workload names with the reason
//! each exists, and every metric with its unit, direction and regression
//! bound. `BENCHMARK.json` at the repository root repeats this table for the
//! driver; a change to one is a change to both.

/// How long one run measures, and the value written to `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "query-hot",
        why: "32 small regions fit the 256-entry plan cache: runtime dispatch, fan-out, \
              aggregation and forms lookups do the work and compile does none",
    },
    Workload {
        name: "query-cold",
        why: "4096 large regions cycle through the plan cache (hit rate 0): QueryPlan::compile \
              and LRU churn dominate and dispatch is a small share",
    },
    Workload {
        name: "ingest-durable",
        why: "saturating 256-event batches with WAL, snapshots, hotspot skew and 512 drained \
              subscriptions: durability, subscribe and the ingest path do the work, queries none",
    },
    Workload {
        name: "mixed-live",
        why: "a 100k ev/s open-loop writer beside the closed-loop hot reader, non-durable, \
              generators and runtime on separate CPUs: a write-side gain that costs readers, or \
              the reverse, shows only here",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees. Every one is reported, and is non-zero,
/// on every workload (README: "What each metric means on each workload").
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_qps", "1/s", "higher", 0.25),
    e2e("query_p50_us", "us", "lower", 0.25),
    e2e("ingest_eps", "1/s", "higher", 0.25),
    e2e("ingest_batch_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// One layer each (layer = module); informational, no bound. README's
/// interaction table says which end-to-end metric each should move, where.
pub const PER_LAYER: [Metric; 53] = [
    layer("engine.compile_us", "us", "lower"),
    layer("engine.plan_hit_us", "us", "lower"),
    layer("engine.execute_us", "us", "lower"),
    layer("engine.plan_cache_hit_rate", "ratio", "higher"),
    layer("engine.boundary_edges_mean", "count", "lower"),
    layer("forms.events_until_ns", "ns", "lower"),
    layer("forms.record_ns", "ns", "lower"),
    layer("forms.columnar_push_ns", "ns", "lower"),
    layer("forms.store_bytes_per_event", "B", "lower"),
    layer("runtime.cpu_user_us_per_query", "us", "lower"),
    layer("runtime.cpu_sys_us_per_query", "us", "lower"),
    layer("runtime.submit_us", "us", "lower"),
    layer("runtime.wait_us", "us", "lower"),
    layer("runtime.query_p99_us", "us", "lower"),
    layer("runtime.overhead_share", "ratio", "lower"),
    layer("runtime.shard_requests_per_query", "count", "lower"),
    layer("runtime.retries", "count", "lower"),
    layer("runtime.timeouts", "count", "lower"),
    layer("runtime.degraded", "count", "lower"),
    layer("runtime.ingest_batch_us", "us", "lower"),
    layer("runtime.ingest_batch_p99_us", "us", "lower"),
    layer("runtime.flush_ingest_ms", "ms", "lower"),
    layer("runtime.ingest_cpu_us_per_kev", "us", "lower"),
    layer("runtime.shard_load_imbalance", "ratio", "lower"),
    layer("runtime.new_ms", "ms", "lower"),
    layer("durability.wal_append_batch_us", "us", "lower"),
    layer("durability.wal_append_ns", "ns", "lower"),
    layer("durability.snapshot_ms", "ms", "lower"),
    layer("durability.snapshots", "count", "lower"),
    layer("durability.wal_group_commits", "count", "lower"),
    layer("durability.wal_appends", "count", "lower"),
    layer("durability.disk_bytes_per_event", "B", "lower"),
    layer("durability.snapshot_load_ms", "ms", "lower"),
    layer("durability.replay_ms", "ms", "lower"),
    layer("durability.recover_ms", "ms", "lower"),
    layer("subscribe.on_ingest_batch_us", "us", "lower"),
    layer("subscribe.on_ingest_batch_nosubs_us", "us", "lower"),
    layer("subscribe.deltas_pushed", "count", "lower"),
    layer("subscribe.subscribe_us", "us", "lower"),
    layer("net.fault_decide_ns", "ns", "lower"),
    layer("setup.scenario_s", "s", "lower"),
    layer("setup.sampled_s", "s", "lower"),
    layer("setup.peak_rss_mb", "MB", "lower"),
    layer("gen.late_p50_us", "us", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.from_due_p50_us", "us", "lower"),
    layer("gen.from_due_p99_us", "us", "lower"),
    layer("machine.speed", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("ops.queries", "count", "higher"),
    layer("ops.events", "count", "higher"),
    layer("ops.failed_frac", "ratio", "lower"),
];
