//! Per-layer attribution, from outside: a *layer replay* that walks the same
//! operations the runtime served through each layer's public call as child
//! spans, plus direct probes of calls the replay does not reach.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use stq_core::prelude::*;
use stq_durability::{install_snapshot, load_snapshot, replay_wal, ShardSnapshot, WalWriter};
use stq_forms::{ColumnarBatch, FormStore};
use stq_net::{FaultPlan, MessageCtx};
use stq_subscribe::SubscriptionRegistry;

use crate::gen::{Inputs, BATCH};
use crate::trace::Tracer;
use crate::world::{shard_forms, World, PLAN_CACHE, SUBSCRIPTIONS};

pub type Layer = BTreeMap<&'static str, f64>;

/// Replays stop after this long, however many operations were asked for.
const REPLAY_BUDGET: Duration = Duration::from_millis(1_500);

/// Walks the working set, in the reader's order, through
/// `QueryEngine::plan` → `QueryPlan::execute` on a harness-owned engine of
/// the runtime's cache size, so the hit/compile pattern is the runtime's.
pub fn replay_queries(
    world: &World,
    inputs: &Inputs,
    store: &FormStore,
    ops: usize,
    tr: &mut Tracer,
    out: &mut Layer,
) {
    let engine = QueryEngine::new(PLAN_CACHE);
    let (sensing, sampled) = (&world.scenario.sensing, &world.sampled);
    let begun = Instant::now();
    let mut done = 0usize;
    while done < ops && begun.elapsed() < REPLAY_BUDGET {
        let q = &inputs.specs[done % inputs.specs.len()].query;
        let op = done as u64;
        let start = tr.now_ns();
        let root = tr.push("replay.query", op, 0, start, start);
        let t0 = tr.now_ns();
        let (plan, hit) = engine.plan(sensing, sampled, &q.region, q.approx);
        let name = if hit { "engine.plan_hit" } else { "engine.compile" };
        tr.push(name, op, root, t0, tr.now_ns());
        black_box(tr.child("engine.execute", op, root, || plan.execute(store, q.kind)));
        tr.spans[root as usize - 1].end_ns = tr.now_ns();
        done += 1;
    }
    // Amortised over every replayed query, so the three add up to the
    // engine's time per query and compile reads ≈ 0 when the cache holds.
    let per_query = |name: &str| tr.total_ns(name).0 as f64 / done.max(1) as f64 / 1e3;
    out.insert("engine.compile_us", per_query("engine.compile"));
    out.insert("engine.plan_hit_us", per_query("engine.plan_hit"));
    out.insert("engine.execute_us", per_query("engine.execute"));
}

/// Walks batches of the event stream through `ColumnarBatch::push` →
/// `WalWriter::append_batch` → `sync` (durable workloads only) →
/// `FormStore::record` → `SubscriptionRegistry::on_ingest_batch` with the
/// workload's subscriptions registered and their channels drained.
pub fn replay_batches(
    world: &World,
    inputs: &Inputs,
    batches: usize,
    wal_dir: Option<&Path>,
    tr: &mut Tracer,
    out: &mut Layer,
) {
    let (sensing, sampled) = (&world.scenario.sensing, &world.sampled);
    let mut store = world.base_store().clone();
    let registry = SubscriptionRegistry::new(Arc::new(QueryEngine::new(PLAN_CACHE)), &store, []);
    let mut receivers = Vec::new();
    let t0 = Instant::now();
    for k in 0..if inputs.sub_regions.is_empty() { 0 } else { SUBSCRIPTIONS } {
        let (tx, rx) = channel::unbounded();
        let region = &inputs.sub_regions[k % inputs.sub_regions.len()];
        registry
            .subscribe(sensing, sampled, region, Approximation::Lower, Some(tx))
            .expect("subscription regions were pre-checked resolvable");
        receivers.push(rx);
    }
    let subscribed = t0.elapsed();
    let mut wal = wal_dir.map(|d| WalWriter::create(&d.join("replay.log"), 0).expect("create WAL"));
    let mut lane = ColumnarBatch::with_capacity(BATCH);
    let mut buf = Vec::with_capacity(BATCH);
    let mut records = Vec::with_capacity(BATCH);
    let begun = Instant::now();
    let mut done = 0usize;
    while done < batches && begun.elapsed() < REPLAY_BUDGET {
        let op = done as u64;
        inputs.events.fill(op * BATCH as u64, BATCH, &mut buf);
        let start = tr.now_ns();
        let root = tr.push("replay.ingest_batch", op, 0, start, start);
        lane.clear();
        tr.child("forms.columnar_push", op, root, || {
            for c in &buf {
                lane.push(c.edge, c.forward, c.time);
            }
        });
        if let Some(wal) = wal.as_mut() {
            records.clear();
            records.extend(
                buf.iter().enumerate().map(|(i, &c)| (op * BATCH as u64 + i as u64 + 1, c)),
            );
            tr.child("durability.wal_append_batch", op, root, || wal.append_batch(&records))
                .expect("append WAL frame");
            tr.child("durability.wal_sync", op, root, || wal.sync()).expect("flush WAL");
        }
        tr.child("forms.record", op, root, || {
            for (edge, forward, time) in lane.iter() {
                store.record(edge, forward, time);
            }
        });
        black_box(
            tr.child("subscribe.on_ingest_batch", op, root, || registry.on_ingest_batch(&buf)),
        );
        tr.spans[root as usize - 1].end_ns = tr.now_ns();
        for rx in &receivers {
            while rx.try_recv().is_ok() {}
        }
        done += 1;
    }
    let per_event = |name: &str| tr.total_ns(name).0 as f64 / (done.max(1) * BATCH) as f64;
    out.insert("forms.columnar_push_ns", per_event("forms.columnar_push"));
    out.insert("forms.record_ns", per_event("forms.record"));
    out.insert(
        "durability.wal_append_batch_us",
        tr.mean_us("durability.wal_append_batch") + tr.mean_us("durability.wal_sync"),
    );
    out.insert("subscribe.on_ingest_batch_us", tr.mean_us("subscribe.on_ingest_batch"));
    let subscribe_us = match receivers.len() {
        0 => 0.0,
        n => subscribed.as_secs_f64() * 1e6 / n as f64,
    };
    out.insert("subscribe.subscribe_us", subscribe_us);
}

/// Mean nanoseconds per call of `f` over `calls` calls.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Direct probes of single calls. `store` is the end-of-run oracle store,
/// `ckpt` an empty directory for snapshot files.
pub fn probes(inputs: &Inputs, store: &FormStore, durable: bool, ckpt: &Path, out: &mut Layer) {
    // forms: one `count_until` per directed boundary edge of the working
    // set, at the spec's own first time argument.
    let lookups: Vec<(usize, bool, f64)> = inputs
        .specs
        .iter()
        .take(512)
        .flat_map(|s| {
            let t = match s.query.kind {
                QueryKind::Snapshot(t) | QueryKind::Static(t, _) | QueryKind::Transient(t, _) => t,
            };
            s.boundary.iter().map(move |be| (be.edge, be.inward_forward, t))
        })
        .collect();
    let rounds = (2_000_000 / lookups.len()).max(1);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &(e, fwd, t) in &lookups {
            black_box(store.form(e).count_until(fwd, t));
        }
    }
    out.insert(
        "forms.events_until_ns",
        t0.elapsed().as_nanos() as f64 / (rounds * lookups.len()) as f64,
    );
    out.insert(
        "forms.store_bytes_per_event",
        stq_forms::CountSource::storage_bytes(store) as f64 / store.total_events().max(1) as f64,
    );

    // net: the decision every shard request asks of a fault-free plan.
    let plan = FaultPlan::none();
    out.insert(
        "net.fault_decide_ns",
        per_call_ns(2_000_000, |i| {
            black_box(plan.decide(black_box(MessageCtx {
                query_id: i as u64,
                node: i & 1,
                attempt: 0,
            })));
        }),
    );

    // subscribe: the registry's floor, a batch with nothing subscribed.
    let bare = SubscriptionRegistry::new(Arc::new(QueryEngine::new(0)), store, []);
    let mut buf = Vec::with_capacity(BATCH);
    // Past every event the oracle store holds, so none is late.
    let first = 1u64 << 32;
    out.insert(
        "subscribe.on_ingest_batch_nosubs_us",
        per_call_ns(2_000, |i| {
            inputs.events.fill(first + (i * BATCH) as u64, BATCH, &mut buf);
            black_box(bare.on_ingest_batch(&buf));
        }) / 1e3,
    );

    // durability: snapshot write and load at end-of-run size of the hot
    // shard, and single-record WAL appends on a durable workload.
    let forms = shard_forms(store, 0);
    let t0 = Instant::now();
    install_snapshot(ckpt, &ShardSnapshot::capture(0, 0, &forms)).expect("install snapshot");
    out.insert("durability.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    black_box(load_snapshot(ckpt).expect("load snapshot"));
    out.insert("durability.snapshot_load_ms", t0.elapsed().as_secs_f64() * 1e3);
    let mut append_ns = 0.0;
    if durable {
        let path = ckpt.join("probe.log");
        let mut wal = WalWriter::create(&path, 0).expect("create WAL");
        append_ns = per_call_ns(100_000, |i| {
            wal.append(i as u64 + 1, &inputs.events.event(i as u64)).expect("append WAL record");
        });
        wal.sync().expect("flush WAL");
        let t0 = Instant::now();
        black_box(replay_wal(&path, 0).expect("replay WAL"));
        out.insert("durability.replay_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("durability.wal_append_ns", append_ns);
}
