//! A warm query allocates nothing on its dispatcher thread: ROADMAP item 2's
//! "zero allocations per warm query", held at the dispatch hop as
//! `crates/core/tests/plan_alloc.rs` holds it at the engine hop — one query at
//! a time, and sixteen outstanding, which the dispatcher serves in batches
//! out of a pool it reuses. It is also what keeps a per-query reply channel
//! from coming back: creating one allocates.
//!
//! A binary of its own because it replaces the global allocator with one
//! that counts. Counts are kept per runtime thread, found by thread name.
//! What the *submitting* thread allocates per query — the cloned spec and
//! the `bounded(1)` channel behind its `PendingAnswer` (an `Arc` and the one
//! slot, which the shim allocates when the channel is created) — lands in
//! the `OTHER` slot and is outside the assertion.
//!
//! The write path's cases count the *calling* thread — what one clean
//! `ingest_batch` allocates there is a fixed number per lane, not per event,
//! and does not grow with the batch — and the shard threads: a memory-only
//! worker applies the lane it was handed and copies nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use stq_core::prelude::*;
use stq_core::tracker::Crossing;
use stq_runtime::{
    CrashWindow, FaultPlan, PendingAnswer, QuerySpec, Runtime, RuntimeConfig, ServedAnswer,
};

/// Whose allocation it was: index into [`COUNTS`].
const UNRESOLVED: usize = 0;
const DISPATCHER: usize = 1;
const SHARDS: [usize; 2] = [2, 3];
const OTHER: usize = 4;
/// A test thread that put itself here (`count_this_thread_as_caller`).
const CALLER: usize = 5;
/// The thread is inside `slot_of_current_thread`, which may allocate.
const RESOLVING: usize = usize::MAX;

static COUNTS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
/// Counting (and the name lookup behind it) is on only between the test's
/// `ARMED` stores, when every runtime thread is long past its start-up:
/// `std::thread::current` must not run before the thread has installed its
/// own handle.
static ARMED: AtomicBool = AtomicBool::new(false);
/// One test at a time: `ARMED` is global, and every runtime names its
/// threads alike.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(UNRESOLVED) };
}

fn slot_of_current_thread() -> usize {
    match std::thread::current().name() {
        Some("stq-dispatch-0") => DISPATCHER,
        Some("stq-shard-0") => SHARDS[0],
        Some("stq-shard-1") => SHARDS[1],
        _ => OTHER,
    }
}

fn bump() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = SLOT.try_with(|slot| {
        if slot.get() == UNRESOLVED {
            slot.set(RESOLVING);
            slot.set(slot_of_current_thread());
        }
        if slot.get() != RESOLVING {
            COUNTS[slot.get()].fetch_add(1, Ordering::Relaxed);
        }
    });
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// `bump`, which touches a thread-local and a static and does not unwind, and
// whose own allocations (the name lookup) re-enter it behind `RESOLVING`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations while `f` ran: `(dispatcher, [shard 0, shard 1], caller)`.
fn allocations_during(f: impl FnOnce()) -> (u64, [u64; 2], u64) {
    let read = || {
        let at = |slot: usize| COUNTS[slot].load(Ordering::Relaxed);
        (at(DISPATCHER), SHARDS.map(at), at(CALLER))
    };
    let before = read();
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    let after = read();
    (after.0 - before.0, [after.1[0] - before.1[0], after.1[1] - before.1[1]], after.2 - before.2)
}

/// The query side's deployment, and nine regions its serving graph resolves,
/// three specs each (one per kind).
fn query_fixture() -> (Scenario, SampledGraph, Vec<Vec<QuerySpec>>) {
    let s = Scenario::build(ScenarioConfig {
        junctions: 180,
        mix: WorkloadMix { random_waypoint: 20, commuter: 12, transit: 6 },
        seed: 41,
        ..Default::default()
    });
    let cands = s.sensing.sensor_candidates();
    let ids =
        stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, cands.len() / 4, 7);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
    let mut specs: Vec<Vec<QuerySpec>> = s
        .make_queries(24, 0.15, 1_500.0, 17)
        .into_iter()
        .filter(|(region, ..)| {
            !sampled.resolve(region.junctions(), Approximation::Lower).is_empty()
        })
        .map(|(region, t0, t1)| {
            [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1), QueryKind::Static(t0, t1)]
                .map(|kind| QuerySpec::new(region.clone(), kind, Approximation::Lower))
                .to_vec()
        })
        .collect();
    assert!(specs.len() >= 9, "only {} resolvable regions", specs.len());
    specs.truncate(9);
    (s, sampled, specs)
}

/// A served answer a fault-free runtime owes every warm spec.
fn full_coverage(a: &ServedAnswer) -> bool {
    !a.miss && a.coverage == 1.0 && a.retries == 0
}

#[test]
fn warm_query_allocates_nothing_on_the_dispatcher() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Nine regions the serving graph resolves: eight to warm, one held back.
    let (s, sampled, mut specs) = query_fixture();
    let held_back = specs.pop().expect("nine regions");
    let warm: Vec<QuerySpec> = specs.into_iter().flatten().collect();

    // A window wide enough that a loaded machine does not overrun it: the
    // count asserted below does not depend on it.
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 1,
        shard_timeout: Duration::from_millis(200),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(s.sensing.clone(), sampled, &s.tracked.store, cfg);
    let ask = |spec: &QuerySpec| {
        let a = rt.query(spec.clone());
        assert!(full_coverage(&a), "a full-coverage query");
        a.shards as u64
    };
    for spec in &warm {
        ask(spec);
    }

    let queries = 1_000;
    let mut requests = 0;
    let (dispatcher, shards, _) = allocations_during(|| {
        requests = warm.iter().cycle().take(queries).map(ask).sum::<u64>();
    });
    println!(
        "{queries} warm queries, {requests} shard requests: {dispatcher} allocations on the \
         dispatcher, {shards:?} on the shards"
    );
    assert_eq!(dispatcher, 0, "a warm query must not touch the heap on its dispatcher");
    // One per request, the response's `counts`; a shard asked by every query
    // was sent `queries` requests.
    assert!(shards.iter().all(|&n| n <= queries as u64), "shards allocated {shards:?}");
    assert!(shards.iter().sum::<u64>() > 0, "the counter sees the shards allocate");

    // A plan the dispatcher has not routed yet does allocate there (its
    // groups), so the zero above is a reading, not a blind counter.
    let (dispatcher, ..) = allocations_during(|| {
        ask(&held_back[0]);
    });
    assert!(dispatcher > 0, "the counter sees a first-time plan allocate");
    rt.shutdown();
}

const OUTSTANDING: usize = 16;

/// `n` queries cycling through `specs`, `OUTSTANDING` of them submitted and
/// not yet waited for at any time.
fn closed_loop(rt: &Runtime, specs: &[QuerySpec], n: usize) {
    let mut inflight = VecDeque::with_capacity(OUTSTANDING);
    for spec in specs.iter().cycle().take(n) {
        if inflight.len() == OUTSTANDING {
            let a: ServedAnswer = inflight.pop_front().map(PendingAnswer::wait).expect("one");
            assert!(full_coverage(&a), "a full-coverage query");
        }
        inflight.push_back(rt.submit(spec.clone()));
    }
    for pending in inflight {
        assert!(full_coverage(&pending.wait()), "a full-coverage query");
    }
}

#[test]
fn warm_batches_allocate_nothing_on_the_dispatcher() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (s, sampled, specs) = query_fixture();
    let warm: Vec<QuerySpec> = specs.into_iter().flatten().collect();
    let touches_shard_0 = |spec: &QuerySpec| {
        let plan = QueryPlan::compile(&s.sensing, &sampled, &spec.region, spec.approx);
        plan.boundary.iter().any(|be| be.edge % 2 == 0)
    };
    let blocker = warm.iter().find(|spec| touches_shard_0(spec)).expect("a spec on shard 0");
    // The first request shard 0 is sent is lost, so the query that sent it
    // holds the one dispatcher for a window while `OUTSTANDING` more queue
    // behind it: the pool holds a batch that size before anything is
    // counted, whichever batch sizes the closed loop makes.
    let cfg = RuntimeConfig {
        num_shards: 2,
        dispatchers: 1,
        shard_timeout: Duration::from_millis(200),
        fault: FaultPlan::none().with_crash(CrashWindow {
            node: 0,
            after_messages: 0,
            lasts_messages: 1,
        }),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(s.sensing.clone(), sampled.clone(), &s.tracked.store, cfg);
    let first = rt.submit(blocker.clone());
    while rt.metrics().report().crash_dropped == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let burst: Vec<PendingAnswer> =
        warm.iter().take(OUTSTANDING).map(|spec| rt.submit(spec.clone())).collect();
    assert_eq!(first.wait().retries, 1, "the lost request was asked again");
    assert!(burst.into_iter().map(PendingAnswer::wait).all(|a| full_coverage(&a)));
    closed_loop(&rt, &warm, 1_000);

    let queries = 2_000;
    let (dispatcher, ..) = allocations_during(|| closed_loop(&rt, &warm, queries));
    println!(
        "{queries} warm queries, {OUTSTANDING} outstanding: {dispatcher} allocations on the \
         dispatcher"
    );
    assert_eq!(dispatcher, 0, "a warm batch must not touch the heap on its dispatcher");
    let report = rt.metrics().report();
    assert_eq!((report.crash_dropped, report.retries), (1, 1));
    rt.shutdown();
}

#[test]
fn clean_batch_allocates_per_lane_on_the_caller() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    SLOT.with(|slot| slot.set(CALLER));
    let s = Scenario::build(ScenarioConfig {
        junctions: 120,
        mix: WorkloadMix { random_waypoint: 8, commuter: 4, transit: 2 },
        seed: 29,
        ..Default::default()
    });
    let ne = s.sensing.num_edges() & !1; // even: event `i` goes to shard `i % 2`
    let sampled = SampledGraph::unsampled(&s.sensing);
    let cfg = RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() };
    let rt = Runtime::new(s.sensing.clone(), sampled, &s.tracked.store, cfg);

    // Allocations on this thread inside each of 32 `ingest_batch` calls of
    // `len` events, half of them to either shard. The flush between calls
    // (not counted) keeps the shard channels' queues from growing.
    let mut sent = 0;
    let mut per_batch = |len: usize| -> Vec<u64> {
        let mut counts = Vec::with_capacity(32);
        for _ in 0..32 {
            let batch: Vec<Crossing> = (sent..sent + len)
                .map(|i| Crossing { time: 10_000.0 + i as f64, edge: i % ne, forward: i % 3 != 0 })
                .collect();
            sent += len;
            let (.., caller) = allocations_during(|| {
                assert_eq!(rt.ingest_batch(&batch).lanes, 2);
            });
            rt.flush_ingest();
            counts.push(caller);
        }
        counts
    };
    per_batch(256); // warm-up: the queues reach their size
    let (short, long) = (per_batch(256), per_batch(1024));
    println!("allocations per clean ingest_batch: {short:?} at 256 events, {long:?} at 1024");
    // 8, whatever the batch's length: the owners read once and the lane
    // sizes counted from them (two tables), the table of lanes, each lane at
    // its final length and the `Arc` that shares it (two a lane), and the
    // lane locks. Nothing for validation, growth, a copy of a lane, the redo
    // buffer or the send. (A lane grown by doubling read 16 at 256 events
    // and 20 at 1024: six doublings to 128 events, two more to 512, then a
    // copy into a shared slice of its own. The columnar grouping before it
    // read 42 and 54.)
    const PER_BATCH: u64 = 8;
    assert!(short.iter().all(|&n| n <= PER_BATCH), "256 events: {short:?}");
    assert!(long.iter().all(|&n| n <= PER_BATCH), "1024 events: {long:?}");
    rt.shutdown();
}

#[test]
fn clean_lanes_allocate_only_form_growth_on_the_shards() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let s = Scenario::build(ScenarioConfig {
        junctions: 120,
        mix: WorkloadMix { random_waypoint: 8, commuter: 4, transit: 2 },
        seed: 29,
        ..Default::default()
    });
    let sampled = SampledGraph::unsampled(&s.sensing);
    let cfg = RuntimeConfig { num_shards: 2, ..RuntimeConfig::default() };
    let rt = Runtime::new(s.sensing.clone(), sampled, &s.tracked.store, cfg);

    // Event `i` crosses edge `i % 2` forward, so each shard's lane of every
    // batch lands on one sequence of one form: all that can grow is that
    // sequence, by doubling.
    let batch_at = |first: usize| -> Vec<Crossing> {
        (first..first + 256)
            .map(|i| Crossing { time: 10_000.0 + i as f64, edge: i % 2, forward: true })
            .collect()
    };
    rt.ingest_batch(&batch_at(0)); // warm-up: the queues reach their size
    rt.flush_ingest();
    let lanes = 64;
    let batches: Vec<Vec<Crossing>> = (1..=lanes).map(|k| batch_at(k * 256)).collect();
    let (_, shards, _) = allocations_during(|| {
        for batch in &batches {
            assert_eq!(rt.ingest_batch(batch).lanes, 2);
        }
        // Inside the window: the workers have applied every lane by then.
        assert_eq!(rt.flush_ingest(), [128 * (lanes as u64 + 1); 2]);
    });
    println!("{lanes} clean 128-event lanes a shard: {shards:?} allocations on the shards");
    // [6, 6]: 8 192 events double a sequence six times. PR 23 read [70, 70]:
    // one more per lane, the `applied` vector of `(seq, event)` pairs the
    // worker rebuilt every lane in.
    assert!(shards.iter().all(|&n| n < lanes as u64), "shards allocated {shards:?}");
    rt.shutdown();
}
