//! The load generators: the windowed closed-loop reader, the saturating and
//! the paced (open-loop) writers, and the judge every answer passes.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use stq_core::tracker::Crossing;
use stq_runtime::{Runtime, ServedAnswer, SubscriptionHandle};

use crate::gen::{EventStream, Spec, BATCH};
use crate::trace::Tracer;
use crate::world::drain;

/// Queries the reader keeps outstanding. One outstanding query was measured
/// bimodal on this machine (9 µs vs 90 µs p50 depending on where the
/// scheduler put the thread), so the loop keeps a window instead.
const WINDOW: usize = 16;
/// Offered rate of the open-loop writer.
const PACED_EPS: f64 = 100_000.0;
/// Failures kept verbatim for the report; all are counted.
const KEPT_FAILURES: usize = 8;

pub enum Stop {
    At(Instant),
    Count(usize),
}

#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub kept: Vec<String>,
}

impl Failures {
    /// Counts `n` failed operations described by `what`.
    pub fn add(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.count += n;
        if self.kept.len() < KEPT_FAILURES {
            self.kept.push(what());
        }
    }
}

pub struct QueryRun {
    pub elapsed: Duration,
    /// Latency of each query in ns, in completion order: from the start of
    /// the `submit` call to `wait` returning.
    pub samples: Vec<u64>,
}

/// Why an answer counts as failed, if it does. `want` is the oracle's
/// value, known only once the writers have flushed.
fn judge(a: &ServedAnswer, want: Option<f64>) -> Option<&'static str> {
    if a.miss {
        Some("miss")
    } else if a.degraded {
        Some("degraded")
    } else if a.expired {
        Some("expired")
    } else if a.coverage < 1.0 {
        Some("coverage < 1")
    } else if !(a.lower <= a.value && a.value <= a.upper) {
        Some("value outside [lower, upper]")
    } else if want.is_some_and(|w| w.to_bits() != a.value.to_bits()) {
        Some("not bit-identical to the oracle")
    } else {
        None
    }
}

/// Closed loop: cycles `specs` from index `first`, keeping [`WINDOW`]
/// submissions outstanding and waiting for them in order.
pub fn query_loop(
    rt: &Runtime,
    specs: &[Spec],
    first: usize,
    stop: Stop,
    want: Option<&[f64]>,
    failures: &mut Failures,
    mut tracer: Option<&mut Tracer>,
) -> QueryRun {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut submitted = 0usize;
    let mut open = true;
    loop {
        while open && inflight.len() < WINDOW {
            let idx = (first + submitted) % specs.len();
            let query = specs[idx].query.clone();
            let t0 = Instant::now();
            open = match stop {
                Stop::At(end) => t0 < end,
                Stop::Count(n) => submitted < n,
            };
            if !open {
                break;
            }
            let pending = rt.submit(query);
            let t1 = if tracer.is_some() { Instant::now() } else { t0 };
            inflight.push_back((idx, submitted as u64, t0, t1, pending));
            submitted += 1;
        }
        let Some((idx, op, t0, t1, pending)) = inflight.pop_front() else { break };
        let w0 = if tracer.is_some() { Instant::now() } else { t0 };
        let answer = pending.wait();
        let done = Instant::now();
        samples.push((done - t0).as_nanos() as u64);
        if let Some(tr) = tracer.as_deref_mut() {
            let root = tr.push("query", op, 0, tr.at(t0), tr.at(done));
            tr.push("runtime.submit", op, root, tr.at(t0), tr.at(t1));
            tr.push("runtime.wait", op, root, tr.at(w0), tr.at(done));
        }
        if let Some(why) = judge(&answer, want.map(|w| w[idx])) {
            failures.add(1, || {
                let q = &specs[idx].query;
                format!(
                    "query {why}: spec #{idx} {:?} {:?} rect {:?} -> value {} in [{}, {}] \
                     coverage {} (oracle {:?})",
                    q.kind,
                    q.approx,
                    q.region.rect,
                    answer.value,
                    answer.lower,
                    answer.upper,
                    answer.coverage,
                    want.map(|w| w[idx])
                )
            });
        }
    }
    QueryRun { elapsed: start.elapsed(), samples }
}

pub struct IngestRun {
    start: Instant,
    pub events: u64,
    /// First `ingest_batch` call to `flush_ingest` returning.
    pub elapsed: Duration,
    /// Duration of each `ingest_batch` call, ns.
    pub call_ns: Vec<u64>,
    /// Paced writer only: how late each batch started, and its latency from
    /// when it was due to `ingest_batch` returning, ns.
    pub late_ns: Vec<u64>,
    pub from_due_ns: Vec<u64>,
    pub flush: Duration,
}

impl IngestRun {
    fn begin(events: u64) -> Self {
        IngestRun {
            start: Instant::now(),
            events,
            elapsed: Duration::ZERO,
            call_ns: Vec::new(),
            late_ns: Vec::new(),
            from_due_ns: Vec::new(),
            flush: Duration::ZERO,
        }
    }
}

fn ingest_one(
    rt: &Runtime,
    batch: &[Crossing],
    op: u64,
    run: &mut IngestRun,
    failures: &mut Failures,
    tracer: &mut Option<&mut Tracer>,
) -> Instant {
    let t0 = Instant::now();
    let report = rt.ingest_batch(batch);
    let done = Instant::now();
    run.call_ns.push((done - t0).as_nanos() as u64);
    if let Some(tr) = tracer.as_deref_mut() {
        tr.push("runtime.ingest_batch", op, 0, tr.at(t0), tr.at(done));
    }
    if report.rejected > 0 {
        failures.add(report.rejected as u64, || {
            format!("write rejected: {} events of batch {op}", report.rejected)
        });
    }
    done
}

fn flush(rt: &Runtime, run: &mut IngestRun, tracer: &mut Option<&mut Tracer>) {
    let t0 = Instant::now();
    rt.flush_ingest();
    run.flush = t0.elapsed();
    run.elapsed = run.start.elapsed();
    if let Some(tr) = tracer.as_deref_mut() {
        tr.push("runtime.flush_ingest", run.call_ns.len() as u64, 0, tr.at(t0), tr.now_ns());
    }
}

/// Writes `events` in [`BATCH`]-sized calls as fast as they are accepted,
/// draining the subscription channels between calls, then flushes.
pub fn ingest_saturating(
    rt: &Runtime,
    events: &[Crossing],
    subs: &[SubscriptionHandle],
    failures: &mut Failures,
    mut tracer: Option<&mut Tracer>,
) -> IngestRun {
    let mut run = IngestRun::begin(events.len() as u64);
    for (op, batch) in events.chunks(BATCH).enumerate() {
        ingest_one(rt, batch, op as u64, &mut run, failures, &mut tracer);
        drain(subs);
    }
    flush(rt, &mut run, &mut tracer);
    run
}

/// Open loop: one batch every `BATCH / PACED_EPS` seconds from `first`
/// event on, each timed from when it was due, whether or not the runtime
/// kept up. Stops scheduling at `until`, then flushes.
pub fn ingest_paced(
    rt: &Runtime,
    stream: &EventStream,
    first: u64,
    until: Instant,
    subs: &[SubscriptionHandle],
    failures: &mut Failures,
    mut tracer: Option<&mut Tracer>,
) -> IngestRun {
    let period = Duration::from_secs_f64(BATCH as f64 / PACED_EPS);
    let mut run = IngestRun::begin(0);
    let mut buf = Vec::with_capacity(BATCH);
    for op in 0u32.. {
        let due = run.start + period * op;
        if due >= until {
            break;
        }
        stream.fill(first + run.events, BATCH, &mut buf);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        run.late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        let done = ingest_one(rt, &buf, u64::from(op), &mut run, failures, &mut tracer);
        run.from_due_ns.push((done - due).as_nanos() as u64);
        run.events += BATCH as u64;
        drain(subs);
    }
    flush(rt, &mut run, &mut tracer);
    run
}
