//! Workload inputs as a pure function of `--seed`: query regions and specs,
//! standing-subscription regions, and the hotspot-skewed event stream. The
//! program under test receives only what is generated here.

use stq_core::prelude::*;
use stq_forms::BoundaryEdge;
use stq_runtime::QuerySpec;

use crate::world::{World, NUM_SHARDS, SUBSCRIPTIONS};

pub const BATCH: usize = 256;
const HOT_EDGES: usize = 64;
/// Hot edges that lie on a subscription boundary, when there are
/// subscriptions: fixing the share keeps the delta traffic per event — the
/// registry's work — the same from seed to seed.
const HOT_ROUTED: usize = 32;
const SUB_REGIONS: usize = 48;
const EVENT_DT: f64 = 1e-3;

/// splitmix64: the harness's only randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One query of a working set, with the boundary chain of its plan kept
/// from the resolvability pre-check so the oracle answer needs no recompile.
pub struct Spec {
    pub query: QuerySpec,
    pub boundary: Vec<BoundaryEdge>,
}

pub struct Inputs {
    /// The reader's working set, cycled in order.
    pub specs: Vec<Spec>,
    /// Regions of the standing subscriptions (empty: none).
    pub sub_regions: Vec<QueryRegion>,
    pub events: EventStream,
}

impl Inputs {
    pub fn boundary_edges_mean(&self) -> f64 {
        self.specs.iter().map(|s| s.boundary.len()).sum::<usize>() as f64 / self.specs.len() as f64
    }
}

/// A region with both of its plans' boundary chains.
struct Resolved {
    region: QueryRegion,
    window: (f64, f64),
    lower: Vec<BoundaryEdge>,
    upper: Vec<BoundaryEdge>,
}

/// `n` uniformly placed regions of `area_frac` of the town, each resolvable
/// under both approximations (so no query can be a miss). Twice as many are
/// drawn and the `n` whose boundary chains are closest to the draw's median
/// length are kept, so the work per query does not drift from seed to seed.
fn regions(world: &World, n: usize, area_frac: f64, seed: u64) -> Result<Vec<Resolved>, String> {
    let (sensing, sampled) = (&world.scenario.sensing, &world.sampled);
    let mut drawn: Vec<Resolved> = world
        .scenario
        .make_queries(2 * n + 8, area_frac, 1_500.0, seed)
        .into_iter()
        .filter_map(|(region, t0, t1)| {
            let lower = QueryPlan::compile(sensing, sampled, &region, Approximation::Lower);
            let upper = QueryPlan::compile(sensing, sampled, &region, Approximation::Upper);
            (!lower.miss && !upper.miss).then(|| Resolved {
                region,
                window: (t0, t1),
                lower: lower.boundary,
                upper: upper.boundary,
            })
        })
        .collect();
    if drawn.len() < n {
        return Err(format!("seed {seed}: only {} of {n} regions resolve", drawn.len()));
    }
    let size = |r: &Resolved| r.lower.len() + r.upper.len();
    let mut sizes: Vec<usize> = drawn.iter().map(size).collect();
    sizes.sort_unstable();
    let median = sizes[sizes.len() / 2];
    // Stable, so ties keep draw order and the result is a function of the seed.
    drawn.sort_by_key(|r| size(r).abs_diff(median));
    drawn.truncate(n);
    Ok(drawn)
}

/// Which era a working set's time arguments reach.
#[derive(Clone, Copy)]
enum Era {
    /// Windows inside the recorded trajectories.
    Recorded,
    /// Windows ending in the ingested era.
    Live,
}

/// First timestamp of the live era: past the last recorded crossing (the
/// trajectories overrun their nominal horizon a little), so no generated
/// event is late on any edge.
fn live_t0(world: &World) -> f64 {
    let store = world.base_store();
    let last = (0..store.num_edges())
        .flat_map(|e| [true, false].map(|fwd| store.form(e).timestamps(fwd).last().copied()))
        .flatten()
        .fold(0.0, f64::max);
    (last / 100.0).ceil() * 100.0
}

/// Snapshot / Transient / Static specs over `regions`; region `i` takes the
/// lower approximation when `i` is even, the upper when odd. Live-era time
/// arguments fall in the first 200 s (200 k events) after `live_t0`.
fn specs(
    regions: Vec<Resolved>,
    kinds_per_region: usize,
    era: Era,
    live_t0: f64,
    rng: &mut Rng,
) -> Vec<Spec> {
    let mut out = Vec::with_capacity(regions.len() * kinds_per_region);
    for (i, r) in regions.into_iter().enumerate() {
        let (approx, boundary) = if i % 2 == 0 {
            (Approximation::Lower, r.lower)
        } else {
            (Approximation::Upper, r.upper)
        };
        let (t0, t1) = r.window;
        for k in 0..kinds_per_region {
            let late = live_t0 + 200.0 * rng.unit();
            let kind = match ((i + k) % 3, era) {
                (0, Era::Recorded) => QueryKind::Snapshot(t0),
                (1, Era::Recorded) => QueryKind::Transient(t0, t1),
                (_, Era::Recorded) => QueryKind::Static(t0, t1),
                (0, Era::Live) => QueryKind::Snapshot(late),
                (1, Era::Live) => QueryKind::Transient(t0, late),
                (_, Era::Live) => QueryKind::Static(t1, late),
            };
            out.push(Spec {
                query: QuerySpec::new(r.region.clone(), kind, approx),
                boundary: boundary.clone(),
            });
        }
    }
    out
}

/// The hotspot-skewed stream: 80 % of events fall on [`HOT_EDGES`] edges
/// that all live on shard 0 under the modulo map, the rest anywhere. Event
/// `i` is a pure function of `(seed, i)` and times rise with `i`, so no
/// event is late and any slice can be regenerated for the oracle.
pub struct EventStream {
    seed: u64,
    t0: f64,
    hot: Vec<usize>,
    num_edges: usize,
}

impl EventStream {
    pub fn event(&self, i: u64) -> Crossing {
        let h = Rng::new(self.seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next();
        let edge = if !h.is_multiple_of(5) {
            self.hot[(h >> 8) as usize % self.hot.len()]
        } else {
            (h >> 16) as usize % self.num_edges
        };
        Crossing { time: self.t0 + i as f64 * EVENT_DT, edge, forward: (h >> 4) & 1 == 0 }
    }

    /// Replaces `buf` with events `first .. first + n`.
    pub fn fill(&self, first: u64, n: usize, buf: &mut Vec<Crossing>) {
        buf.clear();
        buf.extend((first..first + n as u64).map(|i| self.event(i)));
    }
}

/// Picks the hot edges on shard 0: [`HOT_ROUTED`] of them with exactly one
/// subscribed region listening (when there are subscriptions), the rest
/// with none.
fn event_stream(
    world: &World,
    sub_boundaries: &[Vec<BoundaryEdge>],
    t0: f64,
    seed: u64,
) -> Result<EventStream, String> {
    let num_edges = world.scenario.sensing.num_edges();
    let mut listeners = vec![0usize; num_edges];
    for k in 0..if sub_boundaries.is_empty() { 0 } else { SUBSCRIPTIONS } {
        for be in &sub_boundaries[k % sub_boundaries.len()] {
            listeners[be.edge] += 1;
        }
    }
    let one_region = SUBSCRIPTIONS.div_ceil(SUB_REGIONS);
    let mut rng = Rng::new(seed ^ 0x4852);
    let mut pick = |want: usize, keep: &dyn Fn(usize) -> bool| -> Result<Vec<usize>, String> {
        let mut pool: Vec<usize> =
            (0..num_edges).step_by(NUM_SHARDS).filter(|&e| keep(listeners[e])).collect();
        if pool.len() < want {
            return Err(format!("seed {seed}: {} candidate hot edges, need {want}", pool.len()));
        }
        for i in 0..want {
            let j = i + rng.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(want);
        Ok(pool)
    };
    let routed = if sub_boundaries.is_empty() { 0 } else { HOT_ROUTED };
    let mut hot = pick(routed, &|l| (1..=one_region).contains(&l))?;
    hot.extend(pick(HOT_EDGES - routed, &|l| l == 0)?);
    Ok(EventStream { seed, t0, hot, num_edges })
}

/// Everything `workload` feeds the runtime, or why this seed cannot make it.
pub fn inputs(world: &World, workload: &str, seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed ^ 0x7370_6563);
    let t0 = live_t0(world);
    let sub_regions = |rng: &mut Rng| regions(world, SUB_REGIONS, 0.015, seed ^ rng.next());
    let (specs, subs) = match workload {
        "query-hot" => {
            (specs(regions(world, 32, 0.015, seed)?, 3, Era::Recorded, t0, &mut rng), vec![])
        }
        "query-cold" => {
            (specs(regions(world, 4_096, 0.08, seed)?, 1, Era::Recorded, t0, &mut rng), vec![])
        }
        // Nothing reads during the ingest; the working set is the read-back
        // that follows each repetition's flush.
        "ingest-durable" => {
            let subs = sub_regions(&mut rng)?;
            let readback = regions(world, SUB_REGIONS, 0.015, seed ^ 0x7262)?;
            (specs(readback, 3, Era::Live, t0, &mut rng), subs)
        }
        "mixed-live" => {
            let subs = sub_regions(&mut rng)?;
            (specs(regions(world, 32, 0.015, seed)?, 3, Era::Live, t0, &mut rng), subs)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let sub_boundaries: Vec<Vec<BoundaryEdge>> = subs.iter().map(|r| r.lower.clone()).collect();
    let events = event_stream(world, &sub_boundaries, t0, seed)?;
    Ok(Inputs { specs, sub_regions: subs.into_iter().map(|r| r.region).collect(), events })
}
