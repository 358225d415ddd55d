//! Differential properties of the subscription registry: delta-maintained
//! brackets are **bit-identical** to re-executing the compiled plan against
//! a reference store that applies the exact shard accept rule — through
//! random streams with late events, on clean and quarantined deployments,
//! across epoch boundaries.
//!
//! `standing_registry_suite` is the CI entry point: `STQ_STANDING_SEED`
//! re-keys the whole scenario, so a matrix over seeds exercises different
//! cities, deployments and streams against the same assertions.

use std::sync::Arc;

use crossbeam::channel::Receiver;
use proptest::prelude::*;
use stq_core::engine::{QueryEngine, QueryPlan};
use stq_core::prelude::*;
use stq_core::tracker::Crossing;
use stq_forms::FormStore;
use stq_subscribe::{
    BracketUpdate, StandingBracket, SubscribeError, SubscriptionId, SubscriptionRegistry,
    UpdateCause,
};

/// A snapshot instant past every event either side will ever ingest: the
/// standing bracket tracks *live net occupancy*, i.e. the snapshot fold at
/// any time beyond the stream horizon.
const T_LATE: f64 = 1.0e15;

fn small_scenario() -> impl Strategy<Value = Scenario> {
    (60usize..140, 0u64..200, 2usize..8).prop_map(|(junctions, seed, objs)| {
        Scenario::build(ScenarioConfig {
            junctions,
            mix: WorkloadMix { random_waypoint: objs, commuter: objs, transit: objs / 2 },
            trajectory: TrajectoryConfig {
                speed: 8.0,
                pause: 30.0,
                duration: 1_500.0,
                exit_probability: 0.2,
            },
            seed,
            ..Default::default()
        })
    })
}

fn deployment(s: &Scenario, frac: f64, seed: u64) -> SampledGraph {
    let cands = s.sensing.sensor_candidates();
    let m = ((cands.len() as f64 * frac) as usize).max(3);
    let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, seed);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation)
}

/// Every `stride`-th monitored edge — the quarantine list the runtime hands
/// its shards (`Runtime::with_quarantine` keeps the graph, refuses edges).
fn quarantine_list(g: &SampledGraph, stride: usize) -> Vec<usize> {
    g.monitored()
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .map(|(e, _)| e)
        .step_by(stride)
        .collect()
}

fn monitored_edges(g: &SampledGraph) -> Vec<usize> {
    g.monitored().iter().enumerate().filter(|&(_, &on)| on).map(|(e, _)| e).collect()
}

/// A deterministic post-history stream over the monitored edges: mostly
/// monotone times, with every 11th event thrown far into the past so the
/// watermark mirror (the `apply_crossing` accept rule) gets exercised.
fn stream(edges: &[usize], n: usize, t0: f64, salt: u64) -> Vec<Crossing> {
    (0..n)
        .map(|i| {
            let k = (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(salt);
            let late = i % 11 == 10;
            Crossing {
                time: if late { t0 - 500.0 + (i % 7) as f64 } else { t0 + i as f64 * 0.25 },
                edge: edges[(k as usize) % edges.len()],
                forward: k & 2 == 0,
            }
        })
        .collect()
}

/// The reference model: the exact accept rule of the shard ingest path
/// (`stq_durability::apply_crossing` — reject iff strictly behind the
/// direction's last timestamp), applied to a plain [`FormStore`].
fn reference_apply(store: &mut FormStore, c: &Crossing) -> bool {
    if store.form(c.edge).timestamps(c.forward).last().is_some_and(|&last| c.time < last) {
        return false;
    }
    store.record(c.edge, c.forward, c.time);
    true
}

/// Folds the reference store into the expected `(value, lower, upper)` for
/// one plan, term by term in plan order, mirroring the serving runtime's
/// aggregation: a trusted boundary edge contributes its net count to all
/// three; a quarantined one contributes its lifetime worst case (totals of
/// *every* ingested event, late ones included) to the bounds only.
fn reference_bracket(
    plan: &stq_core::engine::QueryPlan,
    store: &FormStore,
    totals: &[[u64; 2]],
    quarantined: &[usize],
) -> (f64, f64, f64) {
    let (mut value, mut lower, mut upper) = (0.0f64, 0.0f64, 0.0f64);
    for be in &plan.boundary {
        if quarantined.contains(&be.edge) {
            let (fwd, bwd) = (totals[be.edge][0] as f64, totals[be.edge][1] as f64);
            let (t_in, t_out) = if be.inward_forward { (fwd, bwd) } else { (bwd, fwd) };
            lower -= t_out;
            upper += t_in;
        } else {
            let form = store.form(be.edge);
            let net = form.count_until(be.inward_forward, T_LATE) as f64
                - form.count_until(!be.inward_forward, T_LATE) as f64;
            value += net;
            lower += net;
            upper += net;
        }
    }
    (value, lower, upper)
}

fn assert_bits(a: f64, b: f64, ctx: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {a} vs {b}");
}

/// Bit-for-bit bracket equality, `epoch` and `deltas` included.
fn assert_same_bracket(a: &StandingBracket, b: &StandingBracket, ctx: &str) {
    assert_bits(a.value, b.value, &format!("{ctx}: value"));
    assert_bits(a.lower, b.lower, &format!("{ctx}: lower"));
    assert_bits(a.upper, b.upper, &format!("{ctx}: upper"));
    assert_eq!((a.epoch, a.deltas), (b.epoch, b.deltas), "{ctx}: epoch/deltas");
}

/// One subscription held in both registries under the same id: `plan` for
/// the reference fold, `rx` and the `last` update it delivered for the push
/// contract of the batched side.
struct Sub {
    id: SubscriptionId,
    plan: Arc<QueryPlan>,
    rx: Receiver<BracketUpdate>,
    last: BracketUpdate,
}

/// Registers one region in both registries (pushing only on the batched
/// side); `None` on a query miss.
fn subscribe_both(
    s: &Scenario,
    g: &SampledGraph,
    engine: &QueryEngine,
    [single, batched]: [&SubscriptionRegistry; 2],
    (region, approx): (&QueryRegion, Approximation),
) -> Option<Sub> {
    let (tx, rx) = crossbeam::channel::unbounded();
    let reg = match batched.subscribe(&s.sensing, g, region, approx, Some(tx)) {
        Ok(reg) => reg,
        Err(SubscribeError::Unresolvable) => return None,
    };
    let twin = single.subscribe(&s.sensing, g, region, approx, None).expect("resolved above");
    assert_eq!(twin.id, reg.id, "both registries hand out ids in step");
    let plan = engine.cached(reg.plan_id).expect("plan of a live subscription must stay cached");
    let last = rx.try_recv().expect("baseline push");
    assert_eq!((last.cause, last.subscription), (UpdateCause::Registered, reg.id));
    Some(Sub { id: reg.id, plan, rx, last })
}

/// The push contract after one `on_ingest_batch` (or epoch advance): every
/// update on a subscription's channel carries its own id, at most one of
/// them is a `Delta`, and the last one delivered so far is the live bracket.
/// Returns the ids that received a `Delta`.
fn check_pushes(batched: &SubscriptionRegistry, subs: &mut [Sub]) -> Vec<SubscriptionId> {
    let mut moved = Vec::new();
    for sub in subs {
        let mut deltas = 0;
        while let Ok(u) = sub.rx.try_recv() {
            assert_eq!(u.subscription, sub.id, "update delivered to the wrong subscriber");
            deltas += usize::from(u.cause == UpdateCause::Delta);
            sub.last = u;
        }
        assert!(deltas <= 1, "{}: {deltas} Delta pushes in one batch", sub.id);
        if deltas == 1 {
            moved.push(sub.id);
        }
        let live = batched.bracket(sub.id).expect("subscription is live");
        assert_same_bracket(&sub.last.bracket, &live, &format!("{} last push", sub.id));
    }
    moved
}

/// The core differential: run a stream through the registry one event at a
/// time, through a second registry in random-sized batches, and through the
/// reference model, side by side. Checks the reference fold bit for bit at
/// every epoch boundary (and that re-snapshot reproduces the delta-maintained
/// bracket exactly), that both registries agree on `brackets()` after every
/// batch, and the batched side's push contract — including a receiver
/// dropped mid-stream and a newcomer that takes over its slot — on one
/// graph with one quarantine list.
fn run_differential(s: &Scenario, g: &SampledGraph, quarantined: &[usize], seed: u64) {
    let engine = Arc::new(QueryEngine::new(64));
    let new_registry =
        || SubscriptionRegistry::new(Arc::clone(&engine), &s.tracked.store, quarantined.to_vec());
    let (registry, batched) = (new_registry(), new_registry());
    let both = [&registry, &batched];
    let mut store = s.tracked.store.clone();
    let mut totals: Vec<[u64; 2]> = (0..store.num_edges())
        .map(|e| [store.form(e).total(true) as u64, store.form(e).total(false) as u64])
        .collect();

    let regions = s.make_queries(4, 0.15, 300.0, seed ^ 0x99);
    let wanted: Vec<(&QueryRegion, Approximation)> = regions
        .iter()
        .flat_map(|(q, _, _)| [(q, Approximation::Lower), (q, Approximation::Upper)])
        .collect();
    let mut subs: Vec<Sub> =
        wanted.iter().filter_map(|&w| subscribe_both(s, g, &engine, both, w)).collect();
    if subs.is_empty() {
        return; // tiny deployments can miss every region; nothing to check
    }
    // A twin of the first subscription whose receiver goes away mid-stream:
    // whenever a batch moves the first one it moves the twin too, which is
    // when the dead channel must be noticed.
    let first = wanted.iter().find_map(|&w| subscribe_both(s, g, &engine, both, w));
    let Sub { id: doomed, rx: doomed_rx, .. } = first.expect("resolved a moment ago");
    let mut doomed_rx = Some(doomed_rx);

    let edges = monitored_edges(g);
    let events = stream(&edges, 400, 2_000.0, seed);
    let mut chunk_rng = seed | 1;
    for (epoch_round, round) in events.chunks(100).enumerate() {
        if epoch_round == 1 {
            doomed_rx = None;
        }
        let mut rest = round;
        while !rest.is_empty() {
            chunk_rng = chunk_rng.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            let (chunk, tail) = rest.split_at(rest.len().min(1 + (chunk_rng >> 59) as usize));
            rest = tail;
            for c in chunk {
                registry.on_ingest(c);
                totals[c.edge][usize::from(!c.forward)] += 1;
                reference_apply(&mut store, c);
            }
            batched.on_ingest_batch(chunk);
            let moved = check_pushes(&batched, &mut subs);
            if doomed_rx.is_none() && registry.bracket(doomed).is_some() {
                if moved.contains(&subs[0].id) {
                    assert!(batched.bracket(doomed).is_none(), "dead receiver outlived its batch");
                    // Keep the two registries' id sequences in step, then
                    // hand the freed slot to a different region: from here
                    // on its bracket must follow its own boundary only.
                    assert!(registry.unsubscribe(doomed));
                    let heir =
                        wanted.iter().rev().find_map(|&w| subscribe_both(s, g, &engine, both, w));
                    subs.push(heir.expect("resolved a moment ago"));
                } else {
                    assert!(batched.bracket(doomed).is_some(), "untouched, so not yet noticed");
                }
            }
            let (single, batch) = (registry.brackets(), batched.brackets());
            assert_eq!(single.len(), batch.len());
            for ((id_a, a), (id_b, b)) in single.iter().zip(&batch) {
                assert_eq!(id_a, id_b);
                assert_same_bracket(a, b, &format!("{id_a} one-by-one vs batched"));
            }
        }
        // Between-epoch check: the delta-maintained bracket equals the
        // reference fold bit for bit.
        for Sub { id, plan, .. } in &subs {
            let b = registry.bracket(*id).expect("subscription is live");
            let (v, lo, hi) = reference_bracket(plan, &store, &totals, quarantined);
            let ctx = format!("{id} round {epoch_round} pre-epoch");
            assert_bits(b.value, v, &format!("{ctx}: value"));
            assert_bits(b.lower, lo, &format!("{ctx}: lower"));
            assert_bits(b.upper, hi, &format!("{ctx}: upper"));
        }
        // Epoch boundary: re-snapshot must reproduce the incrementally
        // maintained bracket exactly — the soundness of the hand-off.
        let before = registry.brackets();
        let updates = registry.advance_epoch([]);
        assert_eq!(updates.len(), before.len());
        for (u, (id, b)) in updates.iter().zip(&before) {
            assert_eq!((u.cause, u.subscription), (UpdateCause::Resnapshot, *id));
            assert_bits(u.bracket.value, b.value, "resnapshot value");
            assert_bits(u.bracket.lower, b.lower, "resnapshot lower");
            assert_bits(u.bracket.upper, b.upper, "resnapshot upper");
            assert_eq!(u.bracket.epoch, b.epoch + 1, "epoch must advance");
            assert_eq!(u.bracket.deltas, 0, "re-snapshot resets the delta count");
        }
        batched.advance_epoch([]);
        check_pushes(&batched, &mut subs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Delta maintenance is bit-identical to the reference fold on a clean
    /// deployment, at every epoch, through late events.
    #[test]
    fn deltas_match_reexecution_clean(s in small_scenario(),
                                      frac in 0.1f64..0.5,
                                      seed in 0u64..100) {
        let g = deployment(&s, frac, seed);
        run_differential(&s, &g, &[], seed);
    }

    /// Same property with a quarantine stride: trusted edges stay exact,
    /// quarantined ones widen by the totals worst case — still bit-identical
    /// to the reference fold at every epoch.
    #[test]
    fn deltas_match_reexecution_quarantined(s in small_scenario(),
                                            frac in 0.1f64..0.5,
                                            seed in 0u64..100,
                                            stride in 2usize..6) {
        let g = deployment(&s, frac, seed);
        let q = quarantine_list(&g, stride);
        run_differential(&s, &g, &q, seed);
    }
}

/// The CI standing-equivalence job's registry half: one deterministic
/// scenario per `STQ_STANDING_SEED`, clean and quarantined, multi-epoch.
#[test]
fn standing_registry_suite() {
    let seed: u64 =
        std::env::var("STQ_STANDING_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(11);
    let s = Scenario::build(ScenarioConfig {
        junctions: 200,
        mix: WorkloadMix { random_waypoint: 10, commuter: 8, transit: 5 },
        trajectory: TrajectoryConfig {
            speed: 10.0,
            pause: 30.0,
            duration: 2_500.0,
            exit_probability: 0.15,
        },
        seed,
        ..Default::default()
    });
    let g = deployment(&s, 0.25, seed ^ 0xce);
    run_differential(&s, &g, &[], seed);
    run_differential(&s, &g, &quarantine_list(&g, 3), seed ^ 0x5a);
}

#[test]
fn late_events_do_not_move_trusted_brackets() {
    let s = Scenario::build(ScenarioConfig::default());
    let g = deployment(&s, 0.3, 7);
    let engine = Arc::new(QueryEngine::new(16));
    let registry = SubscriptionRegistry::new(Arc::clone(&engine), &s.tracked.store, []);
    let Some((q, _, _)) = s.make_queries(8, 0.2, 300.0, 17).into_iter().next() else {
        panic!("scenario must yield a region");
    };
    let reg = registry
        .subscribe(&s.sensing, &g, &q, Approximation::Upper, None)
        .expect("region resolves");
    let plan = engine.cached(reg.plan_id).expect("plan cached");
    let Some(be) = plan.boundary.first().copied() else {
        return; // empty boundary: nothing to ingest on
    };
    // An event far before the edge's recorded history is late in a non-empty
    // direction: totals grow, the trusted bracket must not move.
    let dir_nonempty = s.tracked.store.form(be.edge).total(true) > 0;
    if !dir_nonempty {
        return;
    }
    let before = registry.bracket(reg.id).unwrap();
    let obs = registry.on_ingest(&Crossing { time: -1.0e12, edge: be.edge, forward: true });
    assert!(obs.late, "event behind the watermark must be flagged late");
    let after = registry.bracket(reg.id).unwrap();
    assert_eq!(before, after, "late event on a trusted edge must not move the bracket");
    assert_eq!(registry.stats().late_ignored, 1);
}

#[test]
fn shed_pushes_coalesce_on_relax() {
    let s = Scenario::build(ScenarioConfig::default());
    let g = deployment(&s, 0.3, 7);
    let engine = Arc::new(QueryEngine::new(16));
    let registry = SubscriptionRegistry::new(Arc::clone(&engine), &s.tracked.store, []);
    let (tx, rx) = crossbeam::channel::unbounded();
    let (reg, be) = s
        .make_queries(8, 0.2, 300.0, 29)
        .into_iter()
        .find_map(|(q, _, _)| {
            let reg = registry
                .subscribe(&s.sensing, &g, &q, Approximation::Upper, Some(tx.clone()))
                .ok()?;
            match engine.cached(reg.plan_id).expect("plan cached").boundary.first().copied() {
                Some(be) => Some((reg, be)),
                None => {
                    registry.unsubscribe(reg.id);
                    None
                }
            }
        })
        .expect("some region must resolve with a non-empty boundary");
    // Drain the Registered baselines (one per subscribe attempt that stuck).
    while let Ok(u) = rx.try_recv() {
        assert_eq!(u.cause, UpdateCause::Registered);
    }

    assert!(registry.set_shed_pushes(true).is_empty(), "turning shedding on pushes nothing");
    assert!(registry.shedding_pushes());
    // Events while shedding move the bracket but push nothing.
    for i in 0..3 {
        registry.on_ingest(&Crossing { time: 1.0e9 + i as f64, edge: be.edge, forward: true });
    }
    assert!(rx.try_recv().is_err(), "no pushes while shedding");
    assert_eq!(registry.stats().pushes_shed, 3);
    let live = registry.bracket(reg.id).expect("subscription is live");
    assert_eq!(live.deltas, 3, "brackets keep moving while pushes are shed");

    // Turning shedding off delivers exactly one Coalesced catch-up carrying
    // the current bracket — everything the subscriber missed, absorbed.
    let updates = registry.set_shed_pushes(false);
    assert_eq!(updates.len(), 1);
    let u = rx.try_recv().expect("coalesced catch-up push");
    assert_eq!(u.cause, UpdateCause::Coalesced);
    assert_eq!(u.bracket, live);
    assert!(rx.try_recv().is_err(), "exactly one catch-up push");
    assert!(!registry.shedding_pushes());
    assert!(registry.set_shed_pushes(false).is_empty(), "re-asserting off is a no-op");

    // Delta pushes resume after the relax.
    registry.on_ingest(&Crossing { time: 2.0e9, edge: be.edge, forward: true });
    assert_eq!(rx.try_recv().expect("pushes resumed").cause, UpdateCause::Delta);
}

#[test]
fn unsubscribe_and_dead_channels_clean_routes() {
    let s = Scenario::build(ScenarioConfig::default());
    let g = deployment(&s, 0.3, 7);
    let engine = Arc::new(QueryEngine::new(16));
    let registry = SubscriptionRegistry::new(Arc::clone(&engine), &s.tracked.store, []);
    let Some((q, _, _)) = s.make_queries(8, 0.2, 300.0, 23).into_iter().next() else {
        panic!("scenario must yield a region");
    };
    let (tx, rx) = crossbeam::channel::unbounded();
    let a = registry.subscribe(&s.sensing, &g, &q, Approximation::Upper, Some(tx)).unwrap();
    let b = registry.subscribe(&s.sensing, &g, &q, Approximation::Upper, None).unwrap();
    assert!(b.plan_cache_hit, "second subscription on the same region reuses the plan");
    assert_eq!(registry.len(), 2);

    // The push channel delivered the baseline.
    let first = rx.recv().expect("baseline update");
    assert_eq!(first.cause, UpdateCause::Registered);
    assert_eq!(first.subscription, a.id);

    assert!(registry.unsubscribe(b.id));
    assert!(!registry.unsubscribe(b.id), "double unsubscribe reports absence");
    assert_eq!(registry.len(), 1);

    // Dropping the receiver auto-unsubscribes on the next push attempt.
    drop(rx);
    let plan = engine.cached(a.plan_id).expect("plan cached");
    if let Some(be) = plan.boundary.first().copied() {
        registry.on_ingest(&Crossing { time: 1.0e9, edge: be.edge, forward: true });
        assert_eq!(registry.len(), 0, "dead push channel implies unsubscribe");
    }
}
