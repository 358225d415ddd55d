use super::*;

#[test]
fn histogram_quantiles_bound_samples() {
    let h = Histogram::default();
    for us in [1u64, 2, 3, 100, 200, 100_000] {
        h.record(us);
    }
    assert_eq!(h.len(), 6);
    // p50 of {1,2,3,100,200,100000}: 3rd sample = 3 → bucket edge 4.
    assert_eq!(h.quantile_us(0.5), 4);
    // p99 lands in the largest sample's bucket: 2^17 = 131072 ≥ 100000.
    assert_eq!(h.quantile_us(0.99), 131_072);
    assert!(h.quantile_us(0.0) >= 1);
}

#[test]
fn empty_histogram_is_zero() {
    let h = Histogram::default();
    assert!(h.is_empty());
    assert_eq!(h.quantile_us(0.99), 0);
}

#[test]
fn trace_ring_is_bounded() {
    let m = Metrics::new();
    for i in 0..(TRACE_CAP as u64 + 50) {
        m.trace(QueryTrace {
            query_id: i,
            shards: 1,
            retries: 0,
            coverage: 1.0,
            latency_us: 10,
            plan_us: 2,
            plan_cache_hit: false,
            degraded: false,
            miss: false,
            strategy: "none",
            brownout: 0,
            expired: false,
        });
    }
    let traces = m.recent_traces();
    assert_eq!(traces.len(), TRACE_CAP);
    assert_eq!(traces[0].query_id, 50, "oldest entries evicted first");
}

#[test]
fn histogram_top_bucket_saturates() {
    let h = Histogram::default();
    // Everything at or beyond 2^63 µs lands in (and never overflows)
    // the final bucket; the quantile reports that bucket's edge.
    for us in [u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) - 1] {
        h.record(us);
    }
    assert_eq!(h.len(), 4);
    assert_eq!(h.quantile_us(1.0), 1u64 << 63);
    assert_eq!(h.quantile_us(0.0), 1u64 << 63);
}

#[test]
fn histogram_zero_sample_and_monotone_quantiles() {
    let h = Histogram::default();
    h.record(0); // 0 leading-zero trick: 0 → bucket 0, edge 0
    assert_eq!(h.quantile_us(0.5), 0);
    for us in [1u64, 7, 500, 1 << 40] {
        h.record(us);
    }
    let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0].iter().map(|&q| h.quantile_us(q)).collect();
    assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be monotone: {qs:?}");
    // Out-of-range q is clamped, not panicked on.
    assert_eq!(h.quantile_us(-3.0), h.quantile_us(0.0));
    assert_eq!(h.quantile_us(42.0), h.quantile_us(1.0));
}

#[test]
fn trace_ring_wraps_exactly_at_capacity() {
    let mk = |id: u64| QueryTrace {
        query_id: id,
        shards: 1,
        retries: 0,
        coverage: 1.0,
        latency_us: 10,
        plan_us: 2,
        plan_cache_hit: id % 2 == 0,
        degraded: false,
        miss: false,
        strategy: "none",
        brownout: 0,
        expired: false,
    };
    let m = Metrics::new();
    for i in 0..TRACE_CAP as u64 {
        m.trace(mk(i));
    }
    // Exactly full: nothing evicted yet.
    let t = m.recent_traces();
    assert_eq!(t.len(), TRACE_CAP);
    assert_eq!(t[0].query_id, 0);
    // One more evicts exactly the oldest.
    m.trace(mk(TRACE_CAP as u64));
    let t = m.recent_traces();
    assert_eq!(t.len(), TRACE_CAP);
    assert_eq!(t[0].query_id, 1);
    assert_eq!(t[TRACE_CAP - 1].query_id, TRACE_CAP as u64);
}

#[test]
fn durability_counters_round_trip_report() {
    let m = Metrics::new();
    Metrics::add(&m.ingested, 100);
    Metrics::add(&m.wal_appends, 100);
    Metrics::bump(&m.snapshots_taken);
    Metrics::bump(&m.shard_respawns);
    Metrics::add(&m.wal_replayed, 40);
    Metrics::add(&m.redo_replayed, 5);
    Metrics::add(&m.late_dropped, 4);
    m.recovery_us.record(800);
    let r = m.report();
    assert_eq!(r.ingested, 100);
    assert_eq!(r.snapshots_taken, 1);
    assert_eq!(r.shard_respawns, 1);
    let text = r.to_string();
    assert!(text.contains("wal appends 100"));
    assert!(text.contains("respawns 1"));
    assert!(text.contains("late events 4\n"));
    // Pre-existing lines keep their shape (additive change only).
    assert!(text.contains("latency p50"));
}

#[test]
fn engine_counters_round_trip_report() {
    let m = Metrics::new();
    Metrics::add(&m.plan_cache_hits, 7);
    Metrics::add(&m.plan_cache_misses, 3);
    Metrics::bump(&m.plan_invalidations);
    m.plan_latency.record(12);
    m.execute_latency.record(700);
    let r = m.report();
    assert_eq!(r.plan_cache_hits, 7);
    assert_eq!(r.plan_cache_misses, 3);
    assert_eq!(r.plan_invalidations, 1);
    assert!(r.plan_p95_us >= 12);
    assert!(r.execute_p95_us >= 700);
    let text = r.to_string();
    assert!(text.contains("plan hits 7 misses 3 invalidations 1"));
    // Pre-existing lines keep their shape (additive change only).
    assert!(text.contains("latency p50"));
    assert!(text.contains("queries 0"));
}

#[test]
fn subscription_counters_round_trip_report() {
    let m = Metrics::new();
    m.subscriptions.store(3, Ordering::Relaxed);
    Metrics::add(&m.deltas_pushed, 41);
    Metrics::add(&m.sub_resnapshots, 6);
    m.sub_epoch.store(2, Ordering::Relaxed);
    m.delta_push_latency.record(9);
    let r = m.report();
    assert_eq!(r.subscriptions, 3);
    assert_eq!(r.deltas_pushed, 41);
    assert_eq!(r.sub_resnapshots, 6);
    assert_eq!(r.sub_epoch, 2);
    assert!(r.delta_push_p95_us >= 9);
    let text = r.to_string();
    assert!(text.contains("subscriptions 3"));
    assert!(text.contains("deltas pushed 41"));
    assert!(text.contains("resnapshots 6"));
    // Pre-existing lines keep their shape (additive change only).
    assert!(text.contains("latency p50"));
    assert!(text.contains("plan hits"));
}

#[test]
fn subscription_trace_ring_is_bounded() {
    let m = Metrics::new();
    for i in 0..(TRACE_CAP as u64 + 10) {
        m.trace_subscription(SubscriptionTrace {
            subscription: i,
            epoch: 0,
            value: 1.0,
            lower: 1.0,
            upper: 1.0,
            cause: "registered",
        });
    }
    let traces = m.recent_subscription_traces();
    assert_eq!(traces.len(), TRACE_CAP);
    assert_eq!(traces[0].subscription, 10, "oldest entries evicted first");
    assert_eq!(traces.last().unwrap().cause, "registered");
}

#[test]
fn degraded_mode_counters_round_trip_report() {
    let m = Metrics::new();
    m.quarantined_edges.store(14, Ordering::Relaxed);
    Metrics::bump(&m.degraded_demoted);
    Metrics::add(&m.degraded_detour, 2);
    Metrics::add(&m.degraded_imputed, 5);
    Metrics::bump(&m.degraded_learned);
    m.degraded_width.record(6);
    let r = m.report();
    assert_eq!(r.quarantined_edges, 14);
    assert_eq!(r.degraded_demoted, 1);
    assert_eq!(r.degraded_detour, 2);
    assert_eq!(r.degraded_imputed, 5);
    assert_eq!(r.degraded_learned, 1);
    assert!(r.degraded_width_p95 >= 6);
    let text = r.to_string();
    assert!(text.contains("quarantined edges 14"));
    assert!(text.contains("imputed 5"));
    assert!(text.contains(&format!(", width p95 {}\n", r.degraded_width_p95)));
    // Pre-existing lines keep their shape (additive change only).
    assert!(text.contains("latency p50"));
    assert!(text.contains("queries 0"));
}

#[test]
fn overload_counters_round_trip_report_at_saturation() {
    // The counter mix a saturated runtime produces: a deep queue,
    // admission rejections, expired deadlines, brownout downgrades and
    // full sheds, breaker churn, and coalesced subscription pushes.
    let m = Metrics::new();
    m.queue_depth.store(61, Ordering::Relaxed);
    Metrics::add(&m.admission_rejected, 40);
    Metrics::add(&m.deadline_expired, 9);
    Metrics::add(&m.shard_deadline_skips, 5);
    Metrics::add(&m.downgraded, 17);
    Metrics::add(&m.shed, 4);
    m.brownout_level.store(2, Ordering::Relaxed);
    Metrics::add(&m.brownout_shifts, 3);
    Metrics::add(&m.breaker_opened, 2);
    Metrics::bump(&m.breaker_half_open);
    Metrics::bump(&m.breaker_closed);
    Metrics::add(&m.breaker_skipped, 11);
    Metrics::add(&m.sub_coalesced, 6);
    let r = m.report();
    assert_eq!(r.queue_depth, 61);
    assert_eq!(r.admission_rejected, 40);
    assert_eq!(r.deadline_expired, 9);
    assert_eq!(r.shard_deadline_skips, 5);
    assert_eq!(r.downgraded, 17);
    assert_eq!(r.shed, 4);
    assert_eq!(r.brownout_level, 2);
    assert_eq!(r.brownout_shifts, 3);
    assert_eq!(r.breaker_opened, 2);
    assert_eq!(r.breaker_half_open, 1);
    assert_eq!(r.breaker_closed, 1);
    assert_eq!(r.breaker_skipped, 11);
    assert_eq!(r.sub_coalesced, 6);
    let text = r.to_string();
    assert!(text.contains("queue depth 61"));
    assert!(text.contains("rejected 40"));
    assert!(text.contains("downgraded 17"));
    assert!(text.contains("shed 4"));
    assert!(text.contains("brownout level 2 (shifts 3)"));
    assert!(text.contains("breakers: opened 2, half-open 1, closed 1, skipped 11"));
    assert!(text.contains("pushes coalesced 6"));
    // Pre-existing lines keep their shape (additive change only).
    assert!(text.contains("latency p50"));
    assert!(text.contains("queries 0"));
    assert!(text.contains("plan hits"));
}

#[test]
fn query_trace_records_brownout_and_expiry() {
    let m = Metrics::new();
    m.trace(QueryTrace {
        query_id: 7,
        shards: 0,
        retries: 0,
        coverage: 0.0,
        latency_us: 40,
        plan_us: 2,
        plan_cache_hit: true,
        degraded: true,
        miss: false,
        strategy: "none",
        brownout: 3,
        expired: true,
    });
    let t = m.recent_traces();
    assert_eq!(t.len(), 1);
    assert_eq!(t[0].brownout, 3);
    assert!(t[0].expired);
}

#[test]
fn report_snapshot_and_display() {
    let m = Metrics::new();
    Metrics::bump(&m.queries);
    Metrics::add(&m.shard_requests, 4);
    m.latency.record(900);
    let r = m.report();
    assert_eq!(r.queries, 1);
    assert_eq!(r.shard_requests, 4);
    assert_eq!(r.p50_us, 1024);
    let text = r.to_string();
    assert!(text.contains("queries 1"));
    assert!(text.contains("p50 1024us"));
}
