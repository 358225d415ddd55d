//! A plan-cache hit allocates nothing: ROADMAP item 2's "zero heap
//! allocations per warm-cache query" target, held at the engine hop.
//!
//! A binary of its own because it replaces the global allocator with one
//! that counts. Counts are per calling thread, so the test harness's other
//! threads cannot disturb the reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use stq_core::prelude::*;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
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

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn plan_cache_hit_allocates_nothing() {
    let s = Scenario::build(ScenarioConfig {
        junctions: 140,
        mix: WorkloadMix { random_waypoint: 10, commuter: 6, transit: 4 },
        seed: 23,
        ..Default::default()
    });
    let cands = s.sensing.sensor_candidates();
    let m = (cands.len() / 4).max(3);
    let ids = stq_sampling::sample(stq_sampling::SamplingMethod::QuadTree, &cands, m, 5);
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
    let engine = QueryEngine::new(8);

    for (q, _, _) in s.make_queries(4, 0.12, 2_000.0, 7) {
        for approx in [Approximation::Lower, Approximation::Upper] {
            let ((warm, hit), cold) =
                allocations_during(|| engine.plan(&s.sensing, &g, &q, approx));
            assert!(!hit);
            assert!(cold > 0, "the counter sees a compile allocate");
            let ((again, hit), allocations) =
                allocations_during(|| engine.plan(&s.sensing, &g, &q, approx));
            assert!(hit && Arc::ptr_eq(&warm, &again));
            assert_eq!(allocations, 0, "a plan-cache hit must not touch the heap");
        }
    }
}
