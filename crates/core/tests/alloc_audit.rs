//! Heap-traffic regression audit for the search hot loop.
//!
//! The kernel's conflict path (propagate → analyze → minimize → learn →
//! backtrack) is designed to perform no per-conflict allocation in steady
//! state: analysis runs in reusable scratch buffers, the learned clause is
//! copied into the flat arena, and `seen` marks are epoch stamps rather
//! than a cleared bitmap. This test pins that property with a counting
//! global allocator: after a warm-up solve has grown every buffer, a
//! second solve window of thousands of conflicts must allocate only the
//! amortized remainder (arena doubling, watcher-list growth) — a small
//! fraction of an allocation per conflict. A regression that reintroduces
//! a per-conflict `Vec` shows up as allocations ≈ conflicts and fails
//! loudly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use csat_core::{Budget, Solver, SolverOptions, Stats};
use csat_netlist::{generators, miter};
use csat_telemetry::NoOpObserver;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_conflicts_allocate_amortized_zero() {
    // A hard UNSAT miter that conflicts indefinitely under a budget.
    let m = miter::self_miter(&generators::array_multiplier(10), Default::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::default());

    // Warm-up: grow the arena, watcher lists, scratch buffers and heaps.
    let warmup = Budget::conflicts(20000);
    let _ = solver.solve_observed(m.objective, &warmup, &mut NoOpObserver);
    let stats_before: Stats = *solver.stats();
    assert!(
        stats_before.conflicts >= 20000,
        "warm-up did not reach its conflict budget: {stats_before:?}"
    );

    // Measurement window: as many conflicts again, on the warm solver.
    let before = allocations();
    let _ = solver.solve_observed(m.objective, &warmup, &mut NoOpObserver);
    let allocs = allocations() - before;
    let conflicts = solver.stats().conflicts - stats_before.conflicts;

    assert!(
        conflicts >= 20000,
        "window too small: {conflicts} conflicts"
    );
    // Amortized-zero: a small fraction of an allocation per conflict.
    // The budget covers arena doubling and watcher lists growing with the
    // (still-expanding) clause database; a reintroduced per-conflict Vec
    // would cost one allocation per conflict and overshoot this budget
    // four-fold.
    let budget = conflicts / 4 + 64;
    assert!(
        allocs <= budget,
        "steady-state heap traffic regressed: {allocs} allocations \
         over {conflicts} conflicts (budget {budget})"
    );
}
