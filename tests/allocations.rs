//! Allocation regression checks for the detailed core, counted by a
//! wrapper around the system allocator. Counts are per thread, so tests
//! that the harness runs in parallel do not see each other's allocations.

use lf_compiler::{annotate, SelectOptions};
use lf_isa::{Memory, ProgramBuilder};
use lf_workloads::Scale;
use loopfrog::{LoopFrogConfig, LoopFrogCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation (growth by `realloc` included) on the calling
/// thread, then defers to [`System`].
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only a const-initialised
// thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Building a core allocates a fixed number of blocks, whatever the cache
/// sizes: the tags of a cache are one block, not one per set.
#[test]
fn core_construction_allocations_do_not_grow_with_the_l2() {
    let mut b = ProgramBuilder::new();
    b.halt();
    let program = b.build().expect("valid program");
    let count = |l2_bytes: usize| {
        let mut cfg = LoopFrogConfig::default();
        cfg.mem.l2.size = l2_bytes;
        let mem = Memory::new(64);
        let before = allocations();
        let core = LoopFrogCore::new(&program, mem, cfg);
        let n = allocations() - before;
        drop(core);
        n
    };
    // A first build may initialise per-thread state; compare later ones.
    count(64 << 10);
    assert_eq!(count(64 << 10), count(4 << 20));
}

/// Once a baseline run is warm, its cycle loop hardly allocates: over the
/// second half of each run of the `lf-bench perf` smoke basket (split by
/// committed instructions), fewer than one allocation per ten cycles.
#[test]
fn base_config_cycle_loop_allocates_under_a_tenth_per_cycle() {
    for name in lf_bench::perf::BASKET {
        let w = lf_workloads::by_name(name, Scale::Smoke).expect("basket kernel");
        let emu = w.reference_emulator().expect("basket kernel runs");
        let ann = annotate(&w.program, emu.profile(), &SelectOptions::default());
        let mut core = LoopFrogCore::new(&ann.program, w.mem.clone(), LoopFrogConfig::baseline());
        core.run_until_committed(emu.inst_count() / 2).expect("first half runs");
        let (allocs, cycle) = (allocations(), core.cycle());
        core.run_until_committed(u64::MAX).expect("second half runs");
        let per_cycle = (allocations() - allocs) as f64 / (core.cycle() - cycle) as f64;
        assert!(per_cycle < 0.1, "{name}: {per_cycle:.3} allocations per simulated cycle");
    }
}
