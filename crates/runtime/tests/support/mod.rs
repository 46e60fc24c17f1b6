//! Shared test support:
//!
//! * a global allocator that counts, per thread, the allocations and
//!   bytes requested, so a test can assert that a lookup allocates
//!   nothing (or nothing in proportion to an id's value);
//! * [`CdfRouter`], the reference inverse-CDF router that alias-table
//!   routing is checked against.
//!
//! Each test binary compiles its own copy of this module and uses only
//! part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gtlb_runtime::{NodeId, RoutingTable, MAX_BELOW_ONE};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations and
/// the bytes requested on this thread while it ran.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

/// The reference inverse-CDF router: `O(log n)` `partition_point` over
/// a routing table's cumulative distribution. It selects node `i` with
/// probability `p_i`, like the table's alias path, but maps draws to
/// nodes differently.
pub struct CdfRouter {
    nodes: Vec<NodeId>,
    cum: Vec<f64>,
}

impl CdfRouter {
    /// The cumulative distribution of `table`: a serial prefix sum,
    /// pinned to exactly 1.0 from the last positive-probability node
    /// onward — draws arbitrarily close to 1 land on a node despite
    /// rounding in the partial sums, and trailing zero-probability
    /// nodes can never capture the rounding sliver below 1 (their
    /// pinned cum is never `<= u` for `u < 1`).
    ///
    /// # Panics
    /// If `table` is the empty placeholder.
    pub fn new(table: &RoutingTable) -> Self {
        let probs = table.probs();
        let mut cum = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in probs {
            acc += p;
            cum.push(acc);
        }
        let last_positive = probs.iter().rposition(|&p| p > 0.0).expect("total > 0");
        for c in cum.iter_mut().skip(last_positive) {
            *c = 1.0;
        }
        Self { nodes: table.nodes().to_vec(), cum }
    }

    /// Routes one draw. Draws are clamped to the largest `f64` below
    /// one, so `u = 1.0` lands on the last node; non-finite draws pin
    /// to `0.0`, as in the alias path.
    pub fn route(&self, u: f64) -> NodeId {
        // NaN defeats `clamp` (NaN.clamp is NaN) and would make
        // `partition_point` return index 0 — possibly a leading
        // zero-probability node; pin non-finite draws to 0.0 instead
        // (a zero-prob leading node has `cum == 0.0 <= u`, so it is
        // still skipped).
        let u = if u.is_finite() { u.clamp(0.0, MAX_BELOW_ONE) } else { 0.0 };
        let i = self.cum.partition_point(|&c| c <= u).min(self.nodes.len() - 1);
        self.nodes[i]
    }
}
