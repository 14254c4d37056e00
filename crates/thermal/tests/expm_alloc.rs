//! Allocation discipline of `linalg::expm`.
//!
//! The scaling-and-squaring build allocates exactly four matrices up
//! front (scaled input, result, Taylor term, scratch) and ping-pongs
//! between them: the Taylor loop and the squaring loop themselves must
//! not allocate, however many squarings the input norm demands. A
//! counting global allocator pins that — this file holds only this test
//! so no sibling test thread can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpt_thermal::linalg::{expm, Mat};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the `System` allocator — same layout
// contract, no bookkeeping that could alias or retain the pointers; the
// counter is a relaxed atomic with no effect on allocation itself. This
// file and `crates/workloads/tests/probe_alloc.rs` are the workspace's
// only sanctioned `unsafe` outside the lint allowlist (see ci.yml's
// unsafe gate).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we
        // forward the same layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching `alloc` above with
        // the same layout, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed while computing `expm(a)` (result dropped after
/// counting, so its own buffer is included in the count).
fn allocs_during_expm(a: &Mat) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = expm(a);
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(result);
    after - before
}

/// A stable (diagonally dominant, negative-diagonal) test matrix whose
/// infinity norm is scaled to `norm`.
fn stable_matrix(n: usize, norm: f64) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = if i == j { -1.0 } else { 0.25 / n as f64 };
        }
    }
    let row_norm: f64 = m.row(0).iter().map(|v| v.abs()).sum();
    let scale = norm / row_norm;
    for i in 0..n {
        for v in m.row_mut(i) {
            *v *= scale;
        }
    }
    m
}

#[test]
fn expm_allocates_no_intermediates() {
    // Zero squarings (norm ≤ 1/4) versus many (norm 64 ⇒ 8 squarings):
    // the allocation count must not depend on the squaring count, and
    // must be exactly the four up-front buffers.
    let calm = stable_matrix(6, 0.2);
    let hot = stable_matrix(6, 64.0);
    let calm_allocs = allocs_during_expm(&calm);
    let hot_allocs = allocs_during_expm(&hot);
    assert_eq!(
        calm_allocs, hot_allocs,
        "squaring loop must reuse its ping-pong buffers, not reallocate"
    );
    assert_eq!(calm_allocs, 4, "scaled + result + term + scratch only");
}
