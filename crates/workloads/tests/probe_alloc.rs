//! Allocation discipline of the per-pass workload probes.
//!
//! The simulator calls `is_finished`, `current_fps` and
//! `next_phase_change` on every attached workload on every pass, so
//! they must not allocate, however long the run. A counting global
//! allocator pins that for every workload kind a scenario can name,
//! once each has several seconds of history — this file holds only this
//! test so no sibling test thread can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpt_units::Seconds;
use mpt_workloads::apps;
use mpt_workloads::benchmarks::{
    BasicMathLarge, BurstyCompute, ComputePhase, Nenamark, PhasedCompute, SteadyCompute, ThreeDMark,
};
use mpt_workloads::Workload;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the `System` allocator — same layout
// contract, no bookkeeping that could alias or retain the pointers; the
// counter is a relaxed atomic with no effect on allocation itself. This
// file and `crates/thermal/tests/expm_alloc.rs` are the workspace's only
// sanctioned `unsafe` outside the lint allowlist (see ci.yml's unsafe
// gate).
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

const DT: Seconds = Seconds::new(0.01);

/// One of every workload kind `mpt_core::scenario` builds, with the
/// scenario's constructors. 3DMark appears twice: mid-GT1 and mid-GT2
/// after the drive below.
fn every_kind() -> Vec<Box<dyn Workload>> {
    let phases = vec![
        ComputePhase {
            until_s: 3.0,
            rate: 1.0e9,
            threads: 1.0,
        },
        ComputePhase {
            until_s: 60.0,
            rate: 0.5e9,
            threads: 2.0,
        },
    ];
    vec![
        Box::new(apps::paper_io(1)),
        Box::new(apps::stickman_hook(2)),
        Box::new(apps::amazon(3)),
        Box::new(apps::google_hangouts(4)),
        Box::new(apps::facebook(5)),
        Box::new(ThreeDMark::with_durations(
            Seconds::new(60.0),
            Seconds::new(60.0),
        )),
        Box::new(ThreeDMark::with_durations(
            Seconds::new(2.0),
            Seconds::new(60.0),
        )),
        Box::new(Nenamark::new()),
        Box::new(BasicMathLarge::new()),
        Box::new(SteadyCompute::new("svc", 0.5e9, 1.0)),
        Box::new(BurstyCompute::new(
            "bursty",
            Seconds::new(0.5),
            Seconds::new(1.5),
        )),
        Box::new(PhasedCompute::new("phased", phases).expect("valid schedule")),
    ]
}

/// Allocations performed by 1,000 rounds of the three per-pass probes.
fn allocs_during_probes(w: &dyn Workload, now: Seconds) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        std::hint::black_box(w.is_finished());
        std::hint::black_box(w.current_fps());
        std::hint::black_box(w.next_phase_change(now));
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn per_pass_probes_allocate_nothing() {
    let mut workloads = every_kind();
    // Eight simulated seconds of base ticks, GPU delivery capped so the
    // frame pipelines run behind vsync.
    let ticks = 800;
    for w in &mut workloads {
        for i in 0..ticks {
            let now = Seconds::new(f64::from(i) * DT.value());
            let d = w.demand(now, DT);
            w.deliver(d.cpu_cycles, 0.7 * d.gpu_cycles, now, DT);
        }
    }
    let now = Seconds::new(f64::from(ticks) * DT.value());
    for w in &workloads {
        assert_eq!(
            allocs_during_probes(w.as_ref(), now),
            0,
            "{}: is_finished/current_fps/next_phase_change allocated",
            w.name()
        );
    }
    // The frame workloads really had history to scan.
    assert!(
        workloads
            .iter()
            .filter(|w| w.current_fps().is_some())
            .count()
            >= 7
    );
}
