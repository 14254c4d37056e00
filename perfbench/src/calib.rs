//! Host-speed calibration. On a shared host the benchmark's speed
//! drifts by up to 2x: other tenants contend for each core's execution
//! units and caches, in spells from a fraction of a second to minutes,
//! independently on each core. No statistic over one run's samples
//! removes the long spells. So a fixed kernel of the benchmark's own,
//! independent of the workspace code, is timed on the measuring thread
//! at the edges of every measured segment (at most [`SEGMENT_S`] long),
//! or for work spread over threads every [`SEGMENT_S`] during it, and
//! each segment's host seconds are reported at the reference speed:
//! scaled by `REFERENCE_KERNEL_S` over the mean kernel time. A change to
//! the program moves the segment times and leaves the kernel alone, so
//! the scaled times move with it. Kernel time on the measuring thread is
//! never inside a segment.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Host seconds one kernel pass takes at the reference speed: about its
/// time in uncontended spells on the 2-vCPU Xeon VM the baseline was
/// measured on, so reference seconds read close to host seconds there.
pub const REFERENCE_KERNEL_S: f64 = 2.5e-4;

/// Kernel passes per calibration point; the point is their median.
const PASSES: usize = 5;

/// Longest measured segment between two calibration points, in host
/// seconds. A core's speed keeps a correlation of about 0.8 over this
/// span and about 0.5 over half a second.
pub const SEGMENT_S: f64 = 0.025;

/// One kernel pass: fills and drops ordered maps of formatted
/// sysfs-like paths to small vectors (37 keys, each written about eight
/// times), so it allocates, frees, formats, compares strings and chases
/// pointers. Of the kernels tried (dense mat-vec, cache-ring walks, byte
/// hashing, map lookups, branch mazes), its time tracked the simulator's
/// under contention most closely: against 15 ms segments of fixed-dt
/// paper scenarios a log-log slope of about 1.1 and a correlation of
/// 0.85 to 0.94; against the event engine a slope of 1.0 and a
/// correlation of 0.73.
fn pass() -> usize {
    let mut sizes = 0;
    for round in 0..4_u64 {
        let map: BTreeMap<String, Vec<u64>> = (0..300_u64)
            .map(|i| {
                (
                    format!(
                        "/sys/devices/system/cpu/cpu{}/cpufreq/scaling_{round}",
                        i % 37
                    ),
                    vec![i; 8],
                )
            })
            .collect();
        sizes += black_box(map).len();
    }
    sizes
}

/// Host seconds of one kernel pass now: the median of [`PASSES`].
fn sample() -> f64 {
    let mut times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            black_box(pass());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[PASSES / 2]
}

/// A stopwatch in reference seconds: host time between calibration
/// points, each segment scaled by the kernel's speed around it.
pub struct Meter {
    /// Kernel seconds at the last calibration point.
    last_kernel_s: f64,
    /// Start of the current segment.
    mark: Instant,
    /// Reference seconds of the closed segments since the last lap.
    lap_s: f64,
    /// The kernel seconds of every calibration point and sample.
    pub points: Vec<f64>,
    /// Whether [`Meter::poll`] may calibrate.
    polled: bool,
}

impl Meter {
    pub fn new() -> Self {
        let mut meter = Meter {
            last_kernel_s: 0.0,
            mark: Instant::now(),
            lap_s: 0.0,
            points: Vec::new(),
            polled: true,
        };
        meter.last_kernel_s = meter.calibrate();
        meter.start();
        meter
    }

    /// A meter whose [`Meter::poll`] never calibrates, so the work it
    /// times allocates the same at any host speed; its laps are coarse.
    /// The kernel's allocations, made at moments that depend on the
    /// host's speed, shift the program's heap layout and with it the
    /// process's memory high-water mark by up to 10%.
    pub fn unpolled() -> Self {
        Meter {
            polled: false,
            ..Meter::new()
        }
    }

    fn calibrate(&mut self) -> f64 {
        let kernel_s = sample();
        self.points.push(kernel_s);
        kernel_s
    }

    /// Starts a fresh lap now, discarding time since the last point.
    pub fn start(&mut self) {
        self.lap_s = 0.0;
        self.mark = Instant::now();
    }

    /// Closes the current segment, run on the calling thread, at a
    /// calibration point.
    fn close(&mut self) {
        let host_s = self.mark.elapsed().as_secs_f64();
        let kernel_s = self.calibrate();
        self.lap_s += host_s * 2.0 * REFERENCE_KERNEL_S / (self.last_kernel_s + kernel_s);
        self.last_kernel_s = kernel_s;
        self.mark = Instant::now();
    }

    /// Closes the segment if it has run [`SEGMENT_S`]; call it between
    /// steps of long work on the calling thread.
    pub fn poll(&mut self) {
        if self.polled && self.mark.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close();
        }
    }

    /// Reference seconds of work on the calling thread since the last
    /// lap (or start); starts the next.
    pub fn lap(&mut self) -> f64 {
        self.close();
        std::mem::take(&mut self.lap_s)
    }

    /// Runs `work`, spread over worker threads, as the end of the current
    /// segment, and returns its result with the lap's reference seconds.
    /// The workers give no chance to calibrate between steps, and each
    /// core drifts on its own, so a sampler thread times the kernel every
    /// [`SEGMENT_S`] meanwhile, on whichever core it is given (about 4%
    /// of one core), and the segment is scaled by the mean of those
    /// samples and the points at its two edges.
    pub fn lap_parallel<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let stop = AtomicBool::new(false);
        let (out, host_s, samples) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut samples = Vec::new();
                loop {
                    std::thread::park_timeout(Duration::from_secs_f64(SEGMENT_S));
                    if stop.load(Ordering::Relaxed) {
                        break samples;
                    }
                    samples.push(sample());
                }
            });
            let out = work();
            let host_s = self.mark.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            sampler.thread().unpark();
            (out, host_s, sampler.join().expect("sampler thread"))
        });
        let edge_s = self.last_kernel_s;
        let kernel_s = self.calibrate();
        self.points.extend(&samples);
        let mean_s = (samples.iter().sum::<f64>() + edge_s + kernel_s) / (samples.len() + 2) as f64;
        self.lap_s += host_s * REFERENCE_KERNEL_S / mean_s;
        self.last_kernel_s = kernel_s;
        self.mark = Instant::now();
        (out, std::mem::take(&mut self.lap_s))
    }
}
