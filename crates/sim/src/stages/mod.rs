//! The staged step pipeline.
//!
//! Each simulator tick runs a fixed sequence of [`SimStage`]s over the
//! shared [`SimCore`](crate::SimCore) state, passing a per-tick
//! [`StepContext`] from stage to stage:
//!
//! 1. [`govern::SysfsControlStage`] — external sysfs writes (frequency
//!    caps from their slots, queued cpuset moves) take effect.
//! 2. [`demand::DemandStage`] — workloads express demand.
//! 3. [`schedule::ScheduleStage`] — per-cluster max–min allocation and
//!    delivery back to the workloads.
//! 4. [`power::PowerStage`] — the power model plus per-process power
//!    attribution.
//! 5. [`thermal::ThermalStage`] — heat-equation integration.
//! 6. [`observe::TelemetryStage`] — time-series/residency recording.
//! 7. [`govern::GovernStage`] — cpufreq governors, the periodic thermal
//!    governor, and the optional [`SystemPolicy`](crate::SystemPolicy).
//! 8. [`observe::EventStage`] — discrete-event detection, then a publish
//!    of live state into the typed slots behind the sysfs attributes.
//! 9. [`analyze::AnalyzeStage`] — derived observables, alert rules, and
//!    the domain counter tracks (temperature/power/frequency/FPS).
//!
//! Stage-local state (governor phase accumulators, previous-pass
//! snapshots, scratch buffers) lives inside the stage structs;
//! everything shared lives in `SimCore`; everything produced and
//! consumed within one tick lives in `StepContext`.

pub mod analyze;
pub mod demand;
pub mod govern;
pub mod observe;
pub mod power;
pub mod schedule;
pub mod thermal;

use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

use mpt_kernel::{Pid, ThermalGovernor};
use mpt_soc::{ComponentId, PowerBreakdown};
use mpt_units::Seconds;
use mpt_workloads::Demand;

use crate::engine::SimCore;
use crate::queue::WakeKind;
use crate::{Result, SystemPolicy};

/// A stage's answer to "when must the pipeline run again?", used by the
/// event-driven stepping mode to size macro steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wake {
    /// This stage imposes no wake of its own.
    Never,
    /// This stage cannot predict its next change — run every base tick
    /// (frame-based workloads, pending external control writes).
    EveryTick,
    /// Run a pass ending at (or just after, once grid-quantized) `time`.
    At {
        /// Absolute simulated time of the wake.
        time: Seconds,
        /// Why the wake is needed.
        kind: WakeKind,
    },
}

impl Wake {
    /// A wake at an absolute time.
    #[must_use]
    pub fn at(time: Seconds, kind: WakeKind) -> Self {
        Wake::At { time, kind }
    }

    /// Combines two wake requests, keeping the more urgent one.
    /// [`Wake::EveryTick`] dominates (it is the earliest possible wake);
    /// [`Wake::Never`] is the identity.
    #[must_use]
    pub fn earliest(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::EveryTick, _) | (_, Wake::EveryTick) => Wake::EveryTick,
            (Wake::Never, w) | (w, Wake::Never) => w,
            (Wake::At { time: a, kind }, Wake::At { time: b, .. }) if a <= b => {
                Wake::At { time: a, kind }
            }
            (Wake::At { .. }, w) => w,
        }
    }
}

/// One value per component, indexed by [`ComponentId`] (its position in
/// [`ComponentId::ALL`]).
#[derive(Debug, Default)]
pub struct PerComponent<T>([T; ComponentId::ALL.len()]);

impl<T> Index<ComponentId> for PerComponent<T> {
    type Output = T;

    fn index(&self, id: ComponentId) -> &T {
        &self.0[id as usize]
    }
}

impl<T> IndexMut<ComponentId> for PerComponent<T> {
    fn index_mut(&mut self, id: ComponentId) -> &mut T {
        &mut self.0[id as usize]
    }
}

/// Per-pass scratch state carried through the pipeline.
///
/// The simulator keeps one context for its whole run and
/// [`reset`](Self::reset)s it at the top of every pass, so its buffers
/// keep their capacity: earlier stages fill them and later stages
/// consume them. Per-workload slots are parallel to `demands`, which is
/// in attach order.
#[derive(Debug, Default)]
pub struct StepContext {
    /// Simulation time at the start of the tick.
    pub now: Seconds,
    /// The tick length.
    pub dt: Seconds,
    /// Whether any workload reported a touch interaction this tick.
    pub interaction: bool,
    /// Each process's demand for the tick, in attach order.
    pub demands: Vec<(Pid, Demand)>,
    /// CPU cycles actually delivered to each workload, parallel to
    /// `demands`.
    pub delivered_cpu: Vec<f64>,
    /// GPU cycles actually delivered to each workload, parallel to
    /// `demands`.
    pub delivered_gpu: Vec<f64>,
    /// Busy-core equivalents per CPU cluster (0..=core count; 0 for
    /// other components and absent clusters).
    pub cluster_busy_cores: PerComponent<f64>,
    /// Governor-visible utilization per CPU cluster (busiest-thread
    /// corrected, 0..=1; 0 for other components and absent clusters).
    pub cluster_util: PerComponent<f64>,
    /// Per-cluster delivered cycles as `(index into demands, cycles)`,
    /// in attach order.
    pub cluster_delivered: PerComponent<Vec<(usize, f64)>>,
    /// GPU utilization (0..=1).
    pub gpu_util: f64,
    /// Per-component power of this tick.
    pub powers: BTreeMap<ComponentId, PowerBreakdown>,
}

impl StepContext {
    /// Empties the context for the pass starting at `now`, keeping every
    /// buffer's capacity.
    pub fn reset(&mut self, now: Seconds, dt: Seconds) {
        self.now = now;
        self.dt = dt;
        self.interaction = false;
        self.demands.clear();
        self.delivered_cpu.clear();
        self.delivered_gpu.clear();
        self.cluster_busy_cores = PerComponent::default();
        self.cluster_util = PerComponent::default();
        for per_pid in &mut self.cluster_delivered.0 {
            per_pid.clear();
        }
        self.gpu_util = 0.0;
        self.powers.clear();
    }
}

/// One phase of the simulator tick.
///
/// Stages mutate the shared [`SimCore`] and communicate with later
/// stages through the [`StepContext`]. Implementations that need
/// per-run state (periods, previous-tick snapshots) keep it in their own
/// fields.
pub trait SimStage: std::fmt::Debug {
    /// Short stage name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the stage for one tick.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; the pipeline aborts on the first
    /// failing stage.
    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()>;

    /// Declares when this stage next needs the pipeline to run, as seen
    /// from `now` (the end of the pass that just completed). Every stage
    /// still runs on *every* pass — this only bounds how far the
    /// event-driven engine may jump. The default imposes no wake.
    fn next_wake(&mut self, core: &mut SimCore, now: Seconds) -> Wake {
        let _ = (core, now);
        Wake::Never
    }

    /// Given the tentatively chosen pass end `target`, returns an
    /// earlier time the pass must stop at instead, if this stage can
    /// predict one — the hook the thermal stage uses to report a
    /// trip-point crossing bisected out of the LTI trajectory. The
    /// default predicts nothing.
    fn refine_wake(
        &mut self,
        core: &mut SimCore,
        now: Seconds,
        target: Seconds,
    ) -> Option<Seconds> {
        let _ = (core, now, target);
        None
    }
}

/// The standard pipeline, in tick order.
pub(crate) fn default_pipeline(
    thermal_governor: Box<dyn ThermalGovernor>,
    thermal_period: Seconds,
    system_policy: Option<Box<dyn SystemPolicy>>,
) -> Vec<Box<dyn SimStage>> {
    vec![
        Box::new(govern::SysfsControlStage),
        Box::new(demand::DemandStage),
        Box::new(schedule::ScheduleStage::default()),
        Box::new(power::PowerStage::default()),
        Box::new(thermal::ThermalStage::default()),
        Box::new(observe::TelemetryStage::default()),
        Box::new(govern::GovernStage::new(
            thermal_governor,
            thermal_period,
            system_policy,
        )),
        Box::new(observe::EventStage::default()),
        Box::new(analyze::AnalyzeStage::default()),
    ]
}
