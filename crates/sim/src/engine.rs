//! The simulation engine: shared core state plus the staged pipeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use mpt_kernel::{CpuFreqPolicy, Pid, Scheduler, ThermalAction};
use mpt_obs::{Counter, HistId, Recorder};
use mpt_soc::{Component, ComponentId, Platform, PowerBreakdown};
use mpt_sysfs::{Attribute, SysFs};
use mpt_thermal::RcNetwork;
use mpt_units::{Celsius, Hertz, Kelvin, Seconds, Watts};
use mpt_workloads::Workload;

use crate::analysis::RunAnalysis;
use crate::clock::SimClock;
use crate::queue::{EventQueue, WakeKind};
use crate::stages::{SimStage, StepContext, Wake};
use crate::{Event, EventKind, EventLog, Result, Telemetry};

/// How the simulator advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// The classic loop: one pipeline pass per base tick, always.
    #[default]
    FixedDt,
    /// The macro-stepper: between scheduled events (governor polls,
    /// phase changes, sample points, alert deadlines, predicted trip
    /// crossings) the thermal/power state jumps analytically in one
    /// solver call over a multi-tick gap.
    EventDriven,
}

impl SteppingMode {
    /// Stable lowercase key (`"fixed"` / `"event"`), as accepted by
    /// `--engine` and the scenario `"engine"` field.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            SteppingMode::FixedDt => "fixed",
            SteppingMode::EventDriven => "event",
        }
    }
}

impl std::fmt::Display for SteppingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

impl std::str::FromStr for SteppingMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "fixed" => Ok(SteppingMode::FixedDt),
            "event" => Ok(SteppingMode::EventDriven),
            other => Err(format!(
                "unknown engine {other:?}; use \"fixed\" or \"event\""
            )),
        }
    }
}

pub(crate) struct Attached {
    pub(crate) pid: Pid,
    pub(crate) workload: Box<dyn Workload>,
}

/// Appends a discrete event and bumps its per-kind counter — the one
/// place the event log and the metrics snapshot are kept in step (the
/// kind-to-counter mapping is [`Counter::for_event_kind`] over
/// [`EventKind::key`]). A free function over the two fields so call
/// sites holding other `SimCore` borrows can still log.
pub(crate) fn log_event(recorder: &Recorder, events: &mut EventLog, event: Event) {
    if let Some(counter) = Counter::for_event_kind(event.kind.key()) {
        recorder.incr(counter);
    }
    events.push(event);
}

impl std::fmt::Debug for Attached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attached")
            .field("pid", &self.pid)
            .field("workload", &self.workload.name())
            .finish()
    }
}

/// The shared simulation state every [`SimStage`] operates on: the
/// platform, the live thermal network, the process table, per-component
/// cpufreq policies, attached workloads, telemetry, the event log, and
/// the sysfs control plane.
///
/// Per-tick scratch state lives in [`StepContext`]; per-pipeline state
/// (governor accumulators, previous-tick snapshots) lives inside the
/// stages themselves.
#[derive(Debug)]
pub struct SimCore {
    pub(crate) platform: Platform,
    pub(crate) network: RcNetwork,
    pub(crate) scheduler: Scheduler,
    pub(crate) policies: BTreeMap<ComponentId, CpuFreqPolicy>,
    pub(crate) control_sensor: Option<String>,
    pub(crate) workloads: Vec<Attached>,
    pub(crate) clock: SimClock,
    pub(crate) telemetry: Telemetry,
    pub(crate) sysfs: SysFs,
    pub(crate) last_powers: BTreeMap<ComponentId, PowerBreakdown>,
    /// Cluster moves requested through the cpuset control plane, applied
    /// at the start of the next tick.
    pub(crate) pending_migrations: Arc<Mutex<Vec<(Pid, ComponentId)>>>,
    /// The typed values behind the live sysfs attributes.
    pub(crate) sysfs_slots: SysfsSlots,
    pub(crate) events: EventLog,
    /// The run's observability recorder (shared with the campaign layer
    /// when several simulators feed one trace).
    pub(crate) recorder: Arc<Recorder>,
    /// Online derived observables, alert rules and counter tracks,
    /// advanced by the `analyze` stage.
    pub(crate) analysis: RunAnalysis,
    /// Event-engine queue totals for this run (all zero under fixed-dt).
    pub(crate) macro_stats: MacroStats,
    /// Per-tick node-power capture for fleet canonical runs (`None` when
    /// tracing is off — the thermal stage then pays one branch per tick).
    pub(crate) power_trace: Option<mpt_workloads::PowerTrace>,
}

/// Per-run event-engine queue totals, mirrored into the recorder's
/// counters and reported to the live journal at the end of a run. Driven
/// purely by simulated state, so deterministic across worker counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MacroStats {
    /// Wake events popped off the queue (one per macro pass that
    /// consumed a scheduled wake).
    pub events_popped: u64,
    /// Queued wakes absorbed into an already-running macro pass.
    pub wakes_coalesced: u64,
    /// Bisection iterations spent refining trip-crossing wake times.
    pub trip_bisection_iters: u64,
}

/// One typed value behind a live sysfs attribute: kHz, millidegrees,
/// microwatts, or a cluster's index in [`ComponentId::ALL`].
type Slot = Arc<AtomicI64>;

/// The slots behind the live sysfs attributes, parallel to the
/// platform's components, temperature sensors and power rails, and to
/// the attached workloads. Each slot publishes only its own value, so
/// every load and store is `Relaxed`.
#[derive(Debug, Default)]
pub(crate) struct SysfsSlots {
    cur_freq: Vec<Slot>,
    max_freq: Vec<Slot>,
    zone_temp: Vec<Slot>,
    rail_uw: Vec<Slot>,
    cluster: Vec<Slot>,
}

/// Registers a read-write attribute at `path` over a new slot holding
/// `initial`: a read formats the number, and a write stores the value if
/// it parses as `T`, rejecting it otherwise.
fn bind_slot<T: std::str::FromStr + TryInto<i64>>(
    sysfs: &SysFs,
    path: &str,
    initial: i64,
) -> Result<Slot> {
    let slot = Arc::new(AtomicI64::new(initial));
    let (read, write) = (Arc::clone(&slot), Arc::clone(&slot));
    sysfs.register(
        path,
        Attribute::with_handlers(
            move || read.load(Ordering::Relaxed).to_string(),
            move |value| match value.trim().parse::<T>().map(TryInto::try_into) {
                Ok(Ok(v)) => {
                    write.store(v, Ordering::Relaxed);
                    Ok(())
                }
                _ => Err(format!("does not parse as {}", std::any::type_name::<T>())),
            },
        ),
    )?;
    Ok(slot)
}

/// Each temperature sensor that reads, as `(name, temperature)`, in the
/// platform's sensor order. Lazy and borrowing, so a pass that records no
/// sample row pays nothing; takes the two fields rather than `&SimCore`
/// so the caller can hold the telemetry mutably meanwhile.
pub(crate) fn sensor_temps<'a>(
    platform: &'a Platform,
    network: &'a RcNetwork,
) -> impl Iterator<Item = (&'a str, Celsius)> + 'a {
    platform.temperature_sensors().iter().filter_map(|s| {
        network
            .celsius_of(s.thermal_node())
            .ok()
            .map(|c| (s.name(), c))
    })
}

impl SimCore {
    pub(crate) fn component(&self, id: ComponentId) -> &Component {
        self.platform
            .component(id)
            .expect("policies only exist for platform components")
    }

    pub(crate) fn control_temperature(&self) -> Celsius {
        self.control_temperature_from(|node| self.network.celsius_of(node).ok())
    }

    /// Evaluates the control temperature `dt` ahead of the current state
    /// under constant `node_powers`, without advancing the network — the
    /// probe the event engine bisects on for trip-crossing prediction.
    pub(crate) fn peek_control_temperature(
        &mut self,
        dt: Seconds,
        node_powers: &[Watts],
    ) -> Result<Celsius> {
        let temps = self.network.peek(dt, node_powers)?;
        Ok(self.control_temperature_from(|node| {
            self.network.node_index(node).map(|i| temps[i].to_celsius())
        }))
    }

    /// The control-temperature policy over per-node readings `temp_of`:
    /// the named control sensor if it reads, else the hottest sensor.
    fn control_temperature_from(&self, temp_of: impl Fn(&str) -> Option<Celsius>) -> Celsius {
        let sensors = self.platform.temperature_sensors();
        let control = self.control_sensor.as_deref().and_then(|name| {
            sensors
                .iter()
                .find(|s| s.name() == name)
                .and_then(|s| temp_of(s.thermal_node()))
        });
        control.unwrap_or_else(|| {
            sensors
                .iter()
                .filter_map(|s| temp_of(s.thermal_node()))
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
        })
    }

    /// Hash of the control state the macro-stepper must not jump across
    /// a change of: per-policy frequency and cap, the interaction latch,
    /// and each workload's cluster placement and completion flag. Demand
    /// *rates* are deliberately absent — the
    /// [`Workload::next_phase_change`](mpt_workloads::Workload) contract
    /// covers those.
    pub(crate) fn control_fingerprint(&self, interaction: bool) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (&id, policy) in &self.policies {
            id.key().hash(&mut h);
            policy.current().as_khz().hash(&mut h);
            policy.max_cap().map(Hertz::as_khz).hash(&mut h);
        }
        interaction.hash(&mut h);
        for a in &self.workloads {
            if let Some(p) = self.scheduler.process(a.pid) {
                p.cluster().key().hash(&mut h);
            }
            a.workload.is_finished().hash(&mut h);
        }
        h.finish()
    }

    /// Writes each thermal-governor cap through the sysfs tree — the
    /// only control-plane writes the simulator itself issues, and so the
    /// only ones [`Counter::SysfsWrites`] counts.
    pub(crate) fn apply_thermal_actions(&mut self, actions: &[ThermalAction]) -> Result<()> {
        for action in actions {
            let (component, cap) = match *action {
                ThermalAction::SetMaxFreq { component, freq } => {
                    self.recorder.incr(Counter::ThrottleEvents);
                    (component, freq)
                }
                ThermalAction::ClearCap { component } => (
                    component,
                    self.component(component).opps().highest().frequency(),
                ),
            };
            self.recorder.incr(Counter::SysfsWrites);
            let path = mpt_kernel::paths::max_freq(component);
            self.sysfs.write(&path, &cap.as_khz().to_string())?;
        }
        // Caps take effect immediately within the same poll.
        self.apply_sysfs_caps()
    }

    /// Registers the control-plane attributes, binding frequencies, zone
    /// temperatures, rail powers and cpuset placements to [`SysfsSlots`].
    pub(crate) fn register_sysfs(&mut self) -> Result<()> {
        let slots = &mut self.sysfs_slots;
        for component in self.platform.components() {
            let id = component.id();
            let top = component.opps().highest().frequency();
            let bottom = component.opps().lowest().frequency();
            let freq_list = component
                .opps()
                .frequencies()
                .map(|f| f.as_khz().to_string())
                .collect::<Vec<_>>()
                .join(" ");
            self.sysfs.register(
                &mpt_kernel::paths::available_frequencies(id),
                Attribute::constant(freq_list),
            )?;
            let cur = bind_slot::<u64>(&self.sysfs, &mpt_kernel::paths::cur_freq(id), 0)?;
            slots.cur_freq.push(cur);
            let top_khz = top.as_khz() as i64;
            let max = bind_slot::<u64>(&self.sysfs, &mpt_kernel::paths::max_freq(id), top_khz)?;
            slots.max_freq.push(max);
            self.sysfs.register(
                &mpt_kernel::paths::min_freq(id),
                Attribute::value(bottom.as_khz().to_string()),
            )?;
            self.sysfs.register(
                &mpt_kernel::paths::governor(id),
                Attribute::value(self.policies[&id].governor_name()),
            )?;
        }
        for (zone, sensor) in self.platform.temperature_sensors().iter().enumerate() {
            self.sysfs.register(
                &mpt_kernel::paths::thermal_zone_type(zone),
                Attribute::constant(sensor.name()),
            )?;
            let path = mpt_kernel::paths::thermal_zone_temp(zone);
            slots
                .zone_temp
                .push(bind_slot::<i64>(&self.sysfs, &path, 0)?);
        }
        for rail in self.platform.power_rails() {
            let path = mpt_kernel::paths::power_rail_uw(rail.name());
            slots.rail_uw.push(bind_slot::<i64>(&self.sysfs, &path, 0)?);
        }
        // cpuset placement files: one per attached process. Reads show
        // the live cluster; writes queue a migration for the next tick —
        // the cgroup path Android thermal daemons use for big.LITTLE
        // task placement.
        for a in &self.workloads {
            let cluster = Slot::default();
            let read = Arc::clone(&cluster);
            let queue = Arc::clone(&self.pending_migrations);
            let raw = a.pid.value();
            self.sysfs.register(
                &mpt_kernel::paths::cpuset_cluster(raw),
                Attribute::with_handlers(
                    move || {
                        ComponentId::ALL[read.load(Ordering::Relaxed) as usize]
                            .key()
                            .to_owned()
                    },
                    move |value| {
                        let cluster = match value.trim() {
                            "little" => ComponentId::LittleCluster,
                            "big" => ComponentId::BigCluster,
                            other => {
                                return Err(format!(
                                    "unknown cluster {other:?}; use \"little\" or \"big\""
                                ))
                            }
                        };
                        queue
                            .lock()
                            .expect("queue mutex is never poisoned")
                            .push((Pid::new(raw), cluster));
                        Ok(())
                    },
                ),
            )?;
            slots.cluster.push(cluster);
        }
        Ok(())
    }

    /// Publishes live state into the [`SysfsSlots`]: current
    /// frequencies, zone temperatures and rail powers at the precision
    /// their attributes report, and each process's cluster. Relaxed
    /// stores only; nothing is formatted until an attribute is read.
    pub(crate) fn sync_sysfs(&self) -> Result<()> {
        let slots = &self.sysfs_slots;
        for (component, slot) in self.platform.components().iter().zip(&slots.cur_freq) {
            let khz = self.policies[&component.id()].current().as_khz();
            slot.store(khz as i64, Ordering::Relaxed);
        }
        let sensors = self.platform.temperature_sensors();
        for (sensor, slot) in sensors.iter().zip(&slots.zone_temp) {
            if let Ok(c) = self.network.celsius_of(sensor.thermal_node()) {
                // Millidegrees, as in real thermal zones.
                slot.store((c.value() * 1000.0).round() as i64, Ordering::Relaxed);
            }
        }
        for (rail, slot) in self.platform.power_rails().iter().zip(&slots.rail_uw) {
            let power = self
                .last_powers
                .get(&rail.component())
                .map_or(0.0, |b| b.total().value());
            slot.store((power * 1e6).round() as i64, Ordering::Relaxed);
        }
        for (a, slot) in self.workloads.iter().zip(&slots.cluster) {
            if let Some(p) = self.scheduler.process(a.pid) {
                slot.store(p.cluster() as i64, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    pub(crate) fn apply_pending_migrations(&mut self) -> Result<()> {
        let moves: Vec<(Pid, ComponentId)> = self
            .pending_migrations
            .lock()
            .expect("queue mutex is never poisoned")
            .drain(..)
            .collect();
        for (pid, cluster) in moves {
            self.scheduler.migrate(pid, cluster)?;
        }
        Ok(())
    }

    pub(crate) fn apply_sysfs_caps(&mut self) -> Result<()> {
        let caps = &self.sysfs_slots.max_freq;
        for (component, slot) in self.platform.components().iter().zip(caps) {
            let id = component.id();
            // The write handler only stores values that parse as u64.
            let cap = Hertz::from_khz(slot.load(Ordering::Relaxed) as u64);
            let top = component.opps().highest().frequency();
            let policy = self
                .policies
                .get_mut(&id)
                .expect("policies cover all components");
            let desired = if cap >= top { None } else { Some(cap) };
            if policy.max_cap() != desired {
                // An engage or release transition is the simulator's view
                // of a trip point being crossed; a cap-level move while
                // already throttled is not.
                if policy.max_cap().is_none() != desired.is_none() {
                    self.recorder.incr(Counter::TripCrossings);
                }
                policy.set_max_cap(desired);
                log_event(
                    &self.recorder,
                    &mut self.events,
                    Event {
                        time: self.clock.now(),
                        kind: EventKind::CapChanged {
                            component: id,
                            cap: desired,
                        },
                    },
                );
            }
        }
        Ok(())
    }
}

/// The co-simulator: a [`SimCore`] advanced by a staged pipeline. Build
/// with [`SimBuilder`](crate::SimBuilder).
#[derive(Debug)]
pub struct Simulator {
    pub(crate) core: SimCore,
    pub(crate) stages: Vec<Box<dyn SimStage>>,
    /// Histogram id of the whole-tick latency, pre-registered at build.
    pub(crate) tick_hist: HistId,
    /// Per-stage latency histogram ids, parallel to `stages`.
    pub(crate) stage_hists: Vec<HistId>,
    /// How [`run_for`](Simulator::run_for) advances time.
    pub(crate) stepping: SteppingMode,
    /// The macro-stepper's wake queue, rebuilt each pass from the
    /// stages' declared wakes.
    pub(crate) queue: EventQueue,
    /// Control-state fingerprint after the previous pass; a long jump is
    /// only allowed once the fingerprint has been stable across two
    /// consecutive passes.
    pub(crate) last_fingerprint: Option<u64>,
    pub(crate) quiescent: bool,
    /// The per-pass scratch state, reset (not rebuilt) every pass.
    pub(crate) ctx: StepContext,
}

/// Number of whole base ticks (at least one) needed to reach `target`
/// from `now` — the grid quantization that keeps every event-mode pass
/// boundary on a fixed-mode tick boundary.
fn grid_steps(now: Seconds, target: Seconds, base: Seconds) -> u64 {
    let raw = (target.value() - now.value()) / base.value();
    if !raw.is_finite() || raw <= 1.0 {
        return 1;
    }
    // Quantize UP with a small tolerance so a target sitting exactly on
    // the grid does not round to an extra tick.
    let k = (raw - 1e-9).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if k <= 1.0 {
        1
    } else {
        k as u64
    }
}

impl Simulator {
    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> Seconds {
        self.core.clock.now()
    }

    /// The base simulation tick.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        self.core.clock.base_dt()
    }

    /// The shared time source: sim time, base tick, last pass length and
    /// pass count.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        self.core.clock
    }

    /// The active stepping mode.
    #[must_use]
    pub fn stepping(&self) -> SteppingMode {
        self.stepping
    }

    /// The platform under simulation.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.core.platform
    }

    /// The live thermal network.
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.core.network
    }

    /// The process table.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.core.scheduler
    }

    /// Run telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// The sysfs control plane (live: caps written here take effect on
    /// the next tick).
    #[must_use]
    pub fn sysfs(&self) -> &SysFs {
        &self.core.sysfs
    }

    /// The names of the pipeline stages, in tick order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Event-engine queue totals for this run so far (all zero under
    /// fixed-dt stepping). Deterministic across worker counts.
    #[must_use]
    pub fn macro_stats(&self) -> MacroStats {
        self.core.macro_stats
    }

    /// Starts capturing the per-tick node-power plane the thermal stage
    /// injects, on the base tick grid. Fleet campaigns enable this on
    /// the canonical run and replay the captured
    /// [`PowerTrace`](mpt_workloads::PowerTrace) across the whole device
    /// population. Idempotent; only meaningful under fixed-dt stepping
    /// (the trace is a uniform grid).
    pub fn enable_power_trace(&mut self) {
        if self.core.power_trace.is_none() {
            self.core.power_trace = Some(mpt_workloads::PowerTrace::new(
                self.core.clock.base_dt().value(),
                self.core.network.len(),
            ));
        }
    }

    /// Takes the captured power trace, leaving capture disabled.
    #[must_use]
    pub fn take_power_trace(&mut self) -> Option<mpt_workloads::PowerTrace> {
        self.core.power_trace.take()
    }

    /// The current frequency of a component.
    #[must_use]
    pub fn current_frequency(&self, id: ComponentId) -> Option<Hertz> {
        self.core.policies.get(&id).map(CpuFreqPolicy::current)
    }

    /// Per-component power from the last tick.
    #[must_use]
    pub fn last_powers(&self) -> &BTreeMap<ComponentId, PowerBreakdown> {
        &self.core.last_powers
    }

    /// The discrete event log of the run (migrations, cap changes,
    /// workload completions).
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.core.events
    }

    /// The run's observability recorder: spans per stage/tick, counters
    /// for throttle/trip/governor/migration/sysfs activity, and latency
    /// histograms. Export with [`mpt_obs::trace::chrome_trace_json`] and
    /// [`mpt_obs::MetricsSnapshot`].
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.core.recorder
    }

    /// The run's online analysis: derived observables (time-above-trip,
    /// throttle-attributed FPS loss, thermal headroom, stability-margin
    /// drift) and every fired alert.
    #[must_use]
    pub fn analysis(&self) -> &RunAnalysis {
        &self.core.analysis
    }

    /// Total power from the last tick.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.core
            .last_powers
            .values()
            .map(PowerBreakdown::total)
            .sum()
    }

    /// The pid of the workload with the given name.
    #[must_use]
    pub fn pid_of(&self, name: &str) -> Option<Pid> {
        self.core
            .workloads
            .iter()
            .find(|a| a.workload.name() == name)
            .map(|a| a.pid)
    }

    /// Downcasts a workload to its concrete type (e.g. to read a
    /// benchmark score after the run).
    #[must_use]
    pub fn workload_as<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.core
            .workloads
            .iter()
            .find(|a| a.pid == pid)
            .and_then(|a| a.workload.as_any().downcast_ref::<T>())
    }

    /// The median FPS reported by a workload, if it renders frames.
    #[must_use]
    pub fn median_fps(&self, pid: Pid) -> Option<f64> {
        self.core
            .workloads
            .iter()
            .find(|a| a.pid == pid)
            .and_then(|a| a.workload.median_fps())
    }

    /// Whether every attached workload reports completion.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.core.workloads.iter().all(|a| a.workload.is_finished())
    }

    /// Runs one pipeline pass of length `dt` (any whole multiple of the
    /// base tick) and advances the clock; returns whether any workload
    /// reported a touch interaction during the pass.
    fn pass(&mut self, dt: Seconds) -> Result<bool> {
        let recorder = Arc::clone(&self.core.recorder);
        self.ctx.reset(self.core.clock.now(), dt);
        {
            let _tick = recorder.span_with_hist("tick", "tick", self.tick_hist);
            for (stage, &hist) in self.stages.iter_mut().zip(&self.stage_hists) {
                let _stage = recorder.span_with_hist("stage", stage.name(), hist);
                stage.run(&mut self.core, &mut self.ctx)?;
            }
        }
        recorder.incr(Counter::Ticks);
        recorder.add(Counter::StageRuns, self.stages.len() as u64);
        self.core.clock.advance(dt);
        Ok(self.ctx.interaction)
    }

    /// Advances the simulation by one base tick: runs each pipeline
    /// stage in order over the shared core, then advances the clock.
    ///
    /// # Errors
    ///
    /// Propagates thermal/scheduler/sysfs errors (none occur in a
    /// correctly built simulator).
    pub fn step(&mut self) -> Result<()> {
        let dt = self.core.clock.base_dt();
        self.pass(dt)?;
        Ok(())
    }

    /// One event-driven macro step toward `end`: polls every stage for
    /// its next wake, schedules the wakes (plus the run end) on the
    /// event queue, pops the earliest, quantizes the gap up to the
    /// base-tick grid, lets the thermal stage shorten it to a predicted
    /// trip crossing, then runs a single pipeline pass covering the
    /// whole gap.
    ///
    /// Two guards keep this equivalent to fixed-dt stepping: a stage
    /// that answers [`Wake::EveryTick`] (frame-based workloads, pending
    /// control writes) pins the pass to one base tick, and jumps are
    /// only taken while the control-state fingerprint is stable across
    /// consecutive passes.
    fn event_step(&mut self, end: Seconds) -> Result<()> {
        let now = self.core.clock.now();
        let base = self.core.clock.base_dt();
        self.queue.clear();
        let mut every_tick = false;
        for stage in &mut self.stages {
            match stage.next_wake(&mut self.core, now) {
                Wake::Never => {}
                Wake::EveryTick => every_tick = true,
                Wake::At { time, kind } => {
                    if time.value() <= now.value() + 1e-12 {
                        // Due immediately: the earliest legal pass end is
                        // one base tick away.
                        every_tick = true;
                    } else if time.value().is_finite() {
                        self.queue.schedule(time, kind);
                    }
                }
            }
        }
        self.queue.schedule(end, WakeKind::RunEnd);

        let mut steps: u64 = 1;
        if !every_tick && self.quiescent {
            if let Some(event) = self.queue.pop() {
                self.core.macro_stats.events_popped += 1;
                self.core.recorder.incr(Counter::EventsPopped);
                steps = grid_steps(now, event.time, base);
            }
            if steps > 1 {
                let target = now + Seconds::new(steps as f64 * base.value());
                let mut refined = steps;
                for stage in &mut self.stages {
                    if let Some(t) = stage.refine_wake(&mut self.core, now, target) {
                        refined = refined.min(grid_steps(now, t, base));
                    }
                }
                steps = refined.max(1);
            }
            // Whatever still sits in the queue inside the chosen pass is
            // absorbed by it rather than waking the engine separately.
            let pass_end = now + Seconds::new(steps as f64 * base.value());
            let coalesced = self.queue.due_count(pass_end) as u64;
            if coalesced > 0 {
                self.core.macro_stats.wakes_coalesced += coalesced;
                self.core.recorder.add(Counter::WakesCoalesced, coalesced);
            }
        }

        let dt = if steps <= 1 {
            base
        } else {
            Seconds::new(steps as f64 * base.value())
        };
        let interaction = self.pass(dt)?;
        let fingerprint = self.core.control_fingerprint(interaction);
        self.quiescent = self.last_fingerprint == Some(fingerprint);
        self.last_fingerprint = Some(fingerprint);
        Ok(())
    }

    /// Runs for a span of simulated time, advancing tick by tick in
    /// [`SteppingMode::FixedDt`] or event to event in
    /// [`SteppingMode::EventDriven`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](Self::step) error.
    pub fn run_for(&mut self, span: Seconds) -> Result<()> {
        let end = self.core.clock.now() + span;
        match self.stepping {
            SteppingMode::FixedDt => {
                while self.core.clock.now() < end {
                    self.step()?;
                }
            }
            SteppingMode::EventDriven => {
                while self.core.clock.now() < end {
                    self.event_step(end)?;
                }
            }
        }
        Ok(())
    }

    /// Runs until `predicate` returns true or `max` simulated time
    /// elapses; returns whether the predicate fired. The predicate is
    /// checked between passes, so in event mode its granularity is the
    /// macro step, not the base tick.
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](Self::step) error.
    pub fn run_until(
        &mut self,
        mut predicate: impl FnMut(&Simulator) -> bool,
        max: Seconds,
    ) -> Result<bool> {
        let end = self.core.clock.now() + max;
        while self.core.clock.now() < end {
            if predicate(self) {
                return Ok(true);
            }
            match self.stepping {
                SteppingMode::FixedDt => self.step()?,
                SteppingMode::EventDriven => self.event_step(end)?,
            }
        }
        Ok(predicate(self))
    }

    /// Temperature of a named thermal node, in Celsius.
    ///
    /// # Errors
    ///
    /// [`SimError::Thermal`](crate::SimError::Thermal) if the node does
    /// not exist.
    pub fn temperature_of(&self, node: &str) -> Result<Celsius> {
        Ok(self.core.network.celsius_of(node)?)
    }

    /// The hottest node temperature.
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        self.core.network.hottest().1
    }
}
