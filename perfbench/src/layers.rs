//! The traced run: per-layer metrics.
//!
//! Every figure comes from one of two sources: the benchmark's own
//! timers around public calls, or the `sum_ns`/`count` of the program's
//! stage histograms and its counters, read through
//! `Recorder::snapshot()`. The histograms' log2-bucket quantiles are
//! never used. Pass times are timed per pass, so the difference between
//! the traced and an untraced mean pass is reported as the trace's own
//! overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mpt_core::campaign::run_cells_framed;
use mpt_core::fleet::{device_frame, replay_fleet, trip_reference_c};
use mpt_core::report::SessionAnalysis;
use mpt_core::scenario::{build_scenario_cached, CampaignCell, EngineSpec, ScenarioSpec};
use mpt_daq::ColumnFrame;
use mpt_obs::trace::chrome_trace_json_full;
use mpt_obs::{Counter, Recorder};
use mpt_sim::Simulator;
use mpt_soc::{ComponentId, DeviceParams, FleetSpec, ThermalLti};
use mpt_thermal::{ExactLti, FleetState, ThermalSolver, TransitionCache};
use mpt_units::{Celsius, Kelvin, Seconds, Watts};
use mpt_workloads::{FleetInputs, PowerTrace};

use crate::e2e::{self, cell_scenario, jobs, parse_campaign, parse_scenario};
use crate::gen::{Inputs, FLEET_JITTER};
use crate::{digest, stats, Metrics, Runs};

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.pass_us.p50", "us"),
    ("sim.pass_us.p99", "us"),
    ("sim.pass_us.mean", "us"),
    ("sim.stage.sysfs-control.ns_per_pass", "ns"),
    ("sim.stage.demand.ns_per_pass", "ns"),
    ("sim.stage.schedule.ns_per_pass", "ns"),
    ("sim.stage.power.ns_per_pass", "ns"),
    ("sim.stage.thermal.ns_per_pass", "ns"),
    ("sim.stage.telemetry.ns_per_pass", "ns"),
    ("sim.stage.govern.ns_per_pass", "ns"),
    ("sim.stage.events.ns_per_pass", "ns"),
    ("sim.stage.analyze.ns_per_pass", "ns"),
    ("sim.passes_per_sim_s", "1/s"),
    ("sim.events_popped", "count"),
    ("sim.wakes_coalesced", "count"),
    ("sim.trip_bisection_iters", "count"),
    ("sysfs.writes_per_pass", "count"),
    ("sysfs.read_ns", "ns"),
    ("sysfs.write_ns", "ns"),
    ("kernel.freq_changes_per_sim_s", "1/s"),
    ("kernel.throttle_events", "count"),
    ("thermal.step_ns", "ns"),
    ("thermal.step_batch_ns_per_device_tick", "ns"),
    ("thermal.cache_builds", "count"),
    ("thermal.cache_hits", "count"),
    ("workloads.fill_tick_ns_per_device_tick", "ns"),
    ("core.build_scenario_us", "us"),
    ("lint.gate_us", "us"),
    ("core.replay_fleet_ns_per_device_tick", "ns"),
    ("core.device_frame_ms", "ms"),
    ("core.cell_s.p50", "s"),
    ("core.cell_s.max", "s"),
    ("core.worker_busy_frac", "fraction"),
    ("daq.csv_export_ns_per_value", "ns"),
    ("daq.query_us", "us"),
    ("obs.recorder_ns_per_pass", "ns"),
    ("obs.spans_dropped_frac", "fraction"),
    ("obs.trace_export_ms", "ms"),
    ("obs.trace_mb", "MB"),
    ("bench.trace_overhead_ns_per_pass", "ns"),
    ("bench.untraced_pass_ns", "ns"),
];

/// Calls of each sysfs probe; enough that one call's timer cost vanishes.
const SYSFS_CALLS: u32 = 20_000;

/// Devices in the fleet probe of workloads that run no fleet; their
/// jitter is the launch-day fleet's.
const PROBE_DEVICES: usize = 256;

/// Simulated seconds captured for the thermal and fleet probes of
/// workloads that run no fleet.
const PROBE_CAPTURE_S: f64 = 30.0;

/// Repeats of the lint, query and thermal-replay probes.
const PROBE_REPEATS: usize = 10;

/// One scenario to step: its spec, and for a fleet cell the population.
struct Target {
    spec: ScenarioSpec,
    fleet: Option<(FleetSpec, u64)>,
}

/// Sums over the benchmark-stepped runs.
#[derive(Default)]
struct Stepped {
    pass_ns: Vec<f64>,
    sim_s: f64,
    stage_sum_ns: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<Counter, u64>,
    spans_kept: u64,
    trace_export_s: f64,
    trace_bytes: usize,
    untraced_ns: f64,
    null_ns: f64,
    untimed_passes: u64,
    cell_s: Vec<f64>,
    frames: Vec<ColumnFrame>,
    traces: Vec<(Target, PowerTrace)>,
    digests: Vec<Option<String>>,
}

const COUNTED: [Counter; 9] = [
    Counter::Ticks,
    Counter::SysfsWrites,
    Counter::GovernorFreqChanges,
    Counter::ThrottleEvents,
    Counter::SolverCacheBuilds,
    Counter::SolverCacheHits,
    Counter::SpansDropped,
    Counter::EventsPopped,
    Counter::WakesCoalesced,
];

fn build(spec: &ScenarioSpec, recorder: Recorder) -> Result<Simulator, String> {
    build_scenario_cached(spec, Some(Arc::new(recorder)), None)
        .map(|(sim, _)| sim)
        .map_err(|e| e.to_string())
}

/// Passes each simulator of a lockstep group runs before the next one's
/// turn: short enough that host-speed drift is the same for all three.
const CHUNK: usize = 64;

/// Runs up to `passes` more passes of `sim` toward `end`, through the
/// same calls `run_for` makes: `Simulator::step` under fixed-dt, and
/// under the event engine `run_until` with a predicate that stops after
/// `passes`. With `per_pass`, each pass's duration (ns) is pushed: timed
/// around `step`, or between the predicate's calls, which bracket every
/// pass. Returns the passes taken.
fn run_passes(
    sim: &mut Simulator,
    engine: EngineSpec,
    end: Seconds,
    passes: usize,
    mut per_pass: Option<&mut Vec<f64>>,
) -> Result<u64, String> {
    let start = sim.clock().steps();
    let mut n = 0;
    match engine {
        EngineSpec::Fixed => {
            while n < passes && sim.time() < end {
                let t = Instant::now();
                sim.step().map_err(|e| e.to_string())?;
                if let Some(v) = per_pass.as_mut() {
                    v.push(t.elapsed().as_nanos() as f64);
                }
                n += 1;
            }
        }
        EngineSpec::Event => {
            let mut last: Option<Instant> = None;
            let remaining = Seconds::new(end.value() - sim.time().value());
            sim.run_until(
                |_| {
                    let now = Instant::now();
                    if let (Some(prev), Some(v)) = (last.replace(now), per_pass.as_mut()) {
                        v.push((now - prev).as_nanos() as f64);
                    }
                    if n == passes {
                        return true;
                    }
                    n += 1;
                    false
                },
                remaining,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(sim.clock().steps() - start)
}

/// Steps one scenario three times in lockstep, [`CHUNK`] passes at a
/// turn in rotating order: traced (a timer around every pass) and
/// untraced under `Recorder::new()`, and untraced under
/// `Recorder::null()`. Drift of host speed cancels out of their
/// differences: the recorder's cost and the trace's own overhead.
fn step_lockstep(target: &Target, acc: &mut Stepped) -> Result<(), String> {
    let spec = &target.spec;
    let recorder = Arc::new(Recorder::new());
    let (mut traced, stats) = build_scenario_cached(spec, Some(Arc::clone(&recorder)), None)
        .map_err(|e| e.to_string())?;
    let mut untraced = build(spec, Recorder::new())?;
    let mut null = build(spec, Recorder::null())?;
    // The program captures the canonical trace of every fleet cell.
    if target.fleet.is_some() {
        traced.enable_power_trace();
        untraced.enable_power_trace();
        null.enable_power_trace();
    }
    let end = traced.time() + Seconds::new(spec.duration_s);
    for turn in 0.. {
        let mut moved = 0;
        for k in 0..3 {
            match (turn + k) % 3 {
                0 => {
                    moved +=
                        run_passes(&mut traced, spec.engine, end, CHUNK, Some(&mut acc.pass_ns))?
                }
                1 => {
                    let t = Instant::now();
                    moved += run_passes(&mut untraced, spec.engine, end, CHUNK, None)?;
                    acc.untraced_ns += t.elapsed().as_nanos() as f64;
                }
                _ => {
                    let t = Instant::now();
                    moved += run_passes(&mut null, spec.engine, end, CHUNK, None)?;
                    acc.null_ns += t.elapsed().as_nanos() as f64;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
    let passes = traced.clock().steps();
    if untraced.clock().steps() != passes || null.clock().steps() != passes {
        return Err("lockstep runs of one scenario took different pass counts".to_owned());
    }
    acc.untimed_passes += passes;
    acc.sim_s += spec.duration_s;
    acc.digests.push(Some(digest::scenario(
        &e2e::outcome_of(&traced, stats.as_ref()),
        &SessionAnalysis::from_sim(&traced),
    )));
    for h in recorder.snapshot().histograms {
        if let Some(stage) = h.name.strip_prefix("stage:") {
            let slot = acc.stage_sum_ns.entry(stage.to_owned()).or_default();
            slot.0 += h.sum_ns;
            slot.1 += h.count;
        }
    }
    for c in COUNTED {
        *acc.counters.entry(c).or_default() += recorder.counter(c);
    }
    *acc.counters.entry(Counter::TripBisectionIters).or_default() +=
        traced.macro_stats().trip_bisection_iters;
    let spans = recorder.spans();
    acc.spans_kept += spans.len() as u64;
    let t = Instant::now();
    let trace = chrome_trace_json_full(&spans, &recorder.tracks(), "perfbench");
    acc.trace_export_s += t.elapsed().as_secs_f64();
    acc.trace_bytes += trace.len();
    acc.frames.push(untraced.telemetry().frame().clone());
    if let Some(trace) = traced.take_power_trace() {
        acc.traces.push((
            Target {
                spec: spec.clone(),
                fleet: target.fleet.clone(),
            },
            trace,
        ));
    }
    Ok(())
}

/// Steps every target in lockstep; for a scenario workload first runs
/// its scenarios back to back on one worker, as the CLI would, timing
/// each build-and-run as a cell (the last entry is the time between
/// them).
fn step_all(targets: &[Target], back_to_back: bool) -> Result<Stepped, String> {
    let mut acc = Stepped::default();
    if back_to_back {
        let start = Instant::now();
        for target in targets {
            let t = Instant::now();
            let mut sim = build(&target.spec, Recorder::new())?;
            sim.run_for(Seconds::new(target.spec.duration_s))
                .map_err(|e| e.to_string())?;
            acc.cell_s.push(t.elapsed().as_secs_f64());
        }
        let gaps = start.elapsed().as_secs_f64() - acc.cell_s.iter().sum::<f64>();
        acc.cell_s.push(gaps);
    }
    for target in targets {
        step_lockstep(target, &mut acc)?;
    }
    Ok(acc)
}

/// `SysFs::read` of a frequency cap and `SysFs::write` of a thermal-zone
/// value, on a separately built simulator so the measured trajectory
/// is untouched. Returns (read ns, write ns).
fn sysfs_probe(spec: &ScenarioSpec) -> Result<(f64, f64), String> {
    let sim = build(spec, Recorder::null())?;
    let sysfs = sim.sysfs();
    let cap = mpt_kernel::paths::max_freq(ComponentId::BigCluster);
    let zone = mpt_kernel::paths::thermal_zone_temp(0);
    let value = sysfs.read(&zone).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for _ in 0..SYSFS_CALLS {
        std::hint::black_box(
            sysfs
                .read(std::hint::black_box(&cap))
                .map_err(|e| e.to_string())?,
        );
    }
    let read_ns = t.elapsed().as_nanos() as f64 / f64::from(SYSFS_CALLS);
    let t = Instant::now();
    for _ in 0..SYSFS_CALLS {
        sysfs
            .write(std::hint::black_box(&zone), std::hint::black_box(&value))
            .map_err(|e| e.to_string())?;
    }
    let write_ns = t.elapsed().as_nanos() as f64 / f64::from(SYSFS_CALLS);
    Ok((read_ns, write_ns))
}

/// Captures a short power trace of a scenario that runs no fleet, on
/// the fixed-dt grid the fleet replay needs.
fn capture(spec: &ScenarioSpec) -> Result<PowerTrace, String> {
    let mut spec = spec.clone();
    spec.engine = EngineSpec::Fixed;
    let mut sim = build(&spec, Recorder::null())?;
    sim.enable_power_trace();
    sim.run_for(Seconds::new(spec.duration_s.min(PROBE_CAPTURE_S)))
        .map_err(|e| e.to_string())?;
    sim.take_power_trace()
        .ok_or_else(|| "no power trace".to_owned())
}

fn lti_of(spec: &ScenarioSpec) -> Result<ThermalLti, String> {
    spec.platform
        .build()
        .thermal_spec()
        .lti()
        .map_err(|e| e.to_string())
}

/// Replays a captured `PowerTrace` through `RcNetwork::step` on a fresh
/// network of the same platform; median ns per step over the repeats.
fn thermal_step_probe(spec: &ScenarioSpec, trace: &PowerTrace) -> Result<f64, String> {
    let sim = build(spec, Recorder::null())?;
    let dt = Seconds::new(trace.dt_s());
    let rows: Vec<Vec<Watts>> = (0..trace.ticks())
        .map(|t| {
            (0..trace.nodes())
                .map(|n| Watts::new(trace.sample(t, n)))
                .collect()
        })
        .collect();
    let mut per_step = Vec::with_capacity(PROBE_REPEATS);
    for _ in 0..PROBE_REPEATS {
        let mut net = sim.network().clone();
        let t = Instant::now();
        for row in &rows {
            net.step(dt, row).map_err(|e| e.to_string())?;
        }
        per_step.push(t.elapsed().as_nanos() as f64 / rows.len().max(1) as f64);
        std::hint::black_box(net.temperatures());
    }
    Ok(stats::median(&per_step))
}

/// Fleet-layer probe over one trace and population: the timed
/// `replay_fleet` call, then the same tick loop with `fill_tick` and
/// `step_batch` timed apart, then `device_frame`. Returns summed
/// nanoseconds (replay, step_batch, fill_tick, device_frame) and the
/// device-ticks covered.
fn fleet_probe(
    spec: &ScenarioSpec,
    trace: &PowerTrace,
    fleet: &FleetSpec,
    cell_seed: u64,
) -> Result<[f64; 5], String> {
    let lti = lti_of(spec)?;
    let params: Vec<DeviceParams> = (0..fleet.devices)
        .map(|d| fleet.device_params(cell_seed, d))
        .collect();
    let trip_c = trip_reference_c(fleet, &spec.thermal);
    let cache = Arc::new(TransitionCache::new());
    let recorder = Arc::new(Recorder::new());
    let t = Instant::now();
    let devices = replay_fleet(
        &lti,
        trace.clone(),
        &params,
        spec.initial_temperature_c,
        trip_c,
        &recorder,
        Some(Arc::clone(&cache)),
    )
    .map_err(|e| e.to_string())?;
    let replay_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    std::hint::black_box(device_frame(&devices));
    let frame_ns = t.elapsed().as_nanos() as f64;

    let nodes = lti.len();
    let mut state = FleetState::new(nodes, params.len(), lti.ambient, lti.ambient);
    for (d, p) in params.iter().enumerate() {
        let ambient = Kelvin::new(lti.ambient.value() + p.ambient_offset_c);
        state.set_ambient(d, ambient);
        let initial = spec
            .initial_temperature_c
            .map_or(ambient, |t0| Celsius::new(t0).to_kelvin());
        for node in 0..nodes {
            state.set_temp(node, d, initial);
        }
    }
    let mut solver = ExactLti::with_cache(cache);
    let inputs = FleetInputs::new(trace.clone(), &params);
    let dt = Seconds::new(trace.dt_s());
    let (mut fill_ns, mut step_ns) = (0.0, 0.0);
    for tick in 0..trace.ticks() {
        let t0 = Instant::now();
        inputs.fill_tick(tick, state.power_raw_mut());
        let t1 = Instant::now();
        solver
            .step_batch(&lti, &mut state, dt)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        fill_ns += (t1 - t0).as_nanos() as f64;
        step_ns += (t2 - t1).as_nanos() as f64;
    }
    std::hint::black_box(state.temps_raw());
    let device_ticks = (params.len() * trace.ticks()) as f64;
    Ok([replay_ns, step_ns, fill_ns, frame_ns, device_ticks])
}

/// Benchmark-timed `lint` of every input text; mean microseconds.
fn lint_probe(inputs: &Inputs) -> Result<f64, String> {
    let texts = inputs.texts();
    let campaign = matches!(inputs, Inputs::Campaign(..));
    let t = Instant::now();
    for _ in 0..PROBE_REPEATS {
        for (name, json) in &texts {
            e2e::lint(name, json, campaign)?;
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / (PROBE_REPEATS * texts.len()) as f64)
}

/// Benchmark-timed `build_scenario_cached` of every target, as set-up
/// builds them (campaigns share one recorder and one transition cache);
/// mean microseconds.
fn build_probe(targets: &[Target], campaign: bool) -> Result<f64, String> {
    let recorder = Arc::new(Recorder::new());
    let cache = Arc::new(TransitionCache::new());
    let mut total = 0.0;
    for target in targets {
        let (rec, cache) = if campaign {
            (Arc::clone(&recorder), Some(Arc::clone(&cache)))
        } else {
            (Arc::new(Recorder::new()), None)
        };
        let t = Instant::now();
        let built =
            build_scenario_cached(&target.spec, Some(rec), cache).map_err(|e| e.to_string())?;
        total += t.elapsed().as_secs_f64();
        drop(built);
    }
    Ok(total * 1e6 / targets.len() as f64)
}

/// Benchmark-timed CSV export of every session frame; ns per value.
fn csv_probe(frames: &[ColumnFrame]) -> f64 {
    let values: usize = frames
        .iter()
        .map(|f| f.rows() * (f.channel_names().len() + 1))
        .sum();
    let t = Instant::now();
    for f in frames {
        std::hint::black_box(f.to_csv());
    }
    t.elapsed().as_nanos() as f64 / values.max(1) as f64
}

fn targets_of(inputs: &Inputs) -> Result<(Vec<Target>, Option<Vec<CampaignCell>>), String> {
    match inputs {
        Inputs::Scenarios(list) => Ok((
            list.iter()
                .map(|(name, json)| {
                    Ok(Target {
                        spec: parse_scenario(name, json)?,
                        fleet: None,
                    })
                })
                .collect::<Result<_, String>>()?,
            None,
        )),
        Inputs::Campaign(name, json) => {
            let (_, cells) = parse_campaign(name, json)?;
            let targets = cells
                .iter()
                .map(|c| Target {
                    spec: cell_scenario(c),
                    fleet: c.fleet.clone().map(|f| (f, c.seed)),
                })
                .collect();
            Ok((targets, Some(cells)))
        }
    }
}

/// The traced run of one workload: every metric of [`PER_LAYER`], and
/// the digests of the runs it made.
pub fn measure(inputs: &Inputs, out: &Path) -> (Metrics, Runs) {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let digests = match measure_into(inputs, out, &mut values) {
        Ok(digests) => digests,
        Err(e) => {
            println!("traced run failed: {e}");
            vec![None]
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    (metrics, vec![(0, digests)])
}

fn measure_into(
    inputs: &Inputs,
    out: &Path,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<Option<String>>, String> {
    let (targets, cells) = targets_of(inputs)?;
    v.insert("lint.gate_us", lint_probe(inputs)?);
    v.insert(
        "core.build_scenario_us",
        build_probe(&targets, cells.is_some())?,
    );
    let first = &targets.first().ok_or("no scenario to step")?.spec;
    let (read_ns, write_ns) = sysfs_probe(first)?;
    v.insert("sysfs.read_ns", read_ns);
    v.insert("sysfs.write_ns", write_ns);

    let mut acc = step_all(&targets, cells.is_none())?;
    let passes = acc.pass_ns.len() as f64;
    let traced_mean = stats::mean(&acc.pass_ns);
    let untraced_mean = acc.untraced_ns / acc.untimed_passes as f64;
    let null_mean = acc.null_ns / acc.untimed_passes as f64;
    v.insert("sim.pass_us.p50", stats::quantile(&acc.pass_ns, 0.50) / 1e3);
    v.insert("sim.pass_us.p99", stats::quantile(&acc.pass_ns, 0.99) / 1e3);
    v.insert("sim.pass_us.mean", traced_mean / 1e3);
    v.insert("bench.untraced_pass_ns", untraced_mean);
    v.insert(
        "bench.trace_overhead_ns_per_pass",
        traced_mean - untraced_mean,
    );
    v.insert("obs.recorder_ns_per_pass", untraced_mean - null_mean);
    for (name, _) in PER_LAYER {
        let stage = name
            .strip_prefix("sim.stage.")
            .and_then(|s| s.strip_suffix(".ns_per_pass"));
        if let Some(stage) = stage {
            let (sum, count) = acc.stage_sum_ns.get(stage).copied().unwrap_or_default();
            v.insert(name, sum as f64 / count.max(1) as f64);
        }
    }
    let counter = |c: Counter| acc.counters.get(&c).copied().unwrap_or(0) as f64;
    let ticks = counter(Counter::Ticks);
    v.insert("sim.passes_per_sim_s", passes / acc.sim_s);
    v.insert("sim.events_popped", counter(Counter::EventsPopped));
    v.insert("sim.wakes_coalesced", counter(Counter::WakesCoalesced));
    v.insert(
        "sim.trip_bisection_iters",
        counter(Counter::TripBisectionIters),
    );
    v.insert(
        "sysfs.writes_per_pass",
        counter(Counter::SysfsWrites) / ticks,
    );
    v.insert(
        "kernel.freq_changes_per_sim_s",
        counter(Counter::GovernorFreqChanges) / acc.sim_s,
    );
    v.insert("kernel.throttle_events", counter(Counter::ThrottleEvents));
    v.insert("daq.csv_export_ns_per_value", csv_probe(&acc.frames));

    // Thermal and fleet probes: the captured canonical traces of a
    // fleet workload with its real populations; otherwise a short
    // capture of the first scenario over a probe population.
    if acc.traces.is_empty() {
        let trace = capture(first)?;
        let fleet: FleetSpec = serde_json::from_str(&format!(
            r#"{{ "devices": {PROBE_DEVICES}, {FLEET_JITTER} }}"#
        ))
        .map_err(|e| e.to_string())?;
        acc.traces.push((
            Target {
                spec: first.clone(),
                fleet: Some((fleet, 1)),
            },
            trace,
        ));
    }
    v.insert(
        "thermal.step_ns",
        thermal_step_probe(&acc.traces[0].0.spec, &acc.traces[0].1)?,
    );
    let mut fleet_sums = [0.0; 5];
    for (target, trace) in &acc.traces {
        let (fleet, seed) = target.fleet.as_ref().ok_or("trace without a fleet")?;
        let sums = fleet_probe(&target.spec, trace, fleet, *seed)?;
        for (total, x) in fleet_sums.iter_mut().zip(sums) {
            *total += x;
        }
    }
    let [replay, step_batch, fill, frame, device_ticks] = fleet_sums;
    v.insert(
        "core.replay_fleet_ns_per_device_tick",
        replay / device_ticks,
    );
    v.insert(
        "thermal.step_batch_ns_per_device_tick",
        step_batch / device_ticks,
    );
    v.insert(
        "workloads.fill_tick_ns_per_device_tick",
        fill / device_ticks,
    );
    v.insert(
        "core.device_frame_ms",
        frame / 1e6 / acc.traces.len() as f64,
    );

    let digests = match (inputs, cells) {
        (Inputs::Campaign(name, json), Some(cells)) => campaign_layers(name, json, &cells, out, v)?,
        _ => {
            // A scenario workload is one worker running its scenarios
            // back to back; each scenario counts as a cell.
            let gaps = acc.cell_s.pop().unwrap_or(0.0);
            let busy: f64 = acc.cell_s.iter().sum();
            v.insert("core.cell_s.p50", stats::median(&acc.cell_s));
            v.insert("core.cell_s.max", stats::quantile(&acc.cell_s, 1.0));
            v.insert("core.worker_busy_frac", busy / (busy + gaps));
            v.insert("thermal.cache_builds", counter(Counter::SolverCacheBuilds));
            v.insert("thermal.cache_hits", counter(Counter::SolverCacheHits));
            let dropped = counter(Counter::SpansDropped);
            v.insert(
                "obs.spans_dropped_frac",
                dropped / (dropped + acc.spans_kept as f64),
            );
            v.insert("obs.trace_export_ms", acc.trace_export_s * 1e3);
            v.insert("obs.trace_mb", acc.trace_bytes as f64 / 1e6);
            let t = Instant::now();
            let mut n = 0;
            for _ in 0..PROBE_REPEATS {
                for (target, frame) in targets.iter().zip(&acc.frames) {
                    for expr in &target.spec.queries {
                        std::hint::black_box(e2e::run_query(expr, frame, None));
                        n += 1;
                    }
                }
            }
            v.insert(
                "daq.query_us",
                t.elapsed().as_secs_f64() * 1e6 / f64::from(n.max(1)),
            );
            acc.digests
        }
    };
    Ok(digests)
}

/// Campaign-only layers: the parallel run on one shared recorder (pool
/// occupancy, cache traffic, span loss, trace export, queries), then
/// every cell alone on one worker for the per-cell times.
fn campaign_layers(
    name: &str,
    json: &str,
    cells: &[CampaignCell],
    out: &Path,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<Option<String>>, String> {
    let (spec, _) = parse_campaign(name, json)?;
    let recorder = Arc::new(Recorder::new());
    let workers = jobs().min(cells.len().max(1));
    let t = Instant::now();
    let (report, frames) =
        run_cells_framed(cells, workers, &recorder, None).map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();
    let snapshot = recorder.snapshot();
    let busy_ns = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "cell")
        .map_or(0, |h| h.sum_ns);
    v.insert(
        "core.worker_busy_frac",
        busy_ns as f64 / 1e9 / (wall * workers as f64),
    );
    v.insert(
        "thermal.cache_builds",
        recorder.counter(Counter::SolverCacheBuilds) as f64,
    );
    v.insert(
        "thermal.cache_hits",
        recorder.counter(Counter::SolverCacheHits) as f64,
    );
    let spans = recorder.spans();
    let dropped = recorder.counter(Counter::SpansDropped) as f64;
    v.insert(
        "obs.spans_dropped_frac",
        dropped / (dropped + spans.len() as f64),
    );
    let t = Instant::now();
    let trace = chrome_trace_json_full(&spans, &recorder.tracks(), name);
    v.insert("obs.trace_export_ms", t.elapsed().as_secs_f64() * 1e3);
    v.insert("obs.trace_mb", trace.len() as f64 / 1e6);
    let cells_frame = report.cells_frame();
    let t = Instant::now();
    for _ in 0..PROBE_REPEATS {
        for expr in &spec.queries {
            std::hint::black_box(e2e::run_query(expr, &cells_frame, Some(&frames)));
        }
    }
    v.insert(
        "daq.query_us",
        t.elapsed().as_secs_f64() * 1e6 / (PROBE_REPEATS * spec.queries.len().max(1)) as f64,
    );
    e2e::write_all(
        out,
        &e2e::campaign_artifacts(name, &spec, &report, &frames, &recorder),
    );

    let mut cell_s = Vec::with_capacity(cells.len());
    for i in 0..cells.len() {
        let t = Instant::now();
        run_cells_framed(&cells[i..=i], 1, &Arc::new(Recorder::new()), None)
            .map_err(|e| e.to_string())?;
        cell_s.push(t.elapsed().as_secs_f64());
    }
    v.insert("core.cell_s.p50", stats::median(&cell_s));
    v.insert("core.cell_s.max", stats::quantile(&cell_s, 1.0));
    Ok(digest::campaign(&report).into_iter().map(Some).collect())
}
