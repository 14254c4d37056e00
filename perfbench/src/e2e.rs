//! The untraced, end-to-end path: what a user of `run_scenario` waits
//! for, timed by the benchmark around the program's public calls, with
//! the recorder configured as the CLI configures it. Times are reference
//! seconds from a [`Meter`].

use std::path::Path;
use std::sync::Arc;

use mpt_core::campaign::{run_campaign, run_cells_framed, CampaignFrames, CampaignReport};
use mpt_core::report::{SessionAnalysis, SessionReport};
use mpt_core::scenario::{
    build_scenario_cached, run_scenario_framed_cached, CampaignCell, CampaignSpec, EngineSpec,
    ScenarioOutcome, ScenarioSpec, WorkloadOutcome,
};
use mpt_core::GovernorStats;
use mpt_daq::{ColumnFrame, Query, QueryError};
use mpt_obs::trace::chrome_trace_json_full;
use mpt_obs::Recorder;
use mpt_sim::Simulator;
use mpt_thermal::TransitionCache;
use mpt_units::Seconds;

use crate::calib::Meter;
use crate::digest;
use crate::gen::Inputs;

/// Worker threads for campaigns: one per available CPU, as `--jobs 0`.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Times the artifacts of one iteration are rendered. The first render
/// counts towards `wall_s`; the repeats only add `export_s` samples,
/// which are short next to the host's speed drift.
const EXPORT_REPEATS: usize = 5;

/// Artifacts as `(file name, contents)`.
pub type Artifacts = Vec<(String, String)>;

/// Renders the artifacts [`EXPORT_REPEATS`] times, timing each render,
/// then writes the last one under `out`. The files are written after
/// the timers stop, so file-system latency stays out of `export_s`.
fn timed_exports(out: &Path, meter: &mut Meter, mut render: impl FnMut() -> Artifacts) -> Vec<f64> {
    let mut artifacts = Artifacts::new();
    let times = (0..EXPORT_REPEATS)
        .map(|_| {
            artifacts.clear();
            meter.start();
            artifacts = std::hint::black_box(render());
            meter.lap()
        })
        .collect();
    write_all(out, &artifacts);
    times
}

/// Writes rendered artifacts under `out`.
pub fn write_all(out: &Path, artifacts: &Artifacts) {
    for (file, body) in artifacts {
        std::fs::write(out.join(file), body).expect("artifact directory is writable");
    }
}

/// One timed pass over a workload; times are reference seconds
/// (see [`crate::calib`]).
pub struct Iteration {
    /// Set-up, simulation and the first artifact render, end to end.
    pub wall_s: f64,
    /// Host seconds in the simulate phase.
    pub sim_s: f64,
    /// Simulated device-seconds the simulate phase covered.
    pub device_s: f64,
    /// Host seconds rendering the workload's artifacts, once per repeat;
    /// the first render is the one `wall_s` covers.
    pub export_s: Vec<f64>,
    /// Per-run digests; `None` marks a run that returned an error.
    pub runs: Vec<Option<String>>,
}

/// The `mpt-lint` gate `run_scenario` applies before tick 0.
pub fn lint(name: &str, json: &str, campaign: bool) -> Result<(), String> {
    let report = if campaign {
        mpt_lint::config::check_campaign_json(json, name)
    } else {
        mpt_lint::config::check_scenario_json(json, name)
    };
    if report.errors() > 0 {
        return Err(report.render_text());
    }
    Ok(())
}

pub fn parse_scenario(name: &str, json: &str) -> Result<ScenarioSpec, String> {
    lint(name, json, false)?;
    serde_json::from_str(json).map_err(|e| format!("{name}: {e}"))
}

pub fn parse_campaign(name: &str, json: &str) -> Result<(CampaignSpec, Vec<CampaignCell>), String> {
    lint(name, json, true)?;
    let spec: CampaignSpec = serde_json::from_str(json).map_err(|e| format!("{name}: {e}"))?;
    let cells = spec.expand().map_err(|e| e.to_string())?;
    Ok((spec, cells))
}

/// The scenario a campaign cell builds: fleet cells run their canonical
/// device on the fixed-dt grid.
pub fn cell_scenario(cell: &CampaignCell) -> ScenarioSpec {
    let mut spec = cell.scenario.clone();
    if cell.fleet.is_some() {
        spec.engine = EngineSpec::Fixed;
    }
    spec
}

/// Simulated device-seconds of a cell: its canonical run plus its
/// replayed population.
pub fn cell_device_s(cell: &CampaignCell) -> f64 {
    let devices = cell.fleet.as_ref().map_or(0, |f| f.devices);
    cell.scenario.duration_s * (1 + devices) as f64
}

type Built = (ScenarioSpec, Simulator, Option<Arc<GovernorStats>>);

/// Spec text to built simulators: JSON parse, the lint gate,
/// `build_scenario_cached` and the exp(A*dt) discretization. Returns
/// the reference seconds it took; the simulators are dropped after
/// timing.
pub fn setup(inputs: &Inputs, meter: &mut Meter) -> Result<f64, String> {
    meter.start();
    let built: Vec<Simulator> = match inputs {
        Inputs::Scenarios(list) => list
            .iter()
            .map(|(name, json)| {
                let spec = parse_scenario(name, json)?;
                build_scenario_cached(&spec, Some(Arc::new(Recorder::new())), None)
                    .map(|(sim, _)| sim)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, String>>()?,
        Inputs::Campaign(name, json) => {
            let (_, cells) = parse_campaign(name, json)?;
            let recorder = Arc::new(Recorder::new());
            let cache = Arc::new(TransitionCache::new());
            cells
                .iter()
                .map(|cell| {
                    build_scenario_cached(
                        &cell_scenario(cell),
                        Some(Arc::clone(&recorder)),
                        Some(Arc::clone(&cache)),
                    )
                    .map(|(sim, _)| sim)
                    .map_err(|e| e.to_string())
                })
                .collect::<Result<_, String>>()?
        }
    };
    let elapsed = meter.lap();
    drop(std::hint::black_box(built));
    Ok(elapsed)
}

/// Runs one workload end to end, writing its artifacts under `out`.
/// A scenario's simulation runs through `run_until` with a predicate
/// that never fires, which steps exactly as `run_for` does and lets the
/// meter calibrate between passes.
pub fn iterate(inputs: &Inputs, out: &Path, meter: &mut Meter) -> Iteration {
    match inputs {
        Inputs::Scenarios(list) => scenarios(list, out, meter),
        Inputs::Campaign(name, json) => campaign(name, json, out, meter),
    }
}

/// The session outcome, assembled from a finished simulator exactly as
/// `run_scenario` assembles it.
pub fn outcome_of(sim: &Simulator, stats: Option<&Arc<GovernorStats>>) -> ScenarioOutcome {
    let telemetry = sim.telemetry();
    ScenarioOutcome {
        peak_temperature_c: telemetry.max_temperature().max().unwrap_or(f64::NAN),
        average_power_w: telemetry.average_total_power().value(),
        energy_j: telemetry.total_energy(),
        workloads: sim
            .scheduler()
            .iter()
            .map(|p| WorkloadOutcome {
                name: p.name().to_owned(),
                median_fps: sim.median_fps(p.pid()),
                final_cluster: p.cluster().to_string(),
            })
            .collect(),
        migrations: stats.map_or(0, |s| s.migrations()),
        events: sim.events().render(),
    }
}

fn scenarios(list: &[(String, String)], out: &Path, meter: &mut Meter) -> Iteration {
    meter.start();
    let mut built: Vec<Result<Built, String>> = list
        .iter()
        .map(|(name, json)| {
            let spec = parse_scenario(name, json)?;
            let (sim, stats) = build_scenario_cached(&spec, Some(Arc::new(Recorder::new())), None)
                .map_err(|e| e.to_string())?;
            Ok((spec, sim, stats))
        })
        .collect();
    let setup_s = meter.lap();
    let mut device_s = 0.0;
    let results: Vec<Result<(ScenarioOutcome, SessionAnalysis), String>> = built
        .iter_mut()
        .map(|b| {
            let (spec, sim, stats) = b.as_mut().map_err(|e| e.clone())?;
            sim.run_until(
                |_| {
                    meter.poll();
                    false
                },
                Seconds::new(spec.duration_s),
            )
            .map_err(|e| e.to_string())?;
            device_s += spec.duration_s;
            Ok((
                outcome_of(sim, stats.as_ref()),
                SessionAnalysis::from_sim(sim),
            ))
        })
        .collect();
    let sim_s = meter.lap();
    let export_s = timed_exports(out, meter, || {
        let mut artifacts = Artifacts::new();
        for ((name, _), (b, r)) in list.iter().zip(built.iter().zip(&results)) {
            if let (Ok((spec, sim, _)), Ok((outcome, analysis))) = (b, r) {
                let report = SessionReport::new(name.as_str(), outcome.clone(), analysis.clone());
                let frame = sim.telemetry().frame();
                let mut queries = String::new();
                for expr in &spec.queries {
                    queries.push_str(&run_query(expr, frame, None));
                }
                artifacts.push((format!("{name}.report.json"), to_json(&report)));
                artifacts.push((format!("{name}.csv"), frame.to_csv()));
                artifacts.push((format!("{name}.queries.csv"), queries));
            }
        }
        artifacts
    });
    Iteration {
        wall_s: setup_s + sim_s + export_s[0],
        sim_s,
        device_s,
        export_s,
        runs: results
            .iter()
            .map(|r| r.as_ref().ok().map(|(o, a)| digest::scenario(o, a)))
            .collect(),
    }
}

fn campaign(name: &str, json: &str, out: &Path, meter: &mut Meter) -> Iteration {
    meter.start();
    let parsed = parse_campaign(name, json);
    let setup_s = meter.lap();
    let recorder = Arc::new(Recorder::new());
    let (result, sim_s) = meter.lap_parallel(|| {
        parsed
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(_, cells)| {
                run_cells_framed(cells, jobs(), &recorder, None).map_err(|e| e.to_string())
            })
    });
    let export_s = timed_exports(out, meter, || match (&parsed, &result) {
        (Ok((spec, _)), Ok((report, frames))) => {
            campaign_artifacts(name, spec, report, frames, &recorder)
        }
        _ => Artifacts::new(),
    });
    let (device_s, cells) = parsed.as_ref().map_or((0.0, 1), |(_, cells)| {
        (cells.iter().map(cell_device_s).sum(), cells.len())
    });
    Iteration {
        wall_s: setup_s + sim_s + export_s[0],
        sim_s,
        device_s,
        export_s,
        runs: match &result {
            Ok((report, _)) => digest::campaign(report).into_iter().map(Some).collect(),
            Err(_) => vec![None; cells],
        },
    }
}

/// The artifacts `run_scenario --campaign` writes: report, fleet
/// rollups, columnar CSV, Chrome trace, metrics and query results.
pub fn campaign_artifacts(
    name: &str,
    spec: &CampaignSpec,
    report: &CampaignReport,
    frames: &CampaignFrames,
    recorder: &Recorder,
) -> Artifacts {
    let mut artifacts = vec![(format!("{name}.report.json"), to_json(report))];
    if !report.fleet.is_empty() {
        artifacts.push((format!("{name}.fleet.json"), to_json(&report.fleet)));
    }
    let cells_frame = report.cells_frame();
    let mut queries = String::new();
    for expr in &spec.queries {
        queries.push_str(&run_query(expr, &cells_frame, Some(frames)));
    }
    artifacts.push((format!("{name}.csv"), cells_frame.to_csv()));
    artifacts.push((
        format!("{name}.trace.json"),
        chrome_trace_json_full(&recorder.spans(), &recorder.tracks(), name),
    ));
    artifacts.push((
        format!("{name}.metrics.txt"),
        recorder.snapshot().to_prometheus(),
    ));
    artifacts.push((format!("{name}.queries.csv"), queries));
    artifacts
}

/// Runs one query the way `run_scenario` does: on the given frame, then
/// for campaigns on the per-cell telemetry and the fleet device frames.
pub fn run_query(expr: &str, frame: &ColumnFrame, frames: Option<&CampaignFrames>) -> String {
    let result = Query::parse(expr).and_then(|q| match (q.run(frame), frames) {
        (Err(QueryError::UnknownChannel { .. }), Some(frames)) => {
            match q.run_campaign(&frames.campaign_frame()) {
                Err(QueryError::UnknownChannel { .. }) => {
                    q.run_campaign(&frames.fleet_campaign_frame())
                }
                other => other,
            }
        }
        (result, _) => result,
    });
    match result {
        Ok(r) => format!("# {}\n{}", r.query, r.to_csv()),
        Err(e) => format!("# {expr}\nerror: {e}\n"),
    }
}

fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("reports serialize")
}

/// Per-run digests through the program's other entry points
/// (`run_scenario_framed_cached`; `run_campaign` on one worker): the
/// reference the timed path is checked against.
pub fn reference(inputs: &Inputs) -> Vec<Option<String>> {
    match inputs {
        Inputs::Scenarios(list) => list
            .iter()
            .map(|(name, json)| {
                let spec = parse_scenario(name, json).ok()?;
                let (outcome, analysis, _) =
                    run_scenario_framed_cached(&spec, Some(Arc::new(Recorder::new())), None)
                        .ok()?;
                Some(digest::scenario(&outcome, &analysis))
            })
            .collect(),
        Inputs::Campaign(name, json) => match parse_campaign(name, json)
            .and_then(|(spec, _)| run_campaign(&spec, 1).map_err(|e| e.to_string()))
        {
            Ok(report) => digest::campaign(&report).into_iter().map(Some).collect(),
            Err(_) => vec![None],
        },
    }
}
