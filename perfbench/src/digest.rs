//! Output check: a digest of each run's simulated statistics, compared
//! against references stored with the benchmark.
//!
//! The digest covers only simulated results (peak temperature, average
//! power, energy, median FPS, alert firings, fleet rollups). Program
//! counters such as `mpt_sysfs_writes_total` stay out on purpose: a
//! change may redefine what they count without changing any result.
//! Floats are printed to ten significant digits, which any change of
//! behaviour moves while last-bit libm differences do not.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mpt_core::campaign::CampaignReport;
use mpt_core::report::SessionAnalysis;
use mpt_core::scenario::ScenarioOutcome;

/// The stored reference table: one line per workload and seed,
/// `<workload> <seed> <digest> <digest> ...`, one digest per run.
const REFERENCES: &str = include_str!("../reference/digests.txt");

fn put(text: &mut String, key: &str, value: f64) {
    let _ = write!(text, "{key}={value:.9e};");
}

fn fnv32(text: &str) -> String {
    let h = text.bytes().fold(0x811c_9dc5_u32, |h, b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    format!("{h:08x}")
}

fn outcome_text(text: &mut String, outcome: &ScenarioOutcome, alerts: &BTreeMap<String, u64>) {
    put(text, "peak", outcome.peak_temperature_c);
    put(text, "power", outcome.average_power_w);
    put(text, "energy", outcome.energy_j);
    for w in &outcome.workloads {
        put(text, "fps", w.median_fps.unwrap_or(-1.0));
    }
    for (rule, n) in alerts {
        let _ = write!(text, "alert:{rule}={n};");
    }
}

/// Digest of one scenario run.
pub fn scenario(outcome: &ScenarioOutcome, analysis: &SessionAnalysis) -> String {
    let mut text = String::new();
    outcome_text(&mut text, outcome, &analysis.alert_counts());
    fnv32(&text)
}

/// Digests of every cell of a campaign run, in expansion order; a fleet
/// cell's digest also covers its population rollup.
pub fn campaign(report: &CampaignReport) -> Vec<String> {
    report
        .cells
        .iter()
        .zip(&report.analysis.cell_alerts)
        .map(|(cell, alerts)| {
            let mut text = String::new();
            outcome_text(&mut text, &cell.outcome, &alerts.by_rule);
            if let Some(f) = report.fleet.iter().find(|f| f.index == cell.index) {
                let _ = write!(text, "tripped={};", f.tripped_devices);
                for q in f.throttle_onset_cdf.iter().chain(&f.time_above_trip_s) {
                    put(&mut text, "q", q.value);
                }
                for b in &f.peak_temp_histogram {
                    let _ = write!(text, "bin={};", b.count);
                }
                put(&mut text, "pmin", f.peak_temp_min_c);
                put(&mut text, "pmed", f.peak_temp_median_c);
                put(&mut text, "pmax", f.peak_temp_max_c);
            }
            fnv32(&text)
        })
        .collect()
}

/// The stored per-run digests for `workload` at `seed`, if the table
/// has them.
pub fn stored(workload: &str, seed: u64) -> Option<Vec<String>> {
    REFERENCES.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(workload) && parts.next()?.parse() == Ok(seed))
            .then(|| parts.map(str::to_owned).collect())
    })
}

/// `(attempted, failed)` over one workload iteration: a run fails if it
/// returned an error (`None`), if its digest differs from the reference
/// at the same position, or if it is missing.
pub fn tally(runs: &[Option<String>], reference: &[String]) -> (u64, u64) {
    let attempted = runs.len().max(reference.len());
    let failed = (0..attempted)
        .filter(|&i| runs.get(i).and_then(Option::as_ref) != reference.get(i))
        .count();
    (attempted as u64, failed as u64)
}
