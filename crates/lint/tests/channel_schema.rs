//! The static telemetry schema MPT401 validates queries against must be
//! exactly the channel list a run records: for every shipped scenario
//! (and every cell of every shipped campaign), one simulated second
//! yields a session frame whose channel names equal
//! `platform_channels(&spec.platform)`, in order.

use std::path::PathBuf;

use mpt_core::scenario::{build_scenario, CampaignSpec, ScenarioSpec};
use mpt_lint::config::platform_channels;
use mpt_units::Seconds;

fn shipped_scenarios() -> Vec<(String, ScenarioSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    let mut specs = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let json = std::fs::read_to_string(&path).expect("readable file");
        if name.ends_with(".campaign.json") {
            let spec: CampaignSpec =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            let cells = spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
            specs.extend(
                cells
                    .into_iter()
                    .map(|cell| (format!("{name} [{}]", cell.label), cell.scenario)),
            );
        } else {
            let spec: ScenarioSpec =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            specs.push((name, spec));
        }
    }
    specs
}

#[test]
fn lint_schema_equals_recorded_channels_for_every_shipped_scenario() {
    let specs = shipped_scenarios();
    assert!(specs.len() >= 5, "expected the shipped scenario set");
    for (name, spec) in specs {
        let (mut sim, _) = build_scenario(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        sim.run_for(Seconds::new(1.0))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            platform_channels(&spec.platform),
            sim.telemetry().frame().channel_names(),
            "{name}: MPT401 schema differs from the recorded channels"
        );
    }
}
