//! Seeded benchmark of the mobile-thermal workspace: host time per
//! simulated second, end to end (`--trace 0`) and per layer
//! (`--trace 1`), over four workloads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_tick --seed 1 --seconds 15 --trace 0
//! ```
//!
//! End-to-end times are reference seconds: host seconds scaled by a
//! calibration kernel timed around every measured segment on the same
//! cores, so the host's drifting speed cancels out (see [`calib`]).
//!
//! Human-readable lines come first; the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A run
//! fails when the program returns an error or when its digest of
//! simulated statistics differs from the reference
//! (`reference/digests.txt`, or for a seed not in that table, the same
//! inputs run through the program's other entry points).
//!
//! `--reference` prints the reference line for one workload and seed
//! instead of measuring; `reference/digests.txt` is made of such lines.

#![forbid(unsafe_code)]

mod calib;
mod digest;
mod e2e;
mod gen;
mod layers;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("host_ms_per_sim_s", "ms/s"),
    ("export_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Least set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;

/// Share of the run spent on set-ups between units. One set-up takes
/// from well under a millisecond to tens of milliseconds, so a fixed
/// count would sample the host's drifting speed at only a few moments.
const SETUP_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --workload <name> --seed <n> --reference",
        gen::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !gen::WORKLOADS.contains(&args.workload.as_str()) || !args.seconds.is_finite() {
        usage();
    }
    args
}

/// Per-run reference digests through the program's other entry points,
/// with `ERR` for a run that failed there.
fn computed_reference(inputs: &gen::Inputs) -> Vec<String> {
    e2e::reference(inputs)
        .into_iter()
        .map(|d| d.unwrap_or_else(|| "ERR".to_owned()))
        .collect()
}

fn main() {
    let args = parse_args();
    let inputs = gen::generate(&args.workload, args.seed);
    if args.reference {
        let digests = computed_reference(&inputs);
        println!("{} {} {}", args.workload, args.seed, digests.join(" "));
        return;
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(&args.workload);
    std::fs::create_dir_all(&out).expect("artifact directory can be created");
    // The generated inputs, so any run can be replayed with `run_scenario`.
    for (name, json) in inputs.texts() {
        std::fs::write(out.join(format!("{name}.input.json")), json).expect("inputs are writable");
    }
    println!(
        "workload {}  seed {}  jobs {}  trace {}",
        args.workload,
        args.seed,
        e2e::jobs(),
        u8::from(args.trace)
    );
    let (metrics, runs) = if args.trace {
        layers::measure(&inputs, &out)
    } else {
        let budget = Duration::from_secs_f64(args.seconds.max(0.0));
        end_to_end(&inputs, &out, budget)
    };
    // A reference computed here runs after the measured budget, so every
    // seed gets the same number of measured rounds; it costs about one
    // round, or one per worker for a campaign (it runs on one worker).
    let reference = digest::stored(&args.workload, args.seed).unwrap_or_else(|| {
        println!(
            "reference: seed {} is not in the stored table; computing it",
            args.seed
        );
        computed_reference(&inputs)
    });
    let (mut attempted, mut failed) = (0, 0);
    for (offset, iteration) in &runs {
        let lo = (*offset).min(reference.len());
        let hi = (offset + iteration.len()).min(reference.len());
        let (a, f) = digest::tally(iteration, &reference[lo..hi]);
        attempted += a;
        failed += f;
    }
    let mut body = Vec::new();
    let mut finite = true;
    for (name, unit, value) in &metrics {
        println!("  {name:<44} {value:>14.6} {unit}");
        finite &= value.is_finite();
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { *value } else { 0.0 }
        ));
    }
    println!(
        "  {:<44} {:>14.6} ({failed} of {attempted} runs failed)",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && finite && attempted > 0,
        attempted.max(1),
        body.join(", ")
    );
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Per-iteration run digests, each with the position of its first run
/// in the workload's reference list.
type Runs = Vec<(usize, Vec<Option<String>>)>;

/// Untraced runs of the workload within `budget`: whole rounds over its
/// units (each scenario, or the campaign), with set-ups of the whole
/// workload after each unit taking [`SETUP_SHARE`] of the run so far
/// (at least one). Times are reference seconds from a [`calib::Meter`].
/// Each unit's figures are its medians over the rounds, and a workload
/// figure is the sum over its units. An untimed round comes first: it
/// lets lazy set-up and first-touch page faults finish before timing,
/// and `peak_rss_mb` is the high-water mark right after it, as a process
/// that runs the workload once sees it. Later rounds and set-ups only add
/// allocator fragmentation, which grows with their number and so with the
/// host's speed.
fn end_to_end(inputs: &gen::Inputs, out: &std::path::Path, budget: Duration) -> (Metrics, Runs) {
    let units = inputs.units();
    let mut meter = calib::Meter::new();
    let mut samples: Vec<Vec<[f64; 2]>> = vec![Vec::new(); units.len()];
    let mut exports: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut device_s = vec![0.0; units.len()];
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut setup_host_s = 0.0;
    let mut runs = Vec::new();
    let start = Instant::now();
    let mut unpolled = calib::Meter::unpolled();
    for (offset, unit) in &units {
        runs.push((*offset, e2e::iterate(unit, out, &mut unpolled).runs));
    }
    let peak_rss_mb = stats::peak_rss_mb();
    loop {
        let round = Instant::now();
        for (u, (offset, unit)) in units.iter().enumerate() {
            let it = e2e::iterate(unit, out, &mut meter);
            samples[u].push([it.wall_s, it.sim_s]);
            exports[u].extend(&it.export_s);
            device_s[u] = it.device_s;
            walls.push(it.wall_s);
            runs.push((*offset, it.runs));
            loop {
                let t = Instant::now();
                setups.push(e2e::setup(inputs, &mut meter).unwrap_or(f64::NAN));
                setup_host_s += t.elapsed().as_secs_f64();
                if setups[setups.len() - 1].is_nan()
                    || setup_host_s >= SETUP_SHARE * start.elapsed().as_secs_f64()
                {
                    break;
                }
            }
        }
        // Stop before a round would overrun the budget.
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(e2e::setup(inputs, &mut meter).unwrap_or(f64::NAN));
    }
    println!(
        "  {} rounds over {} unit(s) in {:.1} s; unit wall reference s: min {:.4} median {:.4} max {:.4}; {} set-ups",
        walls.len() / units.len(),
        units.len(),
        start.elapsed().as_secs_f64(),
        stats::quantile(&walls, 0.0),
        stats::median(&walls),
        stats::quantile(&walls, 1.0),
        setups.len()
    );
    println!(
        "  host speed: {} kernel samples, ms min {:.4} median {:.4} max {:.4} (reference {:.4})",
        meter.points.len(),
        stats::quantile(&meter.points, 0.0) * 1e3,
        stats::median(&meter.points) * 1e3,
        stats::quantile(&meter.points, 1.0) * 1e3,
        calib::REFERENCE_KERNEL_S * 1e3
    );
    let sum = |k: usize| {
        samples
            .iter()
            .map(|s| stats::median(&s.iter().map(|x| x[k]).collect::<Vec<_>>()))
            .sum::<f64>()
    };
    let values = [
        sum(0),
        stats::median(&setups),
        sum(1) * 1e3 / device_s.iter().sum::<f64>(),
        exports.iter().map(|e| stats::median(e)).sum(),
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();
    (metrics, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(kind: &str) -> Vec<String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let root = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        let field = |obj: &serde::Value, key: &str| {
            obj.as_object()
                .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        field(&root, kind)
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| field(m, "name").as_str().expect("a name").to_owned())
            .collect()
    }

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_names_equal_declared_names() {
        let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        let per_layer: Vec<String> = layers::PER_LAYER
            .iter()
            .map(|(n, _)| (*n).to_owned())
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
        assert_eq!(declared("per_layer"), per_layer);
        assert_eq!(declared("workloads"), gen::WORKLOADS);
        for name in end_to_end.iter().chain(&per_layer) {
            assert!(valid(name), "{name}");
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_differs_across_seeds() {
        for w in gen::WORKLOADS {
            assert_eq!(gen::generate(w, 7), gen::generate(w, 7), "{w}");
            assert_ne!(gen::generate(w, 7), gen::generate(w, 8), "{w}");
        }
    }

    #[test]
    fn generated_inputs_pass_the_lint_gate() {
        for seed in 0..8 {
            for w in gen::WORKLOADS {
                let inputs = gen::generate(w, seed);
                let campaign = matches!(inputs, gen::Inputs::Campaign(..));
                for (name, json) in inputs.texts() {
                    e2e::lint(name, json, campaign).unwrap_or_else(|e| panic!("{w} {seed}: {e}"));
                }
            }
        }
    }

    const SHORT: &str = r#"{ "platform": "exynos5422", "duration_s": 2.0,
        "workloads": [ { "kind": "basic_math" } ] }"#;

    #[test]
    fn perturbed_outcome_and_err_run_raise_error_rate() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/self-test");
        std::fs::create_dir_all(&out).expect("test artifact directory");
        let inputs = gen::Inputs::Scenarios(vec![("short".to_owned(), SHORT.to_owned())]);
        let reference: Vec<String> = e2e::reference(&inputs).into_iter().flatten().collect();
        assert_eq!(reference.len(), 1);
        assert_eq!(
            digest::tally(
                &e2e::iterate(&inputs, &out, &mut calib::Meter::new()).runs,
                &reference
            ),
            (1, 0)
        );

        let spec = e2e::parse_scenario("short", SHORT).expect("valid spec");
        let (mut outcome, analysis, _) = mpt_core::scenario::run_scenario_framed_cached(
            &spec,
            Some(std::sync::Arc::new(mpt_obs::Recorder::new())),
            None,
        )
        .expect("runs");
        outcome.energy_j *= 1.0 + 1e-6;
        let perturbed = digest::scenario(&outcome, &analysis);
        assert_eq!(digest::tally(&[Some(perturbed)], &reference), (1, 1));

        let bad = gen::Inputs::Scenarios(vec![(
            "short".to_owned(),
            SHORT.replace("\"duration_s\": 2.0", "\"duration_s\": -2.0"),
        )]);
        let runs = e2e::iterate(&bad, &out, &mut calib::Meter::new()).runs;
        assert_eq!(runs, vec![None]);
        assert_eq!(digest::tally(&runs, &reference), (1, 1));
    }

    #[test]
    fn stored_references_parse() {
        for w in gen::WORKLOADS {
            let digests = digest::stored(w, 1).expect("seed 1 is stored");
            assert!(
                !digests.is_empty() && digests.iter().all(|d| d.len() == 8),
                "{w}"
            );
        }
    }
}
