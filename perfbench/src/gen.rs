//! Seeded workload generator. The benchmark seed is the only source of
//! variation; the program under test sees nothing but the JSON texts
//! built here, exactly as a user would hand them to `run_scenario`.

use std::fmt::Write as _;

/// The benchmark's workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 4] = ["paper_tick", "dse_sweep", "fleet_launch", "phased_event"];

/// Devices per fleet cell: large enough that the batched replay and the
/// per-device observation loop dominate a cell, small enough that one
/// 3x3 campaign finishes in a few seconds on two cores.
pub const FLEET_DEVICES: usize = 2000;

/// Device jitter of the launch-day fleet, as `nexus_fleet_launch` ships it.
pub const FLEET_JITTER: &str = r#""leakage_scale": { "dist": "normal", "mean": 1.0, "std": 0.07 },
    "ambient_c": { "dist": "uniform", "min": -3.0, "max": 8.0 },
    "phase_offset_s": { "dist": "uniform", "min": 0.0, "max": 2.0 },
    "workload_mix": { "dist": "uniform", "min": 0.9, "max": 1.1 }"#;

/// Simulated seconds per design-space cell.
const DSE_CELL_S: f64 = 2.0;

/// Simulated length of the phased event-engine run (one hour or more,
/// so the macro-stepper's wake/queue/bisection path does the work).
const PHASED_S: f64 = 3600.0;

/// Generated inputs: named JSON texts of one kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// Independent scenarios, each run as one device.
    Scenarios(Vec<(String, String)>),
    /// One campaign, run as a grid of cells.
    Campaign(String, String),
}

impl Inputs {
    /// Every `(name, json)` text the workload lints and parses.
    pub fn texts(&self) -> Vec<(&str, &str)> {
        match self {
            Inputs::Scenarios(list) => list.iter().map(|(n, j)| (n.as_str(), j.as_str())).collect(),
            Inputs::Campaign(n, j) => vec![(n.as_str(), j.as_str())],
        }
    }

    /// The independently timed units of the workload, each with the
    /// position of its first run in the workload's run list: one per
    /// scenario, or the whole campaign.
    pub fn units(&self) -> Vec<(usize, Inputs)> {
        match self {
            Inputs::Scenarios(list) => list
                .iter()
                .enumerate()
                .map(|(i, item)| (i, Inputs::Scenarios(vec![item.clone()])))
                .collect(),
            Inputs::Campaign(..) => vec![(0, self.clone())],
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator whose whole state is the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[lo, hi)`, rounded to `step` so the JSON stays short.
    pub fn range(&mut self, lo: f64, hi: f64, step: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) / step).round() * step
    }

    /// A workload seed that survives the JSON number round trip exactly.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }
}

/// Builds a workload's inputs from the benchmark seed.
///
/// # Panics
///
/// On an unknown workload name (callers validate names first).
pub fn generate(workload: &str, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, workload);
    match workload {
        "paper_tick" => paper_tick(&mut rng),
        "dse_sweep" => dse_sweep(&mut rng),
        "fleet_launch" => fleet_launch(&mut rng),
        "phased_event" => phased_event(&mut rng),
        other => panic!("unknown workload {other:?}"),
    }
}

const SCENARIO_QUERIES: &str =
    r#""queries": ["p95(max_temp_c)", "mean(total_power_w)", "max(power_big_w)"]"#;

/// The paper's three scenarios at full length: the Nexus 6P throttled
/// game (140 s) and the Odroid-XU3 IPA and proposed-governor runs
/// (250 s each, long enough that the span cap's loss stays visible).
fn paper_tick(rng: &mut Rng) -> Inputs {
    let nexus = format!(
        r#"{{
  "platform": "snapdragon810",
  "duration_s": 140.0,
  "initial_temperature_c": 35.0,
  "thermal": {{ "policy": "step_wise", "trips_c": [41.0, 44.0], "period_s": 1.0 }},
  "alerts": [
    {{ "rule": "temp_above", "threshold_c": 41.0, "sustain_s": 2.0 }},
    {{ "rule": "fps_below", "target": 30.0, "sustain_s": 2.0 }},
    {{ "rule": "throttle_storm", "events": 10, "window_s": 30.0 }},
    {{ "rule": "runaway", "window_s": 5.0, "slope_c_per_s": 0.5 }}
  ],
  {SCENARIO_QUERIES},
  "workloads": [
    {{ "kind": "app", "name": "paper_io", "foreground": true, "seed": {} }}
  ]
}}"#,
        rng.seed()
    );
    let odroid = |policy: &str, rng: &mut Rng| {
        format!(
            r#"{{
  "platform": "exynos5422",
  "duration_s": 250.0,
  "initial_temperature_c": 50.0,
  {policy},
  {SCENARIO_QUERIES},
  "workloads": [
    {{ "kind": "three_d_mark", "test_duration_s": 125.0, "foreground": true, "realtime": true, "seed": {} }},
    {{ "kind": "basic_math", "seed": {} }},
    {{ "kind": "steady", "name": "system_server", "rate": 5e8, "threads": 2.0, "cluster": "little", "seed": {} }}
  ]
}}"#,
            rng.seed(),
            rng.seed(),
            rng.seed()
        )
    };
    let ipa = odroid(
        r#""thermal": { "policy": "ipa", "control_c": 95.0, "sustainable_w": 2.6, "gpu_weight": 1.2 }"#,
        rng,
    );
    let proposed = odroid(
        r#""app_aware": { "limit_c": 95.0, "horizon_s": 60.0 }"#,
        rng,
    );
    Inputs::Scenarios(vec![
        ("nexus_throttled_game".to_owned(), nexus),
        ("odroid_default_ipa".to_owned(), ipa),
        ("odroid_proposed".to_owned(), proposed),
    ])
}

/// The foreground app of design-space mix `i`: each of the five Nexus
/// apps, then 3DMark twice and Nenamark. Kinds are fixed per mix and
/// only their parameters follow the seed, so every seed asks for about
/// the same amount of work.
fn foreground(i: usize, rng: &mut Rng) -> String {
    const APPS: [&str; 5] = [
        "paper_io",
        "stickman_hook",
        "amazon",
        "google_hangouts",
        "facebook",
    ];
    match i {
        0..=4 => format!(
            r#"{{ "kind": "app", "name": "{}", "foreground": true, "seed": {} }}"#,
            APPS[i],
            rng.seed()
        ),
        5 | 6 => format!(
            r#"{{ "kind": "three_d_mark", "test_duration_s": {}, "foreground": true, "realtime": true }}"#,
            rng.range(0.75, 1.25, 0.25)
        ),
        _ => r#"{ "kind": "nenamark", "foreground": true }"#.to_owned(),
    }
}

/// Background load `k` (of four kinds) of a design-space mix.
fn background(k: usize, cluster: &str, rng: &mut Rng) -> String {
    match k % 4 {
        0 => format!(r#"{{ "kind": "basic_math", "cluster": "{cluster}" }}"#),
        1 => format!(
            r#"{{ "kind": "steady", "name": "bg_steady", "rate": {}, "threads": 2.0, "cluster": "{cluster}" }}"#,
            rng.range(5e8, 1.5e9, 1e7)
        ),
        2 => format!(
            r#"{{ "kind": "bursty", "name": "bg_bursty", "burst_s": {}, "idle_s": {}, "cluster": "{cluster}" }}"#,
            rng.range(0.3, 0.5, 0.05),
            rng.range(0.3, 0.5, 0.05)
        ),
        _ => format!(
            r#"{{ "kind": "phased", "name": "bg_phased", "cluster": "{cluster}", "phases": [
        {{ "until_s": {}, "rate": {}, "threads": 2.0 }},
        {{ "until_s": {}, "rate": 0.0 }},
        {{ "until_s": {}, "rate": {}, "threads": 4.0 }} ] }}"#,
            DSE_CELL_S / 3.0,
            rng.range(1e9, 3e9, 1e7),
            DSE_CELL_S * 2.0 / 3.0,
            DSE_CELL_S + 1.0,
            rng.range(3e9, 6e9, 1e7)
        ),
    }
}

/// A design-space sweep: 2 platforms x 4 thermal policies x 5 ambients x
/// 8 workload mixes = 320 short cells, run on one shared recorder.
fn dse_sweep(rng: &mut Rng) -> Inputs {
    let low = rng.range(40.0, 43.0, 0.5);
    let high = rng.range(75.0, 80.0, 0.5);
    let thermal = format!(
        r#"{{ "policy": "disabled" }},
      {{ "policy": "step_wise", "trips_c": [{low}, {}], "period_s": {} }},
      {{ "policy": "step_wise", "trips_c": [{high}, {}], "period_s": {} }},
      {{ "policy": "ipa", "control_c": {}, "sustainable_w": {}, "gpu_weight": {} }}"#,
        low + 3.0,
        rng.range(0.2, 0.5, 0.1),
        high + 5.0,
        rng.range(0.2, 0.5, 0.1),
        rng.range(80.0, 90.0, 0.5),
        rng.range(2.0, 3.0, 0.1),
        rng.range(1.0, 1.4, 0.1)
    );
    // One ambient per 6 C stratum from 25 C up.
    let ambients: Vec<f64> = (0..5)
        .map(|i| rng.range(25.0 + 6.0 * f64::from(i), 30.0 + 6.0 * f64::from(i), 0.5))
        .collect();
    let mut mixes = String::new();
    for m in 0..8 {
        let cluster = if m % 2 == 0 { "big" } else { "little" };
        let mut entries = vec![foreground(m, rng), background(m, cluster, rng)];
        if m % 3 == 0 {
            entries.push(background(m + 1, "big", rng));
        }
        let _ = write!(
            mixes,
            "{}\n      [ {} ]",
            if m == 0 { "" } else { "," },
            entries.join(", ")
        );
    }
    let json = format!(
        r#"{{
  "base": {{
    "platform": "snapdragon810",
    "duration_s": {DSE_CELL_S},
    "workloads": [ {{ "kind": "basic_math" }} ]
  }},
  "sweep": {{
    "platforms": ["snapdragon810", "exynos5422"],
    "thermal": [
      {thermal}
    ],
    "initial_temperatures_c": [{}],
    "workloads": [{mixes}
    ]
  }},
  "seed": {},
  "queries": [
    "max(peak_temperature_c) by thermal",
    "mean(average_power_w) by platform",
    "p95(energy_j) by ambient",
    "count(alerts) by platform,thermal"
  ]
}}"#,
        ambients
            .iter()
            .map(|a| format!("{a:?}"))
            .collect::<Vec<_>>()
            .join(", "),
        rng.seed() | 1
    );
    Inputs::Campaign("dse_sweep".to_owned(), json)
}

/// `nexus_fleet_launch`'s 3x3 ambient x mix grid with the population
/// scaled to [`FLEET_DEVICES`]; device jitter follows the drawn
/// campaign seed.
fn fleet_launch(rng: &mut Rng) -> Inputs {
    let json = format!(
        r#"{{
  "base": {{
    "platform": "snapdragon810",
    "duration_s": 30.0,
    "initial_temperature_c": 35.0,
    "thermal": {{ "policy": "step_wise", "trips_c": [40.5, 43.5], "period_s": 1.0 }},
    "workloads": [
      {{ "kind": "app", "name": "paper_io", "foreground": true, "seed": {} }}
    ]
  }},
  "sweep": {{
    "initial_temperatures_c": [25.0, 35.0, 45.0],
    "fleet_mix": [0.6, 1.0, 1.2]
  }},
  "seed": {},
  "fleet": {{
    "devices": {FLEET_DEVICES},
    {FLEET_JITTER},
    "trip_c": 40.5
  }},
  "queries": [
    "p99(peak_temp_c) by ambient",
    "median(time_above_trip_s) by mix",
    "max(peak_temp_c) by ambient,mix"
  ]
}}"#,
        rng.seed(),
        rng.seed() | 1
    );
    Inputs::Campaign("fleet_launch".to_owned(), json)
}

/// An hour-long phased CPU load under the event engine with a step-wise
/// trip policy, crossing its trips in both directions many times.
fn phased_event(rng: &mut Rng) -> Inputs {
    let trip = rng.range(70.0, 75.0, 0.5);
    // Twelve phases of about five minutes, cycling light, saturating and
    // idle load; lengths and rates follow the seed, the pattern does not.
    let mut phases = Vec::new();
    for i in 0..12 {
        let t = if i == 11 {
            PHASED_S
        } else {
            PHASED_S / 12.0 * f64::from(i + 1) + rng.range(-60.0, 60.0, 1.0)
        };
        let (rate, threads) = match i % 3 {
            0 => (rng.range(1e9, 2e9, 1e7), 2.0),
            1 => (rng.range(6e9, 8e9, 1e7), 4.0),
            _ => (0.0, 1.0),
        };
        phases.push(format!(
            r#"{{ "until_s": {t:?}, "rate": {rate:?}, "threads": {threads:?} }}"#
        ));
    }
    let json = format!(
        r#"{{
  "platform": "exynos5422",
  "duration_s": {PHASED_S:?},
  "initial_temperature_c": 40.0,
  "engine": "event",
  "thermal": {{ "policy": "step_wise", "trips_c": [{trip:?}, {:?}], "period_s": 1.0 }},
  "alerts": [ {{ "rule": "temp_above", "threshold_c": {:?}, "sustain_s": 5.0 }} ],
  {SCENARIO_QUERIES},
  "workloads": [
    {{ "kind": "phased", "name": "batch", "phases": [
      {}
    ] }}
  ]
}}"#,
        trip + 8.0,
        trip - 2.0,
        phases.join(",\n      ")
    );
    Inputs::Scenarios(vec![("phased_event".to_owned(), json)])
}
