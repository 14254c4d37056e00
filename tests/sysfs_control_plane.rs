//! Integration tests of the sysfs control plane: the simulator is driven
//! exactly like a real embedded platform — by reading and writing small
//! text attributes at Linux paths.

use mobile_thermal::core::scenario::{build_scenario, ScenarioSpec};
use mobile_thermal::kernel::{paths, ProcessClass};
use mobile_thermal::sim::{SimBuilder, Simulator, SteppingMode};
use mobile_thermal::soc::{platforms, ComponentId};
use mobile_thermal::sysfs::SysFsError;
use mobile_thermal::units::{Hertz, Seconds};
use mobile_thermal::workloads::apps;
use mobile_thermal::workloads::benchmarks::BasicMathLarge;

fn game_sim() -> Simulator {
    SimBuilder::new(platforms::snapdragon_810())
        .attach(
            Box::new(apps::paper_io(1)),
            ProcessClass::Foreground,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim")
}

#[test]
fn cpufreq_layout_matches_linux() {
    let sim = game_sim();
    let fs = sim.sysfs();
    // Policy directories at the kernel's conventional CPU numbers.
    assert!(fs.exists("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"));
    assert!(fs.exists("/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq"));
    assert!(fs.exists("/sys/class/devfreq/gpu/scaling_governor"));
    // Available frequencies are advertised in kHz.
    let freqs = fs
        .read(&paths::available_frequencies(ComponentId::Gpu))
        .expect("attribute exists");
    assert_eq!(freqs, "180000 305000 390000 450000 510000 600000");
}

#[test]
fn thermal_zones_report_millidegrees() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(5.0)).expect("run");
    let fs = sim.sysfs();
    let zone_type = fs.read(&paths::thermal_zone_type(0)).expect("zone 0");
    assert_eq!(zone_type, "package");
    let mc: i64 = fs.read_parsed(&paths::thermal_zone_temp(0)).expect("temp");
    // The phone started at ambient and has been gaming for 5 s: the
    // package reads a plausible 25–60 C in millidegrees.
    assert!((25_000..60_000).contains(&mc), "package reads {mc} m°C");
}

#[test]
fn userspace_written_caps_govern_the_hardware() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(5.0)).expect("warmup");
    assert!(sim.current_frequency(ComponentId::Gpu).expect("gpu") > Hertz::from_mhz(450));
    // A userspace daemon writes a cap, exactly as `thermal-engine` would.
    sim.sysfs()
        .write(&paths::max_freq(ComponentId::Gpu), "305000")
        .expect("writable");
    sim.run_for(Seconds::new(2.0)).expect("run");
    assert!(
        sim.current_frequency(ComponentId::Gpu).expect("gpu") <= Hertz::from_mhz(305),
        "the sysfs cap must bind"
    );
    // Clearing the cap restores full speed.
    sim.sysfs()
        .write(&paths::max_freq(ComponentId::Gpu), "600000")
        .expect("writable");
    sim.run_for(Seconds::new(2.0)).expect("run");
    assert!(sim.current_frequency(ComponentId::Gpu).expect("gpu") > Hertz::from_mhz(450));
}

#[test]
fn current_frequency_is_mirrored_every_tick() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(5.0)).expect("run");
    let khz: u64 = sim
        .sysfs()
        .read_parsed(&paths::cur_freq(ComponentId::Gpu))
        .expect("cur_freq");
    assert_eq!(
        Hertz::from_khz(khz),
        sim.current_frequency(ComponentId::Gpu).expect("gpu")
    );
}

#[test]
fn odroid_exposes_ina231_rails_in_microwatts() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(5.0)).expect("run");
    let uw: i64 = sim
        .sysfs()
        .read_parsed(&paths::power_rail_uw("vdd_arm"))
        .expect("rail");
    // One busy A15 core: hundreds of mW to a few W, in microwatts.
    assert!((100_000..5_000_000).contains(&uw), "vdd_arm reads {uw} uW");
    // The Nexus phone, by contrast, has no rails (the paper needed an
    // external DAQ).
    let nexus = game_sim();
    assert!(!nexus.sysfs().exists(&paths::power_rail_uw("vdd_arm")));
}

fn odroid_sim(mode: SteppingMode) -> Simulator {
    SimBuilder::new(platforms::exynos_5422())
        .stepping(mode)
        .attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim")
}

#[test]
fn invalid_writes_are_rejected_not_applied() {
    let mut sim = odroid_sim(SteppingMode::FixedDt);
    sim.run_for(Seconds::new(1.0)).expect("run");
    let fs = sim.sysfs();
    for path in [
        paths::cur_freq(ComponentId::Gpu),
        paths::max_freq(ComponentId::Gpu),
        paths::thermal_zone_temp(0),
        paths::power_rail_uw("vdd_arm"),
    ] {
        let before = fs.read(&path).expect("readable");
        let err = fs
            .write(&path, "not-a-number")
            .expect_err("non-numeric writes are rejected");
        assert!(
            matches!(err, SysFsError::InvalidValue { .. }),
            "{path}: {err:?}"
        );
        assert_eq!(fs.read(&path).expect("readable"), before, "{path}");
    }
    let ro = fs
        .write(&paths::available_frequencies(ComponentId::Gpu), "1")
        .expect_err("available_frequencies is read-only");
    assert!(matches!(ro, SysFsError::ReadOnly { .. }), "{ro:?}");
}

#[test]
fn garbage_cap_is_rejected_and_the_previous_cap_keeps_binding() {
    let mut sim = game_sim();
    let cap = paths::max_freq(ComponentId::Gpu);
    sim.sysfs().write(&cap, "305000").expect("writable");
    sim.run_for(Seconds::new(1.0)).expect("run");
    for garbage in ["abc", "-1", "305000.5", ""] {
        let err = sim
            .sysfs()
            .write(&cap, garbage)
            .expect_err("not a kHz value");
        assert!(
            matches!(&err, SysFsError::InvalidValue { value, .. } if value == garbage),
            "{garbage:?}: {err:?}"
        );
    }
    assert_eq!(sim.sysfs().read(&cap).expect("readable"), "305000");
    sim.run_for(Seconds::new(2.0))
        .expect("a rejected write must not wedge the simulator");
    assert!(
        sim.current_frequency(ComponentId::Gpu).expect("gpu") <= Hertz::from_mhz(305),
        "the previous cap must keep binding"
    );
}

/// Every live attribute reads what the public accessors report, at the
/// precision the attribute publishes.
fn assert_live_reads_match_accessors(sim: &Simulator) {
    let fs = sim.sysfs();
    let platform = sim.platform();
    for component in platform.components() {
        let id = component.id();
        let khz: u64 = fs.read_parsed(&paths::cur_freq(id)).expect("cur_freq");
        assert_eq!(khz, sim.current_frequency(id).expect("policy").as_khz());
    }
    for (zone, sensor) in platform.temperature_sensors().iter().enumerate() {
        let mc: i64 = fs
            .read_parsed(&paths::thermal_zone_temp(zone))
            .expect("zone temp");
        let c = sim.temperature_of(sensor.thermal_node()).expect("node");
        assert_eq!(mc, (c.value() * 1000.0).round() as i64, "zone {zone}");
    }
    for rail in platform.power_rails() {
        let uw: i64 = fs
            .read_parsed(&paths::power_rail_uw(rail.name()))
            .expect("rail");
        let w = sim
            .last_powers()
            .get(&rail.component())
            .map_or(0.0, |b| b.total().value());
        assert_eq!(uw, (w * 1e6).round() as i64, "rail {}", rail.name());
    }
    for process in sim.scheduler().iter() {
        let path = paths::cpuset_cluster(process.pid().value());
        assert_eq!(fs.read(&path).expect("cpuset"), process.cluster().key());
    }
}

#[test]
fn live_reads_match_public_accessors_under_both_engines() {
    for mode in [SteppingMode::FixedDt, SteppingMode::EventDriven] {
        let mut sim = odroid_sim(mode);
        assert_live_reads_match_accessors(&sim);
        sim.run_for(Seconds::new(5.0)).expect("run");
        assert_live_reads_match_accessors(&sim);
        let pid = sim.pid_of("basicmath_large").expect("attached");
        sim.sysfs()
            .write(&paths::cpuset_cluster(pid.value()), "little")
            .expect("writable");
        sim.run_for(Seconds::new(5.0)).expect("run");
        assert_eq!(
            sim.scheduler().process(pid).expect("process").cluster(),
            ComponentId::LittleCluster,
            "{mode}"
        );
        assert_live_reads_match_accessors(&sim);
    }
}

/// Runs a shipped scenario to its end and returns its
/// `(mpt_sysfs_writes_total, mpt_ticks_total)`.
fn sysfs_writes_and_ticks(name: &str) -> (u64, u64) {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).expect("readable scenario");
    let spec: ScenarioSpec = serde_json::from_str(&json).expect("parses");
    let (mut sim, _) = build_scenario(&spec).expect("builds");
    sim.run_for(Seconds::new(spec.duration_s)).expect("runs");
    let metrics = sim.recorder().snapshot();
    let counter = |name| metrics.counter(name).expect("registered counter");
    (
        counter("mpt_sysfs_writes_total"),
        counter("mpt_ticks_total"),
    )
}

#[test]
fn sysfs_write_counter_counts_only_thermal_governor_caps() {
    let (writes, _) = sysfs_writes_and_ticks("nexus_unthrottled_game.json");
    assert_eq!(writes, 0, "no thermal governor, no control-plane writes");
    let (writes, ticks) = sysfs_writes_and_ticks("nexus_throttled_game.json");
    assert!(writes > 0, "step-wise trips write caps");
    assert!(writes < ticks, "{writes} writes over {ticks} ticks");
}

#[test]
fn cpuset_files_move_processes_between_clusters() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    let pid = sim.pid_of("basicmath_large").expect("attached");
    let path = paths::cpuset_cluster(pid.value());
    // The placement file reflects the live cluster.
    assert_eq!(sim.sysfs().read(&path).expect("readable"), "big");
    // A userspace daemon writes the cpuset; the move applies next tick.
    sim.sysfs().write(&path, "little").expect("writable");
    sim.run_for(Seconds::new(0.1)).expect("run");
    assert_eq!(
        sim.scheduler().process(pid).expect("process").cluster(),
        ComponentId::LittleCluster
    );
    assert_eq!(sim.sysfs().read(&path).expect("readable"), "little");
}

#[test]
fn cpuset_rejects_unknown_clusters() {
    let sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    let pid = sim.pid_of("basicmath_large").expect("attached");
    let err = sim
        .sysfs()
        .write(&paths::cpuset_cluster(pid.value()), "gpu")
        .expect_err("gpu is not a cpu cluster");
    assert!(err.to_string().contains("unknown cluster"));
}
