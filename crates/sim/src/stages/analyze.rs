//! The analyze stage: the last phase of every tick, feeding the run's
//! [`RunAnalysis`](crate::RunAnalysis) — derived observables, alert
//! rules, and the domain counter tracks.

use mpt_kernel::CpuFreqPolicy;
use mpt_obs::TickSample;
use mpt_soc::ComponentId;
use mpt_units::Seconds;

use crate::engine::SimCore;
use crate::queue::WakeKind;
use crate::stages::{SimStage, StepContext, Wake};
use crate::{EventKind, Result};

/// Gathers the tick's domain signals (control temperature, total power,
/// per-component frequency, foreground FPS, throttle state) into one
/// [`TickSample`] and hands it to the core's analysis state.
#[derive(Debug, Default)]
pub struct AnalyzeStage {
    /// This pass's `(component, MHz)` rows, reused across passes.
    freqs_mhz: Vec<(ComponentId, f64)>,
}

impl SimStage for AnalyzeStage {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        let temp_c = core.control_temperature().value();
        let power_w: f64 = core.last_powers.values().map(|b| b.total().value()).sum();
        let throttled = core
            .policies
            .values()
            .any(|p| CpuFreqPolicy::max_cap(p).is_some());
        // The worst frame pipeline across the attached workloads: a
        // dropped foreground frame must not be masked by a fast
        // background renderer.
        let fps = core
            .workloads
            .iter()
            .filter_map(|a| a.workload.current_fps())
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |a| a.min(f)))
            });
        // Throttle activity since the last analyze pass: cap engagements
        // and cap-level moves, not releases.
        let throttle_events = core.events.events()[core.analysis.events_seen..]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CapChanged { cap: Some(_), .. }))
            .count() as u64;
        self.freqs_mhz.clear();
        self.freqs_mhz.extend(
            core.policies
                .iter()
                .map(|(&id, p)| (id, p.current().as_khz() as f64 / 1000.0)),
        );
        let sample = TickSample {
            t_s: (ctx.now + ctx.dt).value(),
            dt_s: ctx.dt.value(),
            temp_c,
            power_w,
            fps,
            throttled,
            throttle_events,
        };
        let SimCore {
            ref recorder,
            ref mut events,
            ref mut analysis,
            ..
        } = *core;
        analysis.observe_tick(recorder, events, &sample, &self.freqs_mhz);
        Ok(())
    }

    fn next_wake(&mut self, core: &mut SimCore, now: Seconds) -> Wake {
        // Counter tracks sample on the first pass *ending* at or after
        // the sample point.
        let mut wake = Wake::at(
            Seconds::new(core.analysis.next_track_sample_s()),
            WakeKind::SamplePoint,
        );
        // An armed sustain window fires (or resets) exactly when its
        // deadline elapses; schedule the check so `held_s` accrues
        // across macro steps just as it would tick by tick.
        if let Some(remaining) = core.analysis.next_alert_deadline_s() {
            wake = wake.earliest(Wake::at(
                now + Seconds::new(remaining),
                WakeKind::AlertDeadline,
            ));
        }
        wake
    }
}
