//! Thermal integration: heat flows for one tick.

use mpt_obs::Counter;
use mpt_units::{Seconds, Watts};

use crate::engine::SimCore;
use crate::stages::{SimStage, StepContext};
use crate::Result;

/// Maps per-component power onto thermal-network nodes and integrates
/// the heat equation across the tick.
#[derive(Debug, Default)]
pub struct ThermalStage {
    /// This pass's power per thermal node, reused across passes.
    node_powers: Vec<Watts>,
}

impl SimStage for ThermalStage {
    fn name(&self) -> &'static str {
        "thermal"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        let node_powers = &mut self.node_powers;
        node_powers.clear();
        node_powers.resize(core.network.len(), Watts::ZERO);
        for (&id, breakdown) in &ctx.powers {
            let node = core
                .platform
                .thermal_spec()
                .node_for_component(id)
                .expect("validated at platform build");
            node_powers[node] += breakdown.total();
        }
        if let Some(trace) = core.power_trace.as_mut() {
            trace.push_tick(node_powers);
        }
        let stats = core.network.step(ctx.dt, node_powers)?;
        if stats.cache_hit {
            core.recorder.incr(Counter::SolverCacheHits);
        }
        if stats.cache_build {
            core.recorder.incr(Counter::SolverCacheBuilds);
        }
        core.recorder.add(
            Counter::SolverSubstepsAvoided,
            u64::from(stats.substeps_avoided),
        );
        Ok(())
    }

    /// Predicted trip-point crossing: bisects the analytical trajectory
    /// `x(t) = Ad(t)·x0 + ∫Bd·u` (evaluated through the network's
    /// solver, so exact-LTI probes share the `TransitionCache` keyed by
    /// each probed gap) against every watched temperature threshold, and
    /// stops the pass one base tick *before* the first crossing tick —
    /// so the crossing tick itself contributes exactly one base dt of
    /// sustain accrual, as it would in fixed-dt mode.
    fn refine_wake(
        &mut self,
        core: &mut SimCore,
        now: Seconds,
        target: Seconds,
    ) -> Option<Seconds> {
        let base = core.clock.base_dt();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let k_max = ((target.value() - now.value()) / base.value()).round() as u64;
        if k_max <= 1 {
            return None;
        }
        let thresholds = core.analysis.temp_thresholds();
        if thresholds.is_empty() {
            return None;
        }
        // Input held constant across the gap: the previous pass's powers
        // mapped onto thermal nodes, exactly as `run` does.
        let mut node_powers = vec![Watts::ZERO; core.network.len()];
        for (&id, breakdown) in &core.last_powers {
            let node = core
                .platform
                .thermal_spec()
                .node_for_component(id)
                .expect("validated at platform build");
            node_powers[node] += breakdown.total();
        }
        let t0 = core.control_temperature().value();
        let t_end = core
            .peek_control_temperature(Seconds::new(k_max as f64 * base.value()), &node_powers)
            .ok()?
            .value();
        let crossed = |t: f64, threshold: f64| (t0 > threshold) != (t > threshold);
        let mut stop_at: Option<u64> = None;
        for &threshold in &thresholds {
            if !crossed(t_end, threshold) {
                continue;
            }
            // First k in 1..=k_max whose end temperature is on the other
            // side of the threshold (monotone approach to steady state
            // under constant input, so a single crossing per gap).
            let mut lo = 0u64;
            let mut hi = k_max;
            while hi - lo > 1 {
                core.macro_stats.trip_bisection_iters += 1;
                core.recorder.incr(Counter::TripBisectionIters);
                let mid = lo + (hi - lo) / 2;
                let tm = core
                    .peek_control_temperature(Seconds::new(mid as f64 * base.value()), &node_powers)
                    .ok()?
                    .value();
                if crossed(tm, threshold) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let stop = hi.saturating_sub(1).max(1);
            stop_at = Some(stop_at.map_or(stop, |s| s.min(stop)));
        }
        stop_at.map(|k| now + Seconds::new(k as f64 * base.value()))
    }
}
