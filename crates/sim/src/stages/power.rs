//! The power model and per-process power accounting.

use mpt_soc::ComponentId;
use mpt_units::Watts;

use crate::engine::SimCore;
use crate::stages::{SimStage, StepContext};
use crate::Result;

/// Converts delivered utilization into per-component power (dynamic plus
/// temperature-dependent leakage from the *previous* tick's temperatures
/// — the positive feedback loop), then attributes cluster dynamic power
/// to processes and records their utilization/power windows.
#[derive(Debug, Default)]
pub struct PowerStage {
    /// Attributed dynamic power per workload, parallel to the demands.
    attributed: Vec<f64>,
}

impl SimStage for PowerStage {
    fn name(&self) -> &'static str {
        "power"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        let dt = ctx.dt;
        let little_busy = ctx.cluster_busy_cores[ComponentId::LittleCluster];
        let big_busy = ctx.cluster_busy_cores[ComponentId::BigCluster];

        // Per-component power (leakage from the previous tick's
        // temperatures).
        for component in core.platform.components() {
            let id = component.id();
            let freq = core.policies[&id].current();
            let opp = component.opps().at_or_below(freq);
            let util = match id {
                ComponentId::LittleCluster => little_busy,
                ComponentId::BigCluster => big_busy,
                ComponentId::Gpu => ctx.gpu_util,
                ComponentId::Memory => {
                    (0.04 * little_busy + 0.08 * big_busy + 0.5 * ctx.gpu_util).min(1.0)
                }
            };
            let node = core
                .platform
                .thermal_spec()
                .node_for_component(id)
                .expect("validated at platform build");
            let temp = core.network.temperature(node);
            ctx.powers.insert(
                id,
                component
                    .power_params()
                    .power(opp.voltage(), opp.frequency(), util, temp),
            );
        }

        // Attribute power to processes and record their windows. The
        // paper's governor ranks processes "by monitoring the average
        // utilization of each active process", i.e. by their *CPU*
        // activity — GPU power is a property of the display pipeline, not
        // of a schedulable process, so it is not attributed.
        self.attributed.clear();
        self.attributed.resize(ctx.demands.len(), 0.0);
        for cluster in [ComponentId::LittleCluster, ComponentId::BigCluster] {
            let per_pid = &ctx.cluster_delivered[cluster];
            let total: f64 = per_pid.iter().map(|(_, c)| c).sum();
            if total <= 0.0 {
                continue;
            }
            let dyn_power = ctx.powers[&cluster].dynamic.value();
            for &(i, c) in per_pid {
                self.attributed[i] += dyn_power * c / total;
            }
        }
        for (i, &(pid, _)) in ctx.demands.iter().enumerate() {
            let cluster = core
                .scheduler
                .process(pid)
                .expect("attached workloads have processes")
                .cluster();
            let component = core.component(cluster);
            let freq = core.policies[&cluster].current();
            let per_core = component.effective_rate(freq) * dt.value();
            let util = if per_core > 0.0 {
                ctx.delivered_cpu[i] / per_core
            } else {
                0.0
            };
            let power = Watts::new(self.attributed[i]);
            if let Some(p) = core.scheduler.process_mut(pid) {
                p.record_tick(util, power, dt);
            }
        }
        Ok(())
    }
}
