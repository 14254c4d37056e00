//! Cycle allocation and delivery: the scheduler stage.

use mpt_kernel::{allocate_max_min_into, Allocation, Pid};
use mpt_soc::ComponentId;

use crate::engine::SimCore;
use crate::stages::{SimStage, StepContext};
use crate::Result;

/// Allocates each CPU cluster's cycle capacity max–min fairly among its
/// processes (respecting per-process parallelism), allocates the GPU the
/// same way, and delivers the granted cycles back to the workloads.
///
/// Produces the delivered-cycle slots and the utilization figures every
/// later stage consumes.
#[derive(Debug, Default)]
pub struct ScheduleStage {
    /// Each workload's cluster this pass, parallel to the demands.
    clusters: Vec<Option<ComponentId>>,
    /// One allocation's requests, the demand index of each, and its
    /// sort scratch and result.
    requests: Vec<(Pid, f64)>,
    members: Vec<usize>,
    order: Vec<usize>,
    allocations: Vec<Allocation>,
}

impl SimStage for ScheduleStage {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        let dt = ctx.dt;
        let n = ctx.demands.len();
        ctx.delivered_cpu.resize(n, 0.0);
        ctx.delivered_gpu.resize(n, 0.0);
        self.clusters.clear();
        self.clusters.extend(
            ctx.demands
                .iter()
                .map(|(pid, _)| core.scheduler.process(*pid).map(|p| p.cluster())),
        );

        // CPU clusters.
        for cluster in [ComponentId::LittleCluster, ComponentId::BigCluster] {
            let Ok(component) = core.platform.component(cluster) else {
                continue;
            };
            let freq = core.policies[&cluster].current();
            let per_core = component.effective_rate(freq) * dt.value();
            let cores = f64::from(component.core_count());
            let capacity = per_core * cores;
            self.requests.clear();
            self.members.clear();
            for (i, (pid, d)) in ctx.demands.iter().enumerate() {
                if self.clusters[i] == Some(cluster) {
                    self.requests
                        .push((*pid, d.cpu_cycles.min(d.cpu_threads * per_core)));
                    self.members.push(i);
                }
            }
            allocate_max_min_into(
                &self.requests,
                capacity,
                &mut self.order,
                &mut self.allocations,
            );
            let mut total = 0.0;
            let per_pid = &mut ctx.cluster_delivered[cluster];
            // Governors see the *busiest CPU's* load, as the Linux
            // cpufreq core does (a single saturated thread must drive the
            // cluster to high frequency even though the cluster-average
            // utilization is only 1/cores).
            let mut busiest_thread = 0.0_f64;
            for (alloc, &i) in self.allocations.iter().zip(&self.members) {
                ctx.delivered_cpu[i] = alloc.delivered;
                total += alloc.delivered;
                per_pid.push((i, alloc.delivered));
                let threads = ctx.demands[i].1.cpu_threads.clamp(1.0, cores);
                if per_core > 0.0 {
                    busiest_thread = busiest_thread.max(alloc.delivered / (threads * per_core));
                }
            }
            ctx.cluster_busy_cores[cluster] = if per_core > 0.0 {
                total / per_core
            } else {
                0.0
            };
            let avg = if capacity > 0.0 {
                total / capacity
            } else {
                0.0
            };
            ctx.cluster_util[cluster] = avg.max(busiest_thread);
        }

        // GPU.
        if core.platform.component(ComponentId::Gpu).is_ok() {
            let freq = core.policies[&ComponentId::Gpu].current();
            let capacity = freq.as_f64() * dt.value();
            self.requests.clear();
            self.members.clear();
            for (i, (pid, d)) in ctx.demands.iter().enumerate() {
                if d.gpu_cycles > 0.0 {
                    self.requests.push((*pid, d.gpu_cycles));
                    self.members.push(i);
                }
            }
            allocate_max_min_into(
                &self.requests,
                capacity,
                &mut self.order,
                &mut self.allocations,
            );
            let mut total = 0.0;
            for (alloc, &i) in self.allocations.iter().zip(&self.members) {
                ctx.delivered_gpu[i] = alloc.delivered;
                total += alloc.delivered;
            }
            ctx.gpu_util = if capacity > 0.0 {
                total / capacity
            } else {
                0.0
            };
        }

        // Deliver to workloads.
        for (i, a) in core.workloads.iter_mut().enumerate() {
            a.workload
                .deliver(ctx.delivered_cpu[i], ctx.delivered_gpu[i], ctx.now, dt);
        }
        Ok(())
    }
}
