//! Observation: telemetry recording, discrete events, and the publish of
//! live state into the slots behind the sysfs attributes.

use mpt_soc::ComponentId;
use mpt_units::{Hertz, Seconds};

use crate::engine::{log_event, sensor_temps, SimCore};
use crate::queue::WakeKind;
use crate::stages::{SimStage, StepContext, Wake};
use crate::{Event, EventKind, Result};

/// Records the tick into the run telemetry (time series, residency,
/// energy) and latches this tick's powers as
/// [`Simulator::last_powers`](crate::Simulator::last_powers).
#[derive(Debug, Default)]
pub struct TelemetryStage {
    /// This pass's `(component, frequency)` rows, reused across passes.
    freqs: Vec<(ComponentId, Hertz)>,
}

impl SimStage for TelemetryStage {
    fn name(&self) -> &'static str {
        "telemetry"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        self.freqs.clear();
        self.freqs
            .extend(core.policies.iter().map(|(&id, p)| (id, p.current())));
        let sensor_temps = sensor_temps(&core.platform, &core.network);
        core.telemetry
            .record(ctx.now, ctx.dt, sensor_temps, &self.freqs, &ctx.powers);
        core.last_powers = std::mem::take(&mut ctx.powers);
        Ok(())
    }

    fn next_wake(&mut self, core: &mut SimCore, now: Seconds) -> Wake {
        // Telemetry samples on the first pass *starting* at or after the
        // sample point, so the previous pass must end there.
        let next = core.telemetry.next_sample_time();
        let target = if next.value() <= now.value() + 1e-12 {
            // The pass about to start records regardless of its length;
            // the boundary to protect is one period on from its start.
            now + core.telemetry.sample_period()
        } else {
            next
        };
        Wake::at(target, WakeKind::SamplePoint)
    }
}

/// Detects discrete events (cluster migrations, workload completions)
/// against its previous-pass snapshot, then publishes live frequencies,
/// temperatures, rail powers and clusters into the typed slots the sysfs
/// attributes read from.
#[derive(Debug, Default)]
pub struct EventStage {
    /// Each workload's cluster after the previous pass, parallel to
    /// `SimCore::workloads`.
    prev_clusters: Vec<Option<ComponentId>>,
    /// Whether each workload's completion has been logged.
    finished: Vec<bool>,
}

impl SimStage for EventStage {
    fn name(&self) -> &'static str {
        "events"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        self.prev_clusters.resize(core.workloads.len(), None);
        self.finished.resize(core.workloads.len(), false);
        for (i, a) in core.workloads.iter().enumerate() {
            let Some(p) = core.scheduler.process(a.pid) else {
                continue;
            };
            let cluster = p.cluster();
            if let Some(prev) = self.prev_clusters[i].replace(cluster) {
                if prev != cluster {
                    log_event(
                        &core.recorder,
                        &mut core.events,
                        Event {
                            time: ctx.now,
                            kind: EventKind::Migration {
                                pid: a.pid,
                                name: a.workload.name().to_owned(),
                                from: prev,
                                to: cluster,
                            },
                        },
                    );
                }
            }
            if a.workload.is_finished() && !std::mem::replace(&mut self.finished[i], true) {
                log_event(
                    &core.recorder,
                    &mut core.events,
                    Event {
                        time: ctx.now,
                        kind: EventKind::WorkloadFinished {
                            pid: a.pid,
                            name: a.workload.name().to_owned(),
                        },
                    },
                );
            }
        }
        core.sync_sysfs()
    }
}
