#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py [--seeds 1-10]

For every workload in BENCHMARK.json it runs the benchmark command once
per seed untraced (--trace 0) and once traced (--trace 1, first seed),
then records each end-to-end metric's median, quartiles and spread
(inter-quartile distance over the median, as statistics.quantiles(n=4)
gives it), the failed/attempted run counts, every per-layer metric, and
the command, CPU count and commit the figures belong to.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

# Each legacy BENCH_*.json entry and the per-layer metric (on the named
# workload) that supersedes it. The legacy files stay as they are.
LEGACY = {
    "BENCH_columnar.json": {
        "columnar/export_csv_60s": "daq.csv_export_ns_per_value (paper_tick)",
        "columnar/append_60s_session": "sim.stage.telemetry.ns_per_pass (paper_tick)",
        "columnar/query_p95_session": "daq.query_us (paper_tick, phased_event)",
        "columnar/query_grouped_campaign_12c": "daq.query_us (dse_sweep)",
    },
    "BENCH_events.json": {
        "engine/fixed_100ms_x600s": "sim.passes_per_sim_s and host_ms_per_sim_s (phased_event)",
        "engine/event_100ms_x600s": "sim.passes_per_sim_s and host_ms_per_sim_s (phased_event)",
        "simulator/tick_nexus_game": "sim.pass_us.mean (paper_tick)",
        "simulator/simulated_second_odroid": "host_ms_per_sim_s (paper_tick)",
    },
    "BENCH_fleet.json": {
        "fleet/step_batch_100dev": "thermal.step_batch_ns_per_device_tick (fleet_launch)",
        "fleet/step_batch_1000dev": "thermal.step_batch_ns_per_device_tick (fleet_launch)",
        "fleet/step_batch_10000dev": "thermal.step_batch_ns_per_device_tick (fleet_launch)",
    },
    "BENCH_obs.json": {
        "stability/*": "not superseded: the stability analysis runs inside the proposed governor, seen only as sim.stage.govern.ns_per_pass (paper_tick)",
        "thermal_network/step_100ms": "thermal.step_ns",
        "thermal_network/steady_state": "not superseded: off every workload's path",
        "thermal_network/reduce_to_lumped": "not superseded: off every workload's path",
        "scheduler/allocate_max_min_32": "sim.stage.schedule.ns_per_pass (paper_tick)",
        "simulator/tick_nexus_game": "sim.pass_us.mean (paper_tick)",
        "simulator/simulated_second_odroid": "host_ms_per_sim_s (paper_tick)",
        "mibench/*": "sim.stage.demand.ns_per_pass (paper_tick)",
        "recorder/tick_100_recording": "obs.recorder_ns_per_pass (paper_tick)",
        "recorder/tick_100_null": "obs.recorder_ns_per_pass (paper_tick)",
        "journal/*": "not superseded: journal emits sit inside the stages and the campaign runner",
    },
    "BENCH_solver.json": {
        "solver/step_*": "thermal.step_ns",
    },
    "BENCH_verify.json": {
        "verify/*": "not superseded: the MPT6xx certifier is off every workload's path",
    },
}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    command, seconds = bench["command"], bench["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    result = {
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "nproc": os.cpu_count(),
        "command": command,
        "run_seconds": seconds,
        "seeds": args.seeds,
        "spread": "inter-quartile distance over the median of the per-seed values",
        "workloads": {},
        "legacy": LEGACY,
    }
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            r = run(command, workload, seed, seconds, 0)
            attempted += r["attempted"]
            failed += r["failed"]
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        traced = run(command, workload, args.seeds[0], seconds, 1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name, v = metric["name"], values[metric["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                "spread": spread, "bound": metric["bound"], "values": v}
            ok = spread <= metric["bound"] or name == "setup_s"
            steady &= ok
            print(f"  {name:<20} median {median:.6g} {metric['unit']}  spread {spread:.4f}"
                  f"  bound {metric['bound']}{'' if ok else '  OVER BOUND'}", flush=True)
        print(f"  {'error_rate':<20} {failed / max(attempted, 1):.6g}  ({failed} of {attempted} runs failed)",
              flush=True)
        result["workloads"][workload] = {
            "end_to_end": end_to_end,
            "error_rate": failed / max(attempted, 1),
            "attempted": attempted,
            "failed": failed,
            "per_layer": {k: m for k, m in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
