#!/usr/bin/env python3
"""Campaign benchmark: builds avd_perfbench from this checkout, runs one
workload, checks its outputs and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload pbft-mac --seed 1 --seconds 25 \\
        --trace 0

Run it from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build), and so do the campaign directories of a run, which
are removed afterwards. Progress and a readable summary go to stderr; the
last line of stdout is the result. See perfbench/README.md for the
workloads, the metrics and why they were chosen.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was
import metrics  # noqa: E402  (the path is set just above)

DEFAULT_SEED = 1
# A run ends well inside the 180 s every invocation is allowed.
RUN_TIMEOUT_S = 170

# Workload names and metric units come from the benchmark's definition.
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as definition:
    BENCHMARK = json.load(definition)
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    out = build_dir()
    configured = any(os.path.exists(os.path.join(out, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j",
                    str(os.cpu_count() or 2)], check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_program(binary, args, run_dir):
    """Runs avd_perfbench in its own process group and returns its records.
    On timeout the whole group (fleet workers too) is killed and reaped."""
    command = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", run_dir]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(process.pid)
        process.communicate()
        raise
    if process.returncode != 0:
        kill_group(process.pid)  # workers of a coordinator that failed
        raise RuntimeError(f"avd_perfbench exited {process.returncode}")
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def read_spans(path):
    with open(path) as spans:
        return [json.loads(line) for line in spans if line.strip()]


def pooled_rate(campaigns):
    """Scenarios completed per second of campaign wall time after set-up."""
    wall = sum(c["wall_s"] for c in campaigns)
    return sum(c["executed"] for c in campaigns) / wall


def check(records):
    """Output checks. Returns (attempted, failed, problems)."""
    campaigns = [r for r in records if r["type"] == "campaign"]
    units = [r for r in records if r["type"] == "unit"]
    problems = []
    digests = {}
    for c in campaigns:
        digests.setdefault(c["index"], set()).add(c["journal"])
    journal_ok = {index: len(d) == 1 for index, d in digests.items()}
    for index, ok in sorted(journal_ok.items()):
        if not ok:
            problems.append(f"campaign {index}: journals differ across runs")
    unions = {}
    for u in units:
        unions.setdefault(u["campaigns"], set()).add(u["classes_union"])
    for size, values in sorted(unions.items()):
        if len(values) != 1:
            problems.append(f"{size}-campaign units found {sorted(values)} "
                            "classes across runs")
    attempted = sum(c["budget"] for c in campaigns)
    failed = 0
    for c in campaigns:
        lost = metrics.campaign_failures(c, journal_ok[c["index"]])
        if lost:
            problems.append(f"campaign {c['index']} (seed {c['seed']}) "
                            f"rep {c['rep']}: {lost} failed scenario(s)")
        failed += lost
    if not campaigns or not any(r["type"] == "done" for r in records):
        problems.append("program output is incomplete")
        attempted = max(attempted, 1)
        failed = max(failed, 1)
    return attempted, failed, problems


def end_to_end(records):
    timed = [r for r in records if r["type"] == "campaign"
             and r["timed"] and not r["traced"]]
    setups = [r["setup_s"] for r in records
              if r["type"] == "setup"] + [c["setup_s"] for c in timed]
    return {
        "scenarios_per_s": pooled_rate(timed),
        "setup_s": metrics.median(setups),
    }


def per_layer(records, spans):
    traced = [r for r in records if r["type"] == "campaign" and r["traced"]]
    untraced = [r for r in records if r["type"] == "campaign"
                and not r["traced"] and r["timed"]]
    unit = next(r for r in records if r["type"] == "unit" and r["traced"])
    rss = next(r for r in records if r["type"] == "rss")
    probes = {r["name"]: r["value"] for r in records if r["type"] == "probe"}
    spawns = [r["spawn_s"] for r in records if r["type"] == "worker"]
    workers = traced[0]["workers"]

    self_time = metrics.self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def duration(span):
        return span["end"] - span["start"]

    campaign_ns = sum(duration(s) for s in by_name.get("campaign", []))
    setup_ns = sum(duration(s) for s in by_name.get("setup", []))
    after_setup_ns = campaign_ns - setup_ns
    campaign_self_ns = sum(self_time[s["id"]]
                           for s in by_name.get("campaign", []))
    executes = [duration(s) for s in by_name.get("execute", [])]
    scenarios = sum(c["executed"] for c in traced)
    tail_pct, tail_ns = metrics.tail(executes)
    first_class = [c["first_class_test"] for c in traced
                   if c["first_class_test"] > 0]

    values = {
        "campaign.overhead_share": campaign_self_ns / after_setup_ns,
        "campaign.peak_rss_mb": rss["peak_rss_mb"],
        "campaign.setup_fsync_ms":
            metrics.median(c["setup_fsync_s"] for c in traced) * 1e3,
        "campaign.setup_fsyncs":
            metrics.median(c["setup_fsyncs"] for c in traced),
        "fleet.worker_busy_share": sum(executes) / (after_setup_ns * workers),
        "fleet.spawn_s": metrics.median(spawns) if spawns else 0.0,
        "fleet.reassigned": sum(c["reassigned"] for c in traced),
        "fleet.respawns": sum(c["respawns"] for c in traced),
        "avd.tests_to_first_class":
            metrics.median(first_class) if first_class else 0.0,
        "avd.classes_found": unit["classes_union"],
        "avd.attack_s":
            sum(duration(s) for s in by_name.get("attack", [])) * 1e-9,
        "avd.baseline_s":
            sum(duration(s) for s in by_name.get("baseline", [])) * 1e-9,
        "avd.baseline_runs": len(by_name.get("baseline", [])),
        "avd.scenario_ms_p50": metrics.median(executes) * 1e-6,
        "avd.scenario_ms_tail": tail_ns * 1e-6,
        "avd.scenario_ms_tail_pct": tail_pct,
        "avd.scenarios": len(executes),
        "sim.queue_drops_per_scenario":
            sum(c["queue_drops"] for c in traced) / scenarios,
        "faultinject.restarts_per_scenario":
            sum(c["restarts"] for c in traced) / scenarios,
        "trace.overhead_share":
            metrics.overhead_share(pooled_rate(traced), pooled_rate(untraced)),
    }
    for name in PER_LAYER:
        if name not in values:
            # pbft.* and sim.pending_events are measured on pbft-mac only.
            values[name] = probes.get(name, 0.0)
    return values


def summarize(workload, values):
    log(f"{workload}:")
    for name, value in values.items():
        log(f"  {name:36s} {value:.6g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed > 10**12 or args.seconds < 1:
        parser.error("--seed must be in [0, 1e12] and --seconds >= 1")

    run_dir = os.path.join(build_dir(), "runs",
                           f"{args.workload}-{os.getpid()}")
    try:
        binary = build("avd_perfbench")
        records = run_program(binary, args, run_dir)
        spans = (read_spans(os.path.join(run_dir, "spans.jsonl"))
                 if args.trace else [])
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        log(f"benchmark did not run: {error}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = check(records)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    if args.trace:
        values, units = per_layer(records, spans), PER_LAYER
    else:
        values, units = end_to_end(records), END_TO_END
    summarize(args.workload, values)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
