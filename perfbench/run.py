#!/usr/bin/env python3
"""Closed-loop benchmark for the Ampere simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the repository's libraries plus closed_loop_bench) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

Every workload run is a fresh closed_loop_bench process with jobs = 1, and
counts as one attempted operation.

--trace 0 first runs the workload's reference panel, a fixed list of
experiment seeds. The deterministic model figures (violation minutes per
day, TPW ratio) come from the panel, so they are the same for every --seed
and comparable with the paper. Then it cycles through the experiment seeds
--seed stands for (own_seeds) until --seconds have passed. Timing and
memory figures are medians over every run. Throughput is taken over the
simulation thread's CPU time, which excludes the time a shared host keeps
the thread waiting; the table also prints it over wall time.

--trace 1 alternates untraced and traced runs (traced_loop.h) on the first
of those seeds and reports per-layer figures as medians over the traced
runs.

A run fails if:
- its process fails;
- a breaker tripped;
- a DecisionJournal summary disagrees with its GroupReport;
- its fingerprint differs from an earlier run on the same seed, traced or
  not. The fingerprint is events, jobs submitted and completed, violation
  minutes and G_TPW.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_NAME = "closed_loop_bench"

# Experiment seeds of each workload's reference panel. 20160411 is the seed
# of fig10's heavy arm, so the paper row's first panel day is fig10's day.
PANELS = {
    "paper_row_heavy": [20160411 + i for i in range(8)],
    "hyperscale_day": [20160411, 20160412],
    "campus4_record": [20160411],
}

END_TO_END_UNITS = {
    "server_min_per_s": "server-min/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "violation_min_per_day": "min/day",
    "tpw_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.pending_peak": "count",
    "sim.step_self_ns": "ns",
    "sim.us_per_sim_min": "us/sim-min",
    "workload.batches": "count",
    "workload.batch_ns": "ns",
    "workload.us_per_sim_min": "us/sim-min",
    "sched.submits": "count",
    "sched.submit_ns": "ns",
    "sched.placed_on_submit_ratio": "ratio",
    "sched.drain_placements": "count",
    "sched.queue_peak": "count",
    "sched.us_per_sim_min": "us/sim-min",
    "cluster.completions": "count",
    "cluster.completion_ns": "ns",
    "cluster.us_per_sim_min": "us/sim-min",
    "telemetry.samples": "count",
    "telemetry.sample_ns": "ns",
    "telemetry.us_per_sim_min": "us/sim-min",
    "telemetry.series": "count",
    "core.ticks": "count",
    "core.tick_ns": "ns",
    "core.freeze_ops": "count",
    "core.us_per_sim_min": "us/sim-min",
    "metrics.us_per_sim_min": "us/sim-min",
    "campus.us_per_sim_min": "us/sim-min",
    "campus.replans": "count",
    "campus.spillover_jobs": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# How many experiment seeds each --seed stands for: run i uses seed
# SEED_STRIDE * --seed + i % OWN_SEEDS. Cycling over several seeds averages
# out how much a single day's workload costs, which differs by ~10 % from
# seed to seed at paper scale.
OWN_SEEDS = {
    "paper_row_heavy": 8,
    "hyperscale_day": 2,
    "campus4_record": 2,
}
SEED_STRIDE = 16

# Table 2's heavy arm (violations per 24 h with Ampere vs uncontrolled) and
# what fig10 reproduces today on the same day.
PAPER_TABLE2_HEAVY = (1, 321)
FIG10_HEAVY = (30, 873)

RUN_TIMEOUT_S = 150  # Per process; the whole call must end within 180 s.
DEADLINE_S = 120     # Start no run after this much time has passed.


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds closed_loop_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} holds no ampere source tree to build")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", BINARY_NAME,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / BINARY_NAME


def run_once(binary, workload, seed, mode, short):
    """One workload run in a fresh process; None if the process failed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} {mode}: timed out")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed} {mode}: exit {proc.returncode}\n"
            f"{proc.stderr}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload} seed {seed} {mode}: unreadable output")
        return None


class Checker:
    """Counts runs and failures; remembers each seed's first fingerprint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}

    def check(self, seed, result):
        self.attempted += 1
        problems = []
        if result is None:
            problems.append("process failed")
        else:
            if result["breaker_tripped"]:
                problems.append("a breaker tripped")
            if not result["journal_matches"]:
                problems.append("journal summary differs from GroupReport")
            first = self.fingerprints.setdefault(seed, result["fingerprint"])
            if result["fingerprint"] != first:
                problems.append(f"fingerprint {result['fingerprint']} "
                                f"differs from {first} on the same seed")
        if problems:
            self.failed += 1
            log(f"seed {seed}: FAILED: " + "; ".join(problems))
        return not problems


def run_series(binary, workload, panel, own, seconds, short):
    """Runs the `panel` (seed, mode) pairs once, then cycles through the
    `own` pairs until `seconds` have passed and every own pair ran, one of
    them twice (the determinism check). Returns the checker and the passing
    runs as (is_panel, result) pairs."""
    checker = Checker()
    runs = []
    start = time.monotonic()
    schedule = [(seed, mode, True) for seed, mode in panel]
    own_runs = 0
    while True:
        if not schedule:
            elapsed = time.monotonic() - start
            if own_runs > len(own) and (elapsed >= seconds or
                                        elapsed >= DEADLINE_S):
                break
            seed, mode = own[own_runs % len(own)]
            schedule.append((seed, mode, False))
            own_runs += 1
        seed, mode, is_panel = schedule.pop(0)
        result = run_once(binary, workload, seed, mode, short)
        if checker.check(seed, result):
            runs.append((is_panel, result))
    return checker, runs


def own_seeds(workload, seed):
    return [SEED_STRIDE * seed + i for i in range(OWN_SEEDS[workload])]


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(binary, workload, seed, seconds, short):
    panel = PANELS[workload]
    own = [(s, "run") for s in own_seeds(workload, seed)]
    checker, tagged = run_series(binary, workload,
                                 [(s, "run") for s in panel], own, seconds,
                                 short)
    runs = [r for _, r in tagged]
    panel_runs = [r for is_panel, r in tagged if is_panel]
    metrics = {}
    if runs:
        metrics["server_min_per_s"] = median_of(runs, "server_min_per_s")
        metrics["setup_s"] = median_of(runs, "setup_s")
        metrics["peak_rss_mb"] = median_of(runs, "peak_rss_mb")
    if panel_runs:
        days = sum(r["measured_days"] for r in panel_runs)
        violations = sum(r["fingerprint"]["violation_minutes"]
                         for r in panel_runs)
        metrics["violation_min_per_day"] = violations / days
        metrics["tpw_ratio"] = statistics.fmean(
            1.0 + r["fingerprint"]["gain_tpw"] for r in panel_runs)
    notes = paper_notes(workload, panel_runs)
    if runs:
        wall = statistics.median(r["server_min_per_s"] * r["run_cpu_s"] /
                                 r["run_s"] for r in runs)
        notes.append(f"server_min_per_s over wall time instead of CPU time: "
                     f"{wall:.6g}")
    return checker, metrics, notes


def paper_notes(workload, panel_runs):
    """The model's error against Table 2 on fig10's day and the panel."""
    if workload != "paper_row_heavy" or not panel_runs:
        return []
    day = next((r for r in panel_runs if r["seed"] == PANELS[workload][0]),
               None)
    days = sum(r["measured_days"] for r in panel_runs)
    exp = sum(r["fingerprint"]["violation_minutes"] for r in panel_runs)
    ctl = sum(r["control_violation_minutes"] for r in panel_runs)
    notes = []
    if day is not None:
        notes.append(
            f"violation minutes per 24 h, controlled vs uncontrolled: "
            f"fig10's day {day['fingerprint']['violation_minutes']} vs "
            f"{day['control_violation_minutes']}; "
            f"panel mean {exp / days:.1f} vs {ctl / days:.1f}; "
            f"paper Table 2 {PAPER_TABLE2_HEAVY[0]} vs "
            f"{PAPER_TABLE2_HEAVY[1]}; fig10 today {FIG10_HEAVY[0]} vs "
            f"{FIG10_HEAVY[1]}")
    return notes


def per_layer(binary, workload, seed, seconds, short):
    first = own_seeds(workload, seed)[0]
    checker, tagged = run_series(binary, workload, [],
                                 [(first, "run"), (first, "trace")], seconds,
                                 short)
    runs = [r for _, r in tagged]
    traced = [r for r in runs if r["mode"] == "trace"]
    untraced = [r for r in runs if r["mode"] == "run"]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name]
                                              for r in traced)
    if traced and untraced:
        metrics["trace.overhead"] = (median_of(traced, "traced_cpu_s") /
                                     median_of(untraced, "run_cpu_s") - 1.0)
    return checker, metrics, []


def benchmark(binary, workload, seed, seconds, trace, short=False):
    """Runs one benchmark call; returns (result dict, human-readable lines)."""
    measure = per_layer if trace else end_to_end
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    checker, metrics, notes = measure(binary, workload, seed, seconds, short)
    missing = [name for name in units if name not in metrics]
    if missing:
        log(f"metrics missing: {', '.join(missing)}")
    correct = checker.failed == 0 and not missing
    lines = [f"{workload} seed {seed} "
             f"({'traced' if trace else 'end to end'}): "
             f"runs_failed {checker.failed} of runs_attempted "
             f"{checker.attempted}"]
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    lines.extend("  " + n for n in notes)
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    return result, lines


def self_test(binary):
    """Short-horizon pass over every workload in both modes: every traced
    fingerprint must equal the untraced one (Checker), and every metric
    BENCHMARK.json names must be printed with its unit."""
    declared = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bench = json.loads(spec.read_text())
        declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for workload in PANELS:
        for trace in (0, 1):
            result, lines = benchmark(binary, workload, 1, 0, trace,
                                      short=True)
            print("\n".join(lines))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = declared.get(trace, printed)
            if not result["correct"] or result["failed"] or \
                    printed != expected:
                log(f"self-test FAILED: {workload} trace {trace}: "
                    f"correct={result['correct']} printed={printed}")
                ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(PANELS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 59:
        parser.error("--seed must be in [0, 2^59)")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2
    if args.self_test:
        return self_test(binary)
    result, lines = benchmark(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
