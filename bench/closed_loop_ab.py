#!/usr/bin/env python3
"""Same-runner A/B of the closed-loop benchmark: a base commit against the
working tree.

    python3 bench/closed_loop_ab.py BASE_REF

Extracts BASE_REF with `git archive` into a temporary directory. Then, in
ROUNDS rounds that alternate which side goes first, it runs
`perfbench/run.py --workload W --seconds SECONDS` on the base and on this
tree for every workload BENCHMARK.json lists. Each tree builds perfbench
under its own .bench_build/.

Besides the median table it prints the host's effective parallelism (the
CPUs this process may run on, and the cgroup's CPU quota when it can be
read) and, per workload, in how many rounds this tree beat the base on
server_min_per_s.

Exit 1 if any call fails or reports `correct: false` or `failed > 0`, or
if this tree's median of an end-to-end metric is worse than the base's by
more than that metric's relative `bound` in BENCHMARK.json, in its
`better` direction. Exit 2 if BASE_REF names no commit.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
SECONDS = 5


def run_bench(tree, workload, env):
    """One run.py call; its result dict, or None if the call failed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seconds", str(SECONDS)],
        capture_output=True, text=True, env=env)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"] \
            or result["failed"] > 0:
        print(f"{tree} {workload}: FAILED (exit {proc.returncode})\n"
              f"{proc.stdout}{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return result


def effective_parallelism():
    """The CPUs this process may use, with the cgroup's CPU quota if any."""
    text = f"{len(os.sched_getaffinity(0))} CPUs in affinity mask"
    cgroup = Path("/sys/fs/cgroup")
    try:
        quota, period = (cgroup / "cpu.max").read_text().split()  # v2
    except (OSError, ValueError):
        try:  # v1
            quota = (cgroup / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (cgroup / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return text + ", cgroup CPU quota unreadable"
    if quota in ("max", "-1"):
        return text + ", no cgroup CPU quota"
    return text + f", cgroup quota {int(quota) / int(period):.2f} CPUs"


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_ref = sys.argv[1]
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                       "--quiet", base_ref + "^{commit}"],
                      stdout=subprocess.DEVNULL).returncode != 0:
        print(f"{base_ref}: not a commit", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}

    with tempfile.TemporaryDirectory(prefix="closed_loop_ab_") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base_ref],
                                 capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout,
                       check=True)
        sides = {"base": base, "head": ROOT}
        values = {(s, w): [] for s in sides for w in workloads}
        # Per workload, one (base, head) server_min_per_s pair per round in
        # which both calls succeeded.
        pairs = {w: [] for w in workloads}
        failed = 0
        for r in range(ROUNDS):
            order = ["base", "head"] if r % 2 == 0 else ["head", "base"]
            for workload in workloads:
                throughput = {}
                for side in order:
                    print(f"round {r + 1}/{ROUNDS}: {workload} on {side}",
                          file=sys.stderr, flush=True)
                    result = run_bench(sides[side], workload, env)
                    if result is None:
                        failed += 1
                    else:
                        values[(side, workload)].append(result["metrics"])
                        throughput[side] = \
                            result["metrics"]["server_min_per_s"]["value"]
                if len(throughput) == 2:
                    pairs[workload].append(
                        (throughput["base"], throughput["head"]))

    worse = 0
    print(f"{'workload':16s} {'metric':22s} {'base':>12s} {'head':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = [statistics.median(m[name]["value"]
                                         for m in values[(s, workload)])
                       if values[(s, workload)] else float("nan")
                       for s in ("base", "head")]
            change = medians[1] / medians[0] - 1.0 if medians[0] else 0.0
            if metric["better"] == "higher":
                bad = medians[1] < medians[0] * (1.0 - metric["bound"])
            else:
                bad = medians[1] > medians[0] * (1.0 + metric["bound"])
            worse += bad
            verdict = "WORSE" if bad else \
                "no runs" if math.isnan(sum(medians)) else "ok"
            print(f"{workload:16s} {name:22s} {medians[0]:12.6g} "
                  f"{medians[1]:12.6g} {change:+8.1%} {metric['bound']:6.0%}"
                  f"  {verdict}")
    for workload in workloads:
        wins = sum(head > base for base, head in pairs[workload])
        print(f"{workload}: head beat base on server_min_per_s in {wins} "
              f"of {len(pairs[workload])} rounds")
    print(f"effective parallelism: {effective_parallelism()}")
    print(f"{ROUNDS} rounds of {SECONDS} s per workload and side; "
          f"failed calls {failed}; metrics worse than bound {worse}")
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
