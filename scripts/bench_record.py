#!/usr/bin/env python3
"""Record one entry of the benchmark trajectory: BENCH_<pr>.json.

    python3 scripts/bench_record.py 6

Runs `perfbench/run.py --seconds 30 --trace 0` on the `formula`, `oracle`
and `suite` workloads for seeds 1-5, one run at a time, then 10 CLI cold
starts (`python -m reggescissors volume` on the README angles, each a fresh
subprocess) and the tier-1 test command once, all from the root of the
checkout (about 10 minutes).  Writes BENCH_<pr>.json there with, per
workload, the median, q1 and q3 of every end-to-end metric over the seeds and
each run's `attempted`, `failed` and `correct`; the median, q1 and q3 of the
cold-start wall times; and the tier-1 wall time, exit code and summary line.
Times of the workloads are perfbench's, scaled to its reference machine
speed; the cold-start and tier-1 wall times are not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("formula", "oracle", "suite")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 30
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
COLD_START = ("-m", "reggescissors", "volume", "1.15", "1.2", "1.1", "1.22", "1.18", "1.25")
COLD_START_RUNS = 10


def run_workload(workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run: its run record and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["record"], json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, metric in results[0]["metrics"].items():
        q1, median, q3 = np.percentile([r["metrics"][name]["value"] for r in results], [25, 50, 75])
        out[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3}
    return out


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_cold_start() -> dict:
    """Unscaled wall times of COLD_START_RUNS fresh CLI subprocesses."""
    times = []
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *COLD_START], cwd=ROOT, env=src_env(),
                       capture_output=True, check=True)
        times.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"command": "python " + " ".join(COLD_START), "runs": COLD_START_RUNS,
            "scaled": False, "unit": "s", "median": median, "q1": q1, "q3": q3}


def run_tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall_s, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the change the entry records")
    args = parser.parse_args()

    entry = {"pr": args.pr, "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs, results = [], []
        for seed in SEEDS:
            record, result = run_workload(workload, seed)
            entry.setdefault("src_sha256", record["src_sha256"])
            results.append(result)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "correct": result["correct"]})
            print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
        entry["workloads"][workload] = {"metrics": summarize(results), "runs": runs}
    entry["cli_cold_start"] = run_cold_start()
    entry["tier1"] = {"command": "python " + " ".join(TIER1), **run_tier1()}

    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
