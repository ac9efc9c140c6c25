#!/usr/bin/env python3
"""Record one entry of the benchmark trajectory: BENCH_<pr>.json.

    python3 scripts/bench_record.py 6 [--before CHECKOUT]

Runs `perfbench/run.py --seconds 30 --trace 0` on the `formula`, `oracle`
and `suite` workloads for seeds 1-5, one run at a time, then 10 CLI cold
starts (`python -m reggescissors volume` on the README angles, each a fresh
subprocess), the per-call timings, the suite criteria and the tier-1 test
command once, all from the root of the checkout (about 10 minutes).  Writes
BENCH_<pr>.json there with, per workload, the median, q1 and q3 of every
end-to-end metric over the seeds and each run's `attempted`, `failed` and
`correct`; the median, q1 and q3 of the cold-start wall times; the per-call
means; the suite criteria seconds; and the tier-1 wall time, exit code and
summary line.  Times of the workloads are perfbench's, scaled to its
reference machine speed; the cold-start, per-call, suite criteria and tier-1
wall times are not scaled.

`per_call` gives, for each layer in PER_CALL, the mean microseconds of one
call over the first 200 Finite inputs of the `formula` stream for seed 1,
each on a fresh TetAngles, so no per-instance memo is warm; each layer runs
in its own fresh process, so no argument memo is warm either; the median of
SUITE_RUNS processes as `us`, with its quartiles as `us_q1` and `us_q3`.
With `--before`, the same layers are timed against the `src/` of another
checkout (the parent of the change), alternating process by process, and
recorded as `before_us`, `before_us_q1` and `before_us_q3`.

`suite_criteria` gives the unscaled in-process seconds of the package
import and of each criterion of `suite --count 100 --seed 7`, in the order
the suite runs them, in a fresh process, so a criterion that first needs a
module pays for importing it; the median of SUITE_RUNS processes as `s`,
with its quartiles as `s_q1` and `s_q3`.  With `--before` the other checkout
is timed too, alternating process by process, and recorded as `before_s`,
`before_s_q1` and `before_s_q3`.
"""

from __future__ import annotations

import argparse
import hashlib
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
PER_CALL_INPUTS = 200
#: Suite criterion 1's grid; lobachevsky_array shifts it by t.A, so no value is memoized.
LOB_GRID = np.linspace(-2 * np.pi, 2 * np.pi, 1000)
#: Layers timed by per_call: each gets the package `m` and a fresh TetAngles `t`.
#: `m.lobachevsky` is the function (the package re-exports it), not the module.
PER_CALL = {
    "lobachevsky_scalar": lambda m, t: [m.lobachevsky(x) for x in t.as_tuple()],
    "lobachevsky_array": lambda m, t: m.lobachevsky(LOB_GRID + t.A),
    "classify": lambda m, t: m.tetra.classify(t),
    "tet_volume": lambda m, t: m.octahedron.tet_volume(t),
    "decompose": lambda m, t: m.scissors.decompose(t),
    "verify_scissors_b": lambda m, t: m.scissors.verify_scissors(t, "b"),
    "regge_orbit": lambda m, t: m.scissors.regge_orbit(t),
    "schlafli_residual": lambda m, t: m.klein.schlafli_residual(t, h=1e-5),
    "oracle_quadrature": lambda m, t: m.klein.volume_numeric(m.klein.klein_vertices(t), 1e-6),
}
#: The SuiteConfig that `suite --count 100 --seed 7` runs.
SUITE_CONFIG = {"seed": 7, "count": 100, "oracle_count": 25}
#: Fresh processes per side behind each median of suite_criteria and per_call.
SUITE_RUNS = 5


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


def quartiles(runs: dict[str, list[float]]) -> dict:
    """For each column of runs, the median of its values under the column's
    name and their quartiles under the name suffixed `_q1` and `_q3`."""
    out = {}
    for column, values in runs.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out |= {column: float(median), f"{column}_q1": float(q1), f"{column}_q3": float(q3)}
    return out


def src_env(src: Path = ROOT / "src") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def src_digest(checkout: Path) -> str:
    """sha256 of the checkout's src/ files, as perfbench's `src_sha256`."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def time_layer(name: str) -> float:
    """Mean unscaled microseconds of one PER_CALL[name] call over the first
    PER_CALL_INPUTS Finite inputs of the `formula` stream for seed 1, in this
    process, with the package found on PYTHONPATH."""
    import reggescissors  # loads every module PER_CALL reaches

    tetra = reggescissors.tetra
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import TetStream
    from worker import RMAX, STREAM

    rows = []
    for angles, _ in TetStream(1, STREAM["formula"], RMAX["formula"]):
        if tetra.classify(tetra.TetAngles.of(angles)).kind is tetra.TetraKind.FINITE:
            rows.append(angles)
            if len(rows) > PER_CALL_INPUTS:
                break
    call = PER_CALL[name]
    call(reggescissors, tetra.TetAngles.of(rows.pop()))  # untimed warm-up on the next input
    total = 0.0
    for angles in rows:
        t = tetra.TetAngles.of(angles)
        start = time.perf_counter()
        call(reggescissors, t)
        total += time.perf_counter() - start
    return total / len(rows) * 1e6


def fresh(checkout: Path, *args: str) -> str:
    """stdout of this script run with `args` in a fresh process on the
    package in `checkout`'s src/."""
    return subprocess.run([sys.executable, __file__, *args], cwd=ROOT,
                          env=src_env(checkout / "src"), capture_output=True, text=True,
                          check=True).stdout


def run_per_call(before: Path | None) -> dict:
    """per_call: the median and quartiles over SUITE_RUNS fresh processes of
    each layer's time_layer, against this checkout and, when given, against
    the checkout `before`, alternating process by process."""
    checkouts = {"us": ROOT} if before is None else {"before_us": before, "us": ROOT}
    layers = {}
    for name in PER_CALL:
        runs = {column: [] for column in checkouts}
        for _ in range(SUITE_RUNS):
            for column, checkout in checkouts.items():
                runs[column].append(float(fresh(checkout, "--time-layer", name)))
        layers[name] = quartiles(runs)
    out = {"inputs": PER_CALL_INPUTS, "workload": "formula", "seed": 1, "runs": SUITE_RUNS,
           "scaled": False, "unit": "us", "layers": layers}
    if before is not None:
        out["before_src_sha256"] = src_digest(before)
    return out


def time_suite_criteria() -> dict:
    """Unscaled seconds of the package import and of each criterion of
    SUITE_CONFIG, run in order in this process, with the package found on
    PYTHONPATH."""
    start = time.perf_counter()
    from reggescissors import suite

    seconds = {"import": time.perf_counter() - start}
    config = suite.SuiteConfig(**SUITE_CONFIG)
    for criterion in suite._CRITERIA:
        start = time.perf_counter()
        criterion(config)
        seconds[criterion.__name__] = time.perf_counter() - start
    return seconds


def run_suite_criteria(before: Path | None) -> dict:
    """suite_criteria: the median and quartiles over SUITE_RUNS fresh
    processes of time_suite_criteria, against this checkout and, when given,
    against the checkout `before`."""
    checkouts = {"s": ROOT} if before is None else {"before_s": before, "s": ROOT}
    runs = {column: [] for column in checkouts}
    for _ in range(SUITE_RUNS):
        for column, checkout in checkouts.items():
            runs[column].append(json.loads(fresh(checkout, "--time-suite")))
    steps = {name: quartiles({column: [run[name] for run in runs[column]] for column in checkouts})
             for name in runs["s"][0]}
    out = {"command": "suite --count 100 --seed 7", "runs": SUITE_RUNS, "scaled": False,
           "unit": "s", "steps": steps}
    if before is not None:
        out["before_src_sha256"] = src_digest(before)
    return out


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
    parser.add_argument("pr", type=int, nargs="?", help="number of the change the entry records")
    parser.add_argument("--before", type=Path, metavar="CHECKOUT",
                        help="also time per_call against this checkout's src/ (the parent)")
    parser.add_argument("--time-layer", choices=PER_CALL, help=argparse.SUPPRESS)
    parser.add_argument("--time-suite", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.time_layer:
        print(time_layer(args.time_layer))
        return 0
    if args.time_suite:
        print(json.dumps(time_suite_criteria()))
        return 0
    if args.pr is None:
        parser.error("the number of the change is required")

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
    entry["per_call"] = run_per_call(args.before)
    entry["suite_criteria"] = run_suite_criteria(args.before)
    entry["tier1"] = {"command": "python " + " ".join(TIER1), **run_tier1()}

    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
