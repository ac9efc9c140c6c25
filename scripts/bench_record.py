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
reference machine speed.  The per-call and suite criteria times are scaled
the same way: each timing process samples `perfbench/machine.Ticker` and
records `reference_seconds` of its timed intervals.  The cold-start and
tier-1 wall times are not scaled.

`per_call` gives, for each layer in PER_CALL, the mean scaled microseconds
of one call over the first 200 Finite inputs of the `formula` stream for
seed 1, each on a fresh TetAngles, so no per-instance memo is warm; each
layer runs in its own fresh process, so no argument memo is warm either; the
median of SUITE_RUNS processes as `us`, with its quartiles as `us_q1` and
`us_q3`.  A layer in PER_CALL_ARG takes in place of the TetAngles the
argument it makes from it (`volume_numeric`: the Klein realization), made
before the call's timer starts.
With `--before`, the same layers are timed against the `src/` of another
checkout (the parent of the change), alternating process by process, with
the side that runs first swapped every round, and recorded as `before_us`,
`before_us_q1` and `before_us_q3`, and `wins` counts the rounds in which
this checkout took less time.

`suite_criteria` gives the scaled in-process seconds of the package
import and of each criterion of `suite --count 100 --seed 7`, in the order
the suite runs them, in a fresh process, so a criterion that first needs a
module pays for importing it; the median of SUITE_RUNS processes as `s`,
with its quartiles as `s_q1` and `s_q3`.  With `--before` the other checkout
is timed too, alternating as for `per_call`, and recorded as `before_s`,
`before_s_q1`, `before_s_q3` and `wins`.
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
    "klein_vertices": lambda m, t: m.klein.klein_vertices(t),
    "volume_numeric": lambda m, kt: m.klein.volume_numeric(kt, 1e-6),
    "oracle_quadrature": lambda m, t: m.klein.volume_numeric(m.klein.klein_vertices(t), 1e-6),
    "lobachevsky_quadrature_scalar": lambda m, t: m.lobachevsky_quadrature(t.A, 1e-12),
}
#: The untimed argument of a PER_CALL layer that does not take the TetAngles itself.
PER_CALL_ARG = {"volume_numeric": lambda m, t: m.klein.klein_vertices(t)}
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
    name and their quartiles under the name suffixed `_q1` and `_q3`; with
    a `before_<column>` column too, under `wins`, the rounds in which the
    column's value was the lower."""
    out = {}
    for column, values in runs.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out |= {column: float(median), f"{column}_q1": float(q1), f"{column}_q3": float(q3)}
        if f"before_{column}" in runs:
            out["wins"] = sum(a < b for a, b in zip(values, runs[f"before_{column}"], strict=True))
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


def layer_arg(name: str, m, t):
    """The argument of PER_CALL[name] for the package `m` and the TetAngles `t`."""
    return PER_CALL_ARG[name](m, t) if name in PER_CALL_ARG else t


def time_layer(name: str) -> float:
    """Mean scaled microseconds of one PER_CALL[name] call over the first
    PER_CALL_INPUTS Finite inputs of the `formula` stream for seed 1, in this
    process, with the package found on PYTHONPATH."""
    import reggescissors  # loads every module PER_CALL reaches

    tetra = reggescissors.tetra
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import TetStream
    from machine import Ticker, reference_seconds
    from worker import RMAX, STREAM

    rows = []
    for angles, _ in TetStream(1, STREAM["formula"], RMAX["formula"]):
        if tetra.classify(tetra.TetAngles.of(angles)).kind is tetra.TetraKind.FINITE:
            rows.append(angles)
            if len(rows) > PER_CALL_INPUTS:
                break
    call = PER_CALL[name]
    call(reggescissors, layer_arg(name, reggescissors, tetra.TetAngles.of(rows.pop())))  # untimed warm-up
    intervals = []
    with Ticker() as ticker:
        for angles in rows:
            arg = layer_arg(name, reggescissors, tetra.TetAngles.of(angles))
            start = time.perf_counter()
            call(reggescissors, arg)
            intervals.append((start, time.perf_counter()))
    return sum(reference_seconds(intervals, ticker.samples)) / len(rows) * 1e6


def fresh(checkout: Path, *args: str) -> str:
    """stdout of this script run with `args` in a fresh process on the
    package in `checkout`'s src/."""
    return subprocess.run([sys.executable, __file__, *args], cwd=ROOT,
                          env=src_env(checkout / "src"), capture_output=True, text=True,
                          check=True).stdout


def alternate(before: Path | None, column: str, parse, *args: str) -> dict[str, list]:
    """The parsed stdout of SUITE_RUNS fresh runs of this script with `args`
    on this checkout, under `column`, and, when given, on the checkout
    `before`, under `before_<column>`, alternating process by process; the
    side that runs first alternates from round to round, `before` first in
    the first round."""
    checkouts = [(column, ROOT)] if before is None else [(f"before_{column}", before), (column, ROOT)]
    runs = {name: [] for name, _ in checkouts}
    for round_ in range(SUITE_RUNS):
        for name, checkout in checkouts[::-1] if round_ % 2 else checkouts:
            runs[name].append(parse(fresh(checkout, *args)))
    return runs


def stamp(before: Path | None) -> dict:
    """The src/ digest of the checkout `before`, when one was timed."""
    return {} if before is None else {"before_src_sha256": src_digest(before)}


def run_per_call(before: Path | None) -> dict:
    """per_call: the median and quartiles over SUITE_RUNS fresh processes of
    each layer's time_layer, against this checkout and, when given, against
    the checkout `before`."""
    layers = {name: quartiles(alternate(before, "us", float, "--time-layer", name))
              for name in PER_CALL}
    return {"inputs": PER_CALL_INPUTS, "workload": "formula", "seed": 1, "runs": SUITE_RUNS,
            "scaled": True, "unit": "us", "layers": layers, **stamp(before)}


def time_suite_criteria() -> dict:
    """Scaled seconds of the package import and of each criterion of
    SUITE_CONFIG, run in order in this process, with the package found on
    PYTHONPATH."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from machine import Ticker, reference_seconds

    steps = []
    with Ticker() as ticker:
        start = time.perf_counter()
        from reggescissors import suite

        steps.append(("import", start, time.perf_counter()))
        config = suite.SuiteConfig(**SUITE_CONFIG)
        for criterion in suite._CRITERIA:
            start = time.perf_counter()
            criterion(config)
            steps.append((criterion.__name__, start, time.perf_counter()))
    scaled = reference_seconds([(start, end) for _, start, end in steps], ticker.samples)
    return {name: seconds for (name, _, _), seconds in zip(steps, scaled)}


def run_suite_criteria(before: Path | None) -> dict:
    """suite_criteria: the median and quartiles over SUITE_RUNS fresh
    processes of time_suite_criteria, against this checkout and, when given,
    against the checkout `before`."""
    runs = alternate(before, "s", json.loads, "--time-suite")
    steps = {name: quartiles({column: [run[name] for run in values] for column, values in runs.items()})
             for name in runs["s"][0]}
    return {"command": "suite --count 100 --seed 7", "runs": SUITE_RUNS, "scaled": True,
            "unit": "s", "steps": steps, **stamp(before)}


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
