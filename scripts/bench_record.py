#!/usr/bin/env python3
"""Record one entry of the benchmark trajectory: BENCH_<pr>.json.

    python3 scripts/bench_record.py 6 [--before CHECKOUT]

Runs `perfbench/run.py --seconds 30 --trace 0` on the `formula`, `oracle`
and `suite` workloads for seeds 1-5, one run at a time, then 10 CLI cold
starts (`python -m reggescissors volume` on the README angles, each a fresh
subprocess; with `--before`, as many on the other checkout, alternating as
the timing processes below do), the per-call timings, the suite criteria,
the work counts and the tier-1 test command once, all from the root of the
checkout (about 2 minutes), and sizes the modules under `src/`.  Writes
BENCH_<pr>.json there with, per workload, the median, q1 and q3 of every
end-to-end metric over the seeds and each run's `attempted`, `failed` and
`correct`; the median, q1 and q3 of the cold-start wall times (with `--before`, the other checkout's beside
them as `before_median`, `before_q1` and `before_q3`, and `wins`); the
per-call means; the suite criteria seconds; the work counts; the lines
and bytes of each module under `src/`; and the tier-1 wall time, exit code
and summary line.
Times of the workloads are perfbench's, scaled to its reference machine
speed.  The per-call and suite criteria times are scaled the same way: each
timing process samples `perfbench/machine.Ticker` and records
`reference_seconds` of its timed intervals.  The cold-start and tier-1 wall
times are not scaled.

`per_call` gives, for each layer in PER_CALL, the mean scaled microseconds
of one call over the first 200 Finite inputs of its stream for seed 1
(PER_CALL_STREAM: the `oracle` workload's for the three Klein layers, the
`formula` workload's for the rest), each on a fresh TetAngles, so no
per-instance memo is warm; the median of SUITE_RUNS processes as `us`, with
its quartiles as `us_q1` and `us_q3`.  Each layer makes one untimed
warm-up call, on the next Finite input, then passes until its timed calls
span MIN_LAYER_PERIODS ticker periods (200 ms): a layer as short as
`classify` takes about 4 ms a pass, so one pass would have one or two
machine speed samples set its scale.
A layer in PER_CALL_ARG takes in place of the TetAngles the argument it
makes from it (`volume_numeric`: the Klein realization), made before the
call's timer starts.

`suite_criteria` gives the scaled in-process seconds of each criterion of
`suite --count 100 --seed 7`, in the order the suite runs them, at the
start of a fresh process once the suite module is imported, so a criterion
that first needs a module pays for importing it; the median of SUITE_RUNS
processes as `s`, with its quartiles as `s_q1` and `s_q3`.  The suite's
import is timed within the `suite` workload's `wall_s`, in a fresh
subprocess per op.

`work` gives exact counts, which repeat from run to run where the times
spread: the calls of each WORK_CALLS function and the triangles the Klein
face rule evaluates (`rule_triangles`), per op over the first
WORK_OPS inputs of the `formula` and `oracle` streams for seed 1
(perfbench's own ops), and in total for one suite run of SUITE_CONFIG.  A
profile hook counts each call by its function's code object, whatever name
the caller reaches it by.  They come from one fresh process, and with
`--before` from one more on the other checkout, whose counts each row
records as `before_<count>`.

`src` gives the lines (newlines, as `wc -l` counts them) and bytes of each
module under `src/`, and their total; with `--before`, the other
checkout's beside them as `before_lines` and `before_bytes`, so the
trajectory shows what each change added to the package or took from it.

The per_call and suite_criteria sections come from the same SUITE_RUNS
fresh processes, each of which times the suite criteria and then every
layer.  With `--before`, as many processes run on the `src/` of another
checkout (the parent of the change), alternating process by process, with
the side that runs first swapped every round; each row then also records `before_us` or `before_s` with its
quartiles, and `wins` counts the rounds in which this checkout took less
time.

The cold-start, per_call, suite_criteria and work processes keep their
bytecode under a prefix of their checkout's own, in one temporary directory
made per recording (`src_env`), so neither side reads a `__pycache__` left
in its tree.  The work counts run first and write each side's bytecode, and
one untimed cold start per side completes it before the timed runs.  The
tier-1 run reads bytecode as a plain run of its command in this checkout
does.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
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
#: Suite criterion 1's grid; lobachevsky_array shifts it by t.A.
LOB_GRID = np.linspace(-2 * np.pi, 2 * np.pi, 1000)
#: Layers timed by per_call: each gets the package `m` and a fresh TetAngles `t`.
#: `m.lobachevsky` is the function (the package re-exports it), not the module.
PER_CALL = {
    "lobachevsky_scalar": lambda m, t: [m.lobachevsky(x) for x in t.as_tuple()],
    "lobachevsky_array": lambda m, t: m.lobachevsky(LOB_GRID + t.A),
    "classify": lambda m, t: m.tetra.classify(t),
    "solve_holonomy": lambda m, t: m.octahedron.solve_holonomy(t),
    "tet_volume": lambda m, t: m.octahedron.tet_volume(t),
    "decompose": lambda m, t: m.scissors.decompose(t),
    "verify_scissors_a": lambda m, t: m.scissors.verify_scissors(t, "a"),
    "verify_scissors_b": lambda m, t: m.scissors.verify_scissors(t, "b"),
    "verify_scissors_c": lambda m, t: m.scissors.verify_scissors(t, "c"),
    "regge_orbit": lambda m, t: m.scissors.regge_orbit(t),
    "schlafli_residual": lambda m, t: m.klein.schlafli_residual(t, h=1e-5),
    "klein_vertices": lambda m, t: m.klein.klein_vertices(t),
    "volume_numeric": lambda m, kt: m.klein.volume_numeric(kt, 1e-6),
    "lobachevsky_quadrature_scalar": lambda m, t: m.lobachevsky_quadrature(t.A, 1e-12),
}
#: The untimed argument of a PER_CALL layer that does not take the TetAngles itself.
PER_CALL_ARG = {"volume_numeric": lambda m, t: m.klein.klein_vertices(t)}
#: The perfbench stream of each PER_CALL layer's inputs: the one its workload runs.
PER_CALL_STREAM = {name: "oracle" if name in ("schlafli_residual", "klein_vertices", "volume_numeric")
                   else "formula" for name in PER_CALL}
#: The SuiteConfig that `suite --count 100 --seed 7` runs.
SUITE_CONFIG = {"seed": 7, "count": 100, "oracle_count": 25}
#: Fresh processes per side behind each median of suite_criteria and per_call.
SUITE_RUNS = 5
#: Ticker periods (machine.PERIOD_S) that the timed calls of each per_call layer span at least.
MIN_LAYER_PERIODS = 10
#: Ops per workload that `work` counts over: the first inputs of its stream for seed 1.
WORK_OPS = {"formula": 240, "oracle": 360}
#: Each `work` count: the calls of one function of the package, as (module, name).
#: "decompose" counts the decompositions computed, since a TetAngles keeps its decomposition.
WORK_CALLS = {"_classify": ("tetra", "_classify"), "_solve_holonomy": ("octahedron", "_solve_holonomy"),
              "decompose": ("scissors", "_decompose"), "series_calls": ("lobachevsky", "_lobachevsky_float"),
              "_relabels_onto": ("scissors", "_relabels_onto"), "_rule_batch": ("klein", "_rule_batch")}


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


@functools.cache
def pycache_root() -> Path:
    """The temporary directory of this recording, made on the first call and removed at exit."""
    path = Path(tempfile.mkdtemp(prefix="bench_record-"))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def src_env(src: Path = ROOT / "src", own_bytecode: bool = True) -> dict:
    """The environment of a process on the package in `src`, first on
    PYTHONPATH.  With `own_bytecode`, Python reads and writes bytecode only
    under PYTHONPYCACHEPREFIX, a directory of pycache_root() for `src`
    alone, and never in a tree's `__pycache__`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if own_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(pycache_root() / hashlib.sha256(str(src.resolve()).encode()).hexdigest()[:16])
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


def time_in_process() -> dict:
    """In this process, with the package found on PYTHONPATH: under "s", the
    scaled seconds of each criterion of SUITE_CONFIG, run in order once the
    suite module is imported; then under "us", for each PER_CALL layer, the
    mean scaled microseconds of one call over passes on the first
    PER_CALL_INPUTS Finite inputs of its PER_CALL_STREAM for seed 1, after
    an untimed warm-up on the next Finite input.  Each pass times each call
    on a fresh TetAngles; passes repeat until the timed calls span
    MIN_LAYER_PERIODS ticker periods."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from machine import PERIOD_S, Ticker, reference_seconds

    from reggescissors import suite

    intervals = {}  # name -> its (start, end): one per suite criterion, one per layer call
    with Ticker() as ticker:
        config = suite.SuiteConfig(**SUITE_CONFIG)
        for criterion in suite._CRITERIA:
            start = time.perf_counter()
            criterion(config)
            intervals[criterion.__name__] = [(start, time.perf_counter())]
        steps = list(intervals)

        import reggescissors as m  # loads every module PER_CALL reaches
        from inputs import TetStream
        from worker import RMAX, STREAM

        TetAngles, finite = m.tetra.TetAngles, m.tetra.TetraKind.FINITE
        rows = {}
        for stream in dict.fromkeys(PER_CALL_STREAM.values()):
            found = (a for a, _ in TetStream(1, STREAM[stream], RMAX[stream])
                     if m.tetra.classify(TetAngles.of(a)).kind is finite)
            rows[stream] = [next(found) for _ in range(PER_CALL_INPUTS + 1)]
        for name, call in PER_CALL.items():
            *timed, warm_up = rows[PER_CALL_STREAM[name]]
            call(m, layer_arg(name, m, TetAngles.of(warm_up)))
            pairs = intervals[name] = []
            while not pairs or sum(end - start for start, end in pairs) < MIN_LAYER_PERIODS * PERIOD_S:
                for angles in timed:
                    arg = layer_arg(name, m, TetAngles.of(angles))
                    start = time.perf_counter()
                    call(m, arg)
                    pairs.append((start, time.perf_counter()))
    scaled = {name: sum(reference_seconds(pairs, ticker.samples)) for name, pairs in intervals.items()}
    return {"s": {name: scaled[name] for name in steps},
            "us": {name: scaled[name] / len(intervals[name]) * 1e6 for name in PER_CALL}}


def count_work() -> dict:
    """In this process, with the package found on PYTHONPATH: per op over the
    first WORK_OPS inputs of each workload's stream for seed 1, and in total
    for one suite run of SUITE_CONFIG, the calls of each WORK_CALLS
    function and the triangles given to `_rule_batch`, read by a profile
    hook that counts a call by its code object and then puts back the hook
    set before it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ops
    from inputs import TetStream
    from reggescissors import suite
    from worker import RMAX, STREAM

    names = {getattr(sys.modules[f"reggescissors.{module}"], attr).__code__: name
             for name, (module, attr) in WORK_CALLS.items()}
    counts = dict.fromkeys([*WORK_CALLS, "rule_triangles"], 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            name = names[frame.f_code]
            counts[name] += 1
            if name == "_rule_batch":
                counts["rule_triangles"] += len(frame.f_locals["tris"])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        out = {}
        for workload, n in WORK_OPS.items():
            op = getattr(ops, workload)
            rows = TetStream(1, STREAM[workload], RMAX[workload]).take(n)[0]
            counts.update(dict.fromkeys(counts, 0))
            failed = sum(op(a) is not None for a in rows)
            out[workload] = {"ops": n, "failed": failed, **{k: v / n for k, v in counts.items()}}
        counts.update(dict.fromkeys(counts, 0))
        suite.run_suite(suite.SuiteConfig(**SUITE_CONFIG))
        out["suite"] = dict(counts)
    finally:
        sys.setprofile(previous)
    return out


def run_work(before: Path | None) -> dict:
    """The `work` section: count_work in a fresh process on this checkout
    and, when given, in one on the checkout `before`, its counts beside
    this checkout's as `before_<count>`."""
    rows = json.loads(fresh(ROOT, "--work"))
    stamp = {}
    if before is not None:
        put_beside(rows, json.loads(fresh(before, "--work")))
        stamp = {"before_src_sha256": src_digest(before)}
    return {"ops": WORK_OPS, "seed": 1, "suite": "suite --count 100 --seed 7, in total",
            "counts": rows, **stamp}


def put_beside(rows: dict[str, dict], parent: dict[str, dict]) -> None:
    """Add each count of each row of parent to the row of the same name in
    rows, as `before_<count>`; a row rows lacks is added."""
    for name, row in parent.items():
        rows.setdefault(name, {}).update({f"before_{key}": value for key, value in row.items()})


def src_sizes(checkout: Path) -> dict[str, dict[str, int]]:
    """The lines (newlines) and bytes of each module under the checkout's
    src/, by its path there, and their total."""
    rows = {}
    for path in sorted((checkout / "src").rglob("*.py")):
        data = path.read_bytes()
        rows[path.relative_to(checkout / "src").as_posix()] = {"lines": data.count(b"\n"), "bytes": len(data)}
    rows["total"] = {key: sum(row[key] for row in rows.values()) for key in ("lines", "bytes")}
    return rows


def run_src(before: Path | None) -> dict:
    """The `src` section: src_sizes of this checkout and, when given, of the
    checkout `before`, beside them as `before_lines` and `before_bytes`."""
    rows = src_sizes(ROOT)
    stamp = {}
    if before is not None:
        put_beside(rows, src_sizes(before))
        stamp = {"before_src_sha256": src_digest(before)}
    return {"modules": rows, **stamp}


def fresh(checkout: Path, *args: str) -> str:
    """stdout of this script run with `args` in a fresh process on the
    package in `checkout`'s src/."""
    return subprocess.run([sys.executable, __file__, *args], cwd=ROOT,
                          env=src_env(checkout / "src"), capture_output=True, text=True,
                          check=True).stdout


def alternate(before: Path | None, run=lambda checkout: json.loads(fresh(checkout, "--time")),
              rounds: int = SUITE_RUNS) -> dict[str, list]:
    """run(checkout) in `rounds` rounds on this checkout, under "", and, when
    given, on the checkout `before`, under "before_", alternating; the side
    that runs first alternates from round to round, `before` first in the
    first round.  By default, the JSON stdout of a fresh `--time` run of
    this script."""
    checkouts = [("", ROOT)] if before is None else [("before_", before), ("", ROOT)]
    runs = {side: [] for side, _ in checkouts}
    for round_ in range(rounds):
        for side, checkout in checkouts[::-1] if round_ % 2 else checkouts:
            runs[side].append(run(checkout))
    return runs


def run_in_process(before: Path | None) -> tuple[dict, dict]:
    """per_call and suite_criteria: the median and quartiles over SUITE_RUNS
    fresh processes of time_in_process, against this checkout and, when
    given, against the checkout `before`."""
    runs = alternate(before)

    def rows(unit: str) -> dict:
        return {name: quartiles({side + unit: [run[unit][name] for run in values]
                                 for side, values in runs.items()})
                for name in runs[""][0][unit]}

    stamp = {} if before is None else {"before_src_sha256": src_digest(before)}
    per_call = {"inputs": PER_CALL_INPUTS, "workload": PER_CALL_STREAM, "seed": 1, "runs": SUITE_RUNS,
                "scaled": True, "unit": "us", "layers": rows("us"), **stamp}
    suite_criteria = {"command": "suite --count 100 --seed 7", "runs": SUITE_RUNS, "scaled": True,
                      "unit": "s", "steps": rows("s"), **stamp}
    return per_call, suite_criteria


def cold_start(checkout: Path) -> float:
    """Unscaled wall time of one fresh COLD_START subprocess on the package in `checkout`'s src/."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *COLD_START], cwd=checkout, env=src_env(checkout / "src"),
                   capture_output=True, check=True)
    return time.perf_counter() - start


def run_cold_start(before: Path | None) -> dict:
    """The median and quartiles of COLD_START_RUNS cold starts on this
    checkout and, when given, as many on the checkout `before`, alternating
    as `alternate` does, under `before_median`, `before_q1` and
    `before_q3`, with `wins`, the rounds in which this checkout took less
    time."""
    for checkout in filter(None, (before, ROOT)):
        cold_start(checkout)  # untimed: completes the bytecode of its side
    runs = alternate(before, cold_start, COLD_START_RUNS)
    row = {"command": "python " + " ".join(COLD_START), "runs": COLD_START_RUNS, "scaled": False, "unit": "s"}
    for side, times in runs.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        row |= {f"{side}median": float(median), f"{side}q1": float(q1), f"{side}q3": float(q3)}
    if before is not None:
        row |= {"wins": sum(a < b for a, b in zip(runs[""], runs["before_"])),
                "before_src_sha256": src_digest(before)}
    return row


def run_tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=src_env(own_bytecode=False),
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall_s, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, nargs="?", help="number of the change the entry records")
    parser.add_argument("--before", type=Path, metavar="CHECKOUT",
                        help="also time the cold starts, per_call and suite_criteria, and count "
                             "the work, against this checkout's src/ (the parent)")
    parser.add_argument("--time", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.time:
        print(json.dumps(time_in_process()))
        return 0
    if args.work:
        print(json.dumps(count_work()))
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
    entry["work"] = run_work(args.before)  # first: it writes the bytecode the timed runs read
    entry["cli_cold_start"] = run_cold_start(args.before)
    entry["per_call"], entry["suite_criteria"] = run_in_process(args.before)
    entry["tier1"] = {"command": "python " + " ".join(TIER1), **run_tier1()}
    entry["src"] = run_src(args.before)

    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
