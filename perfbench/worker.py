"""Workload process of the benchmark (started by run.py, one per run).

It imports the package from the checkout's `src/`, does one untimed warm-up
op and prints its set-up time as a JSON line, then runs the timed loop
(`--trace 0`) or the traced run (`--trace 1`) and prints one JSON line of raw
results.  With `--setup-only` it exits after the set-up line, so run.py can
time set-up over several launches.

Times taken in this process and in run.py are `perf_counter` readings, which
on Linux come from CLOCK_MONOTONIC and so compare across processes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WARMUP_ANGLES = (1.15, 1.2, 1.1, 1.22, 1.18, 1.25)
# radius caps of the Klein-ball vertex draws; see README.md for the reasons
RMAX = {"formula": 0.998, "oracle": 0.9}
STREAM = {"formula": 1, "oracle": 2}
TRACED_OPS = {"formula": 100, "oracle": 100}
# Work per run: ops per second of `--seconds`.  The work is fixed, not timed,
# so a seed always checks the same inputs and `attempted` and `failed` repeat
# from run to run.  `oracle` gets the most ops: its p90 is the least steady.
OPS_PER_SECOND = {"formula": 8, "oracle": 12}
# The battery runs at its default seed whatever the run's seed: its cost
# depends on the seed (10-19 s in process over seeds 1, 7, 11-14), which would
# swamp any change in the code.  See README.md.
SUITE_SEED = 7
SUITE_COUNT = 100
# tetrahedra sampled per invocation: criteria 3, 4, 6 and 7 take `count`,
# criterion 5 takes `count // 4`
SUITE_TETS = 4 * SUITE_COUNT + SUITE_COUNT // 4
SUITE_ARGV = ["suite", "--count", str(SUITE_COUNT), "--seed", str(SUITE_SEED)]
SUITE_REFERENCE_S = 10  # about one invocation at the reference speed
OP_TIMEOUT_S = 170


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def work_per_run(workload: str, seconds: float) -> int:
    """Ops (or suite invocations) in a run of `seconds`."""
    if workload == "suite":
        return max(1, round(seconds / SUITE_REFERENCE_S))
    return max(1, round(OPS_PER_SECOND[workload] * seconds))


def _warm_up(workload: str) -> None:
    if workload == "suite":
        from reggescissors import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["volume", *map(str, WARMUP_ANGLES)])
        if code != 0:
            raise RuntimeError(f"warm-up `volume` exited with code {code}")
        return
    import ops

    reason = getattr(ops, workload)(WARMUP_ANGLES)
    if reason is not None:
        raise RuntimeError(f"warm-up op failed: {reason}")


def _failure(index: int, reason: str, angles=None) -> dict:
    """A failed op as listed in the run record; `known_defect` names the
    package defect that explains it, or is null."""
    import ops

    failure = {"op": index, "reason": reason, "known_defect": None}
    if angles is not None:
        failure.update(known_defect=ops.known_defect(angles, reason),
                       angles=[float(x) for x in angles])
    return failure


def timed_loop(workload: str, seed: int, n_ops: int) -> dict:
    """Closed loop over `n_ops` fresh inputs: the next op starts when the
    last ends.  Each op time is scaled to the reference speed by the
    machine speed sampled during the loop."""
    import ops
    from inputs import TetStream, digest

    op = getattr(ops, workload)
    stream = TetStream(seed, STREAM[workload], RMAX[workload])
    inputs, intervals, failures = [], [], []
    with machine.Ticker() as ticker:
        for angles, _ in islice(stream, n_ops):
            start = time.perf_counter()
            reason = op(angles)
            intervals.append((start, time.perf_counter()))
            inputs.append(angles)
            if reason is not None:
                failures.append(_failure(len(intervals) - 1, reason, angles))
    return {
        "op_s": machine.reference_seconds(intervals, ticker.samples),
        "op_wall_s": [end - start for start, end in intervals],
        "speed_quartiles_s": statistics.quantiles([e - s for s, e in ticker.samples], n=4),
        "failures": failures,
        "input_digest": digest(inputs),
        "rejected_draws": stream.rejected,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }


def _suite_passed(report: str | bytes) -> bool:
    return json.loads(report).get("passed") is True


def suite_loop(n_runs: int) -> dict:
    """`reggescissors suite` as a fresh subprocess, `n_runs` times, one at a
    time.  `suite_child.py` runs it as `-m` would and samples the machine
    speed inside it, which scales the invocation's time."""
    OUT.mkdir(exist_ok=True)
    samples_path = OUT / f"speed-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "suite_child.py"),
           str(samples_path), *SUITE_ARGV]
    op_s, op_wall_s, failures, digests = [], [], [], []
    for _ in range(n_runs):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
        end = time.perf_counter()
        samples = json.loads(samples_path.read_text())
        samples_path.unlink()
        op_s += machine.reference_seconds([(start, end)], samples)
        op_wall_s.append(end - start)
        digests.append(hashlib.sha256(proc.stdout).hexdigest())
        reason = None
        if proc.returncode != 0:
            reason = f"exit code {proc.returncode}"
        elif not _suite_passed(proc.stdout):
            reason = "report says passed: false"
        elif digests[-1] != digests[0]:
            reason = "report bytes differ from the first invocation"
        if reason is not None:
            failures.append(_failure(len(op_s) - 1, reason))
    return {
        "op_s": op_s,
        "op_wall_s": op_wall_s,
        "failures": failures,
        "report_sha256": sorted(set(digests)),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


def _layer_result(tracer, n_ops: int, untraced_s: float, traced_s: float) -> dict:
    from tracing import layer_stats

    spans = tracer.spans()
    return {
        "n_ops": n_ops,
        "layers": layer_stats(spans, n_ops),
        "lob_elems": tracer.lob_elems,
        "verify_failed": tracer.verify_failed,
        "sample_requested": tracer.sample_requested,
        "sample_drawn": tracer.sample_drawn,
        "overhead_ratio": traced_s / untraced_s - 1.0,
        "spans": len(spans),
    }


def traced_run(workload: str, seed: int) -> dict:
    """A fixed number of ops, each run untraced and then traced on the same
    input, so machine drift hits both sides alike; op 0 is traced once more
    to check that call counts repeat."""
    import ops
    from inputs import TetStream, digest
    from tracing import Tracer, op_calls

    op = getattr(ops, workload)
    n = TRACED_OPS[workload]
    inputs, _ = TetStream(seed, STREAM[workload], RMAX[workload]).take(n)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    plain, traced = [], []
    try:
        for i, angles in enumerate(inputs):
            start = time.perf_counter()
            plain.append(op(angles))
            untraced_s += time.perf_counter() - start
            tracer.install()
            tracer.op = i
            start = time.perf_counter()
            traced.append(op(angles))
            traced_s += time.perf_counter() - start
            tracer.uninstall()
        result = _layer_result(tracer, n, untraced_s, traced_s)
        tracer.install()
        tracer.op = n
        op(inputs[0])
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    failures = [_failure(i, r, inputs[i]) for i, r in enumerate(traced) if r is not None]
    if plain != traced:
        failures.append(_failure(-1, "traced results differ from untraced"))
    result.update(
        failures=failures,
        attempted=n,
        input_digest=digest(inputs),
        calls_repeat=op_calls(spans, 0) == op_calls(spans, n),
    )
    return result


def suite_traced() -> dict:
    """`cli.main` for the suite in this process, untraced and then traced;
    the two reports must be byte-identical and passing."""
    from reggescissors import cli
    from tracing import Tracer

    def invoke() -> tuple[int, str, float]:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(SUITE_ARGV)
        return code, out.getvalue(), time.perf_counter() - start

    code0, text0, untraced_s = invoke()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        code1, text1, traced_s = invoke()
    finally:
        tracer.uninstall()
    result = _layer_result(tracer, 1, untraced_s, traced_s)
    tracer.save(OUT / f"spans-suite-seed{SUITE_SEED}.npz")
    reason = None
    if code0 != 0 or code1 != 0:
        reason = f"exit codes {code0}, {code1}"
    elif text0 != text1:
        reason = "traced report bytes differ from untraced"
    elif not _suite_passed(text0):
        reason = "report says passed: false"
    result.update(
        failures=[] if reason is None else [_failure(0, reason)],
        attempted=1,
        report_sha256=[hashlib.sha256(text0.encode()).hexdigest()],
        calls_repeat=None,  # one traced op; the repeat is checked by test_perfbench.py
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("formula", "oracle", "suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launched", type=float, required=True,
                        help="perf_counter reading of run.py when it started this process")
    args = parser.parse_args()

    with machine.Ticker() as ticker:
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import reggescissors

        import_s = time.perf_counter() - start
        scipy_loaded = "scipy.integrate" in sys.modules
        if Path(reggescissors.__file__).resolve().parent != SRC / "reggescissors":
            raise SystemExit(f"imported reggescissors from {reggescissors.__file__}, not {SRC}")
        _warm_up(args.workload)
        ready = time.perf_counter()
    setup = {
        "setup_s": machine.reference_seconds([(args.launched, ready)], ticker.samples)[0],
        "setup_wall_s": ready - args.launched,
    }
    print(json.dumps(setup), flush=True)
    if args.setup_only:
        return 0

    n = work_per_run(args.workload, args.seconds)
    if args.trace:
        result = suite_traced() if args.workload == "suite" else traced_run(args.workload, args.seed)
    elif args.workload == "suite":
        result = suite_loop(n)
    else:
        result = timed_loop(args.workload, args.seed, n)

    import numpy
    import scipy

    result.update(
        import_s=import_s,
        scipy_loaded=scipy_loaded,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
