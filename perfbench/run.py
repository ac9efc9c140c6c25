"""Benchmark of reggescissors: the `formula`, `oracle` and `suite` workloads.

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up is timed over several fresh worker
processes; the last one then runs the workload (see worker.py).  Times are
scaled to the reference machine speed of machine.py.  The run
record goes to stdout first; the last line is the result JSON, holding the
end-to-end metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from worker import SUITE_TETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5
RUN_TIMEOUT_S = 175
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "tets_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "wall_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
_CALLS_SELF = (
    "lobachevsky.lobachevsky", "lobachevsky.lobachevsky_quadrature", "tetra.classify",
    "octahedron.solve_holonomy", "octahedron.bar_solution", "octahedron.tet_volume",
    "octahedron.volume_remainder", "tetra.relabel", "scissors.regge_orbit",
    "scissors.verify_scissors", "scissors.decompose", "scissors.regge",
    "klein.volume_numeric", "klein.klein_vertices", "klein.schlafli_residual",
    "tetra.edge_lengths", "sampling.sample_finite",
)
_ERRORS = ("octahedron.solve_holonomy", "klein.volume_numeric", "klein.klein_vertices",
           "klein.schlafli_residual")
_SELF_ONLY = tuple(f"suite.criterion_{k}" for k in range(1, 10)) + ("cli.main",)
PER_LAYER = {
    **{f"{n}.{q}": u for n in _CALLS_SELF for q, u in (("calls", "count"), ("self_ms", "ms"))},
    "lobachevsky.lobachevsky.elems": "count",
    **{f"{n}.errors": "count" for n in _ERRORS},
    "scissors.verify_scissors.failed": "count",
    "sampling.sample_finite.acceptance": "ratio",
    **{f"{n}.self_ms": "ms" for n in _SELF_ONLY},
    "setup.import_s": "s",
    "setup.scipy_loaded": "flag",
    "run.failed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    return env


def _launch(args, env: dict[str, str], setup_only: bool, deadline: float) -> tuple[dict, dict | None]:
    """Start one worker; return its set-up line and, unless `setup_only`,
    its parsed result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("{"):
            raise RuntimeError("worker did not report its set-up")
        setup = json.loads(line)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, None if setup_only else json.loads(out.strip().splitlines()[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain export of the tree
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(workload: str, setup: list[float], op_s: list[float], raw: dict) -> dict[str, float]:
    n = len(op_s)
    if workload == "suite":
        wall_s = statistics.median(op_s)
        tets_per_s = SUITE_TETS / wall_s
    else:
        tets_per_s = n / sum(op_s)
        wall_s = 100 / tets_per_s
    p50_ms = 1000 * statistics.median(op_s)
    return {
        "setup_s": statistics.median(setup),
        "tets_per_s": tets_per_s,
        "op_ms_p50": p50_ms,
        # p90 needs 10 samples beyond it; with fewer ops (suite) report p50
        "op_ms_p90": 1000 * float(np.percentile(op_s, 90)) if n >= 100 else p50_ms,
        "wall_s": wall_s,
        "ok_ratio": (n - len(raw["failures"])) / n,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict) -> dict[str, float]:
    layers = raw["layers"]
    out = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if span in layers and quantity in ("calls", "self_ms", "errors"):
            out[name] = layers[span][quantity]
    n_ops = raw["n_ops"]
    out.update({
        "lobachevsky.lobachevsky.elems": raw["lob_elems"] / n_ops,
        "scissors.verify_scissors.failed": raw["verify_failed"],
        "sampling.sample_finite.acceptance": (
            raw["sample_requested"] / raw["sample_drawn"] if raw["sample_drawn"] else 0.0),
        "setup.import_s": raw["import_s"],
        "setup.scipy_loaded": float(raw["scipy_loaded"]),
        "run.failed_ratio": len(raw["failures"]) / raw["attempted"],
        "trace.overhead_ratio": raw["overhead_ratio"],
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("formula", "oracle", "suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "reggescissors" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'reggescissors'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = _env()
    # set-up is what later workers pay; only the untraced run reports it
    setup, setup_wall = [], []
    for launch in range(1 if args.trace else SETUP_LAUNCHES):
        line, raw = _launch(args, env, launch < SETUP_LAUNCHES - 1 and not args.trace, deadline)
        setup.append(line["setup_s"])
        setup_wall.append(line["setup_wall_s"])

    failures = raw["failures"]
    attempted = raw.get("attempted", len(raw.get("op_s", ())))
    correct = (
        all(f["known_defect"] for f in failures)
        and raw.get("calls_repeat") is not False
    )
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": attempted, "commit": _git_commit(),
        "src_sha256": _src_digest(), **raw["versions"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {name: env[name] for name in BLAS_ENV},
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "speed_quartiles_s": raw.get("speed_quartiles_s"),
        **{k: raw[k] for k in ("input_digest", "report_sha256", "rejected_draws",
                               "calls_repeat", "spans") if k in raw},
        "failures": failures,
    }
    if args.trace:
        values, units = per_layer(raw), PER_LAYER
    else:
        values, units = end_to_end(args.workload, setup, raw["op_s"], raw), END_TO_END
        record["unscaled_metrics"] = end_to_end(args.workload, setup_wall, raw["op_wall_s"], raw)
    print(json.dumps({"record": record}))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
