"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from tracing import SPAN_NAMES, Tracer, op_calls  # noqa: E402

# sha256 of the first 50 tetrahedra (angles rounded to 1e-12) of each stream
FORMULA_SEED0 = "d51b93900f7aa426d743eee7767b858be8f7773b8af6d715d042a4d597799837"
ORACLE_SEED0 = "a7140d1fc3824156721683c83bffa56659f2f16bd606fadb6aa6e0b527114efd"


def test_fixed_seed_reproduces_input_digest():
    formula, _ = inputs.TetStream(0, 1, 0.998).take(50)
    oracle, _ = inputs.TetStream(0, 2, 0.9).take(50)
    assert inputs.digest(formula) == FORMULA_SEED0
    assert inputs.digest(oracle) == ORACLE_SEED0
    other, _ = inputs.TetStream(1, 1, 0.998).take(50)
    assert inputs.digest(other) != FORMULA_SEED0


@pytest.mark.parametrize("rmax", [0.998, 0.9])
def test_generated_tetrahedra_are_finite_and_inside_the_cap(rmax):
    stream = inputs.TetStream(3, 1, rmax)
    angles, verts = stream.take(1000)
    G = inputs.gram(angles)
    eig = np.linalg.eigvalsh(G)
    assert np.all(eig[:, 0] < 0) and np.all(eig[:, 1:] > 0)  # signature (3, 1)
    adj = np.linalg.det(G)[:, None, None] * np.linalg.inv(G)
    assert np.all(np.diagonal(adj, axis1=1, axis2=2) > 0)  # positive vertex cofactors
    assert np.all(np.linalg.norm(verts, axis=2) <= rmax)
    assert stream.rejected == 0


def test_finite_check_rejects_non_finite_angles():
    regular_ideal = np.full((1, 6), np.pi / 3)  # cofactors vanish; slightly less is hyperideal
    hyperideal = np.full((1, 6), 0.9)
    out_of_range = np.array([[1.2, 1.2, 1.2, 1.2, 1.2, 3.5]])
    finite = np.full((1, 6), 1.2)
    assert not inputs.finite_mask(np.vstack([hyperideal, out_of_range])).any()
    assert not inputs.finite_mask(regular_ideal - 1e-3).any()
    assert inputs.finite_mask(finite).all()


def test_angles_match_the_package_realization():
    from reggescissors.klein import KleinTetra, dihedral_angles

    angles, verts = inputs.TetStream(5, 2, 0.9).take(20)
    for a, v in zip(angles, verts):
        assert np.allclose(dihedral_angles(KleinTetra(v)).as_tuple(), a, atol=1e-10)


def test_traced_call_counts_repeat_and_uninstall_restores():
    import ops
    from reggescissors import octahedron, scissors, tetra

    originals = (tetra.classify, scissors.classify, octahedron.lobachevsky)
    angles, _ = inputs.TetStream(0, 1, 0.998).take(3)
    tracer = Tracer()
    tracer.install()
    try:
        assert scissors.classify is not originals[1]
        for rep in range(2):
            for i, a in enumerate(angles):
                tracer.op = 3 * rep + i
                ops.formula(a)
    finally:
        tracer.uninstall()
    assert (tetra.classify, scissors.classify, octahedron.lobachevsky) == originals
    spans = tracer.spans()
    for i in range(3):
        assert op_calls(spans, i) == op_calls(spans, 3 + i)
    assert op_calls(spans, 0)[SPAN_NAMES.index("octahedron.solve_holonomy")] > 0


def test_suite_trace_sees_criteria_through_run_suite():
    from reggescissors import suite

    config = suite.SuiteConfig(seed=3, count=4, oracle_count=1, grid_points=40,
                               include_determinism=False)
    tracer = Tracer()
    tracer.install()
    try:
        for rep in range(2):
            tracer.op = rep
            suite.run_suite(config)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert op_calls(spans, 0) == op_calls(spans, 1)
    calls = op_calls(spans, 0)
    assert calls[SPAN_NAMES.index("suite.criterion_5")] == 1
    assert calls[SPAN_NAMES.index("suite.criterion_9")] == 0
    assert calls[SPAN_NAMES.index("sampling.sample_finite")] == 5


def test_reference_seconds_follow_smoothed_speed_samples():
    import machine

    ref = machine.REFERENCE_S

    def samples(durations):  # one kernel run at the start of every second
        return [(float(i), i + d) for i, d in enumerate(durations)]

    # twice as slow as the reference: a gap between kernel runs counts half,
    # and a kernel run inside an interval counts zero
    slow = samples([2 * ref] * 13)
    gap, across = machine.reference_seconds([(3.5, 3.9), (3.5, 4.5)], slow)
    assert gap == pytest.approx(0.2)
    assert across == pytest.approx((1.0 - 2 * ref) / 2)
    # a change of speed is followed at once: the gap across it takes the
    # mean kernel time of its two ends; time outside the samples takes the
    # speed of the nearest one
    change = samples([ref] * 6 + [3 * ref] * 6)
    intervals = [(1.2, 1.8), (5.2, 5.8), (10.2, 10.8), (-1.0, -0.5), (20.0, 21.0)]
    assert machine.reference_seconds(intervals, change) == pytest.approx([0.6, 0.3, 0.2, 0.5, 1 / 3])


def test_ticker_samples_and_restores_the_signal_handler():
    import signal
    import time

    import machine

    before = signal.getsignal(signal.SIGALRM)
    with machine.Ticker() as ticker:
        deadline = time.perf_counter() + 5 * machine.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(ticker.samples) >= 3
    assert all(start < end for start, end in ticker.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_work_per_run_is_fixed_by_seconds():
    import worker

    assert worker.work_per_run("formula", 30) == 8 * 30
    assert worker.work_per_run("oracle", 30) == 12 * 30
    assert worker.work_per_run("suite", 30) == 3
    assert worker.work_per_run("suite", 1) == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formula", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
