import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from reggescissors import TetAngles, tetra
from reggescissors.sampling import sample_finite
from reggescissors.tetra import TetraKind, classify

EQUIANGULAR_FINITE = TetAngles(1.2, 1.2, 1.2, 1.2, 1.2, 1.2)
GENERIC_FINITE = TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)


@pytest.fixture(scope="session")
def finite_batch():
    rng = np.random.default_rng(1234)
    batch, _ = sample_finite(rng, 20)
    return batch


@pytest.fixture(scope="session")
def equiangular():
    return EQUIANGULAR_FINITE


@pytest.fixture(scope="session")
def generic():
    return GENERIC_FINITE


@functools.cache
def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stream_rows(stream: int, rmax: float, n: int) -> list[tuple[float, ...]]:
    """Angle tuples of the first n inputs of one benchmark stream, seeds 1-3."""
    inputs = _perfbench_module("inputs")
    return [tuple(a.tolist()) for seed in (1, 2, 3)
            for a in inputs.TetStream(seed, stream, rmax).take(n)[0]]


@pytest.fixture(scope="session")
def stream_angles(finite_batch):
    """Angle tuples of the first 200 inputs of the benchmark's `formula` and
    `oracle` streams (perfbench/worker.py: streams 1 and 2, Klein radius
    0.998 and 0.9) for seeds 1-3, then those of finite_batch."""
    rows = _stream_rows(1, 0.998, 200) + _stream_rows(2, 0.9, 200)
    return rows + [t.as_tuple() for t in finite_batch]


@pytest.fixture(scope="session")
def first_ops():
    """The benchmark's `formula` and `oracle` ops (perfbench/ops.py), each
    as a call on the first input of its stream for seed 1."""
    ops = _perfbench_module("ops")
    formula, oracle = _stream_rows(1, 0.998, 1)[0], _stream_rows(2, 0.9, 1)[0]
    return {"formula": functools.partial(ops.formula, formula),
            "oracle": functools.partial(ops.oracle, oracle)}


@pytest.fixture(scope="session")
def slivers():
    """The inputs among the first 1200 of the `formula` streams, seeds 1-3,
    that classify calls Ideal.  The benchmark draws only Finite inputs (by
    strict cofactor signs), so each of these is a near-degenerate Finite
    tetrahedron whose smallest vertex cofactor falls below
    IDEAL_COFACTOR_TOL."""
    return [angles for angles in _stream_rows(1, 0.998, 1200)
            if classify(TetAngles(*angles)).kind is TetraKind.IDEAL]


@pytest.fixture
def flipped_gram(monkeypatch):
    """tetra.gram_matrix with the sign of row and column 3 flipped: the same
    eigenvalues, so a Finite class stays Finite, but vertex 3 lies on the
    other sheet, and each edge at vertex 3 gets the cosh ratio -cosh(l)."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    gram_matrix = tetra.gram_matrix
    monkeypatch.setattr(tetra, "gram_matrix", lambda t: flip @ gram_matrix(t) @ flip)
