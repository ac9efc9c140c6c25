import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from reggescissors import TetAngles
from reggescissors.sampling import SampleBox, sample_finite
from reggescissors.tetra import TetraKind, classify

EQUIANGULAR_FINITE = TetAngles(1.2, 1.2, 1.2, 1.2, 1.2, 1.2)
GENERIC_FINITE = TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)


@pytest.fixture(scope="session")
def finite_batch():
    rng = np.random.default_rng(1234)
    batch, _ = sample_finite(rng, 20, SampleBox(), require_finite_images=("a", "b", "c"))
    return batch


@pytest.fixture(scope="session")
def equiangular():
    return EQUIANGULAR_FINITE


@pytest.fixture(scope="session")
def generic():
    return GENERIC_FINITE


@functools.cache
def _perfbench_inputs():
    """perfbench/inputs.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _stream_rows(stream: int, rmax: float, n: int) -> list[tuple[float, ...]]:
    """Angle tuples of the first n inputs of one benchmark stream, seeds 1-3."""
    inputs = _perfbench_inputs()
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
def slivers():
    """The inputs among the first 1200 of the `formula` streams, seeds 1-3,
    that classify calls Ideal.  The benchmark draws only Finite inputs (by
    strict cofactor signs), so each of these is a near-degenerate Finite
    tetrahedron whose smallest vertex cofactor falls below
    IDEAL_COFACTOR_TOL."""
    return [angles for angles in _stream_rows(1, 0.998, 1200)
            if classify(TetAngles(*angles)).kind is TetraKind.IDEAL]
