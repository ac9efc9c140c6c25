import importlib.util
from pathlib import Path

import numpy as np
import pytest

from reggescissors import TetAngles
from reggescissors.sampling import SampleBox, sample_finite

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


@pytest.fixture(scope="session")
def stream_angles(finite_batch):
    """Angle tuples of the first 200 inputs of the benchmark's `formula` and
    `oracle` streams (perfbench/worker.py: streams 1 and 2, Klein radius
    0.998 and 0.9) for seeds 1-3, then those of finite_batch."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rows = []
    for stream, rmax in ((1, 0.998), (2, 0.9)):
        for seed in (1, 2, 3):
            rows += [tuple(a.tolist()) for a in inputs.TetStream(seed, stream, rmax).take(200)[0]]
    return rows + [t.as_tuple() for t in finite_batch]
