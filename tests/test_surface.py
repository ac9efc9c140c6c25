"""The package's public surface holds only product code."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import reggescissors

MODULES = [importlib.import_module(f"reggescissors.{info.name}")
           for info in pkgutil.iter_modules(reggescissors.__path__) if info.name != "__main__"]

#: Names only the tests call; they live in tests/oracles.py.
TEST_ONLY = ("three_quarter_volume_numeric", "lorentz_boost", "apply_isometry",
             "full_dihedral_angles", "angles_from_gram", "tetra_symmetries",
             "lobachevsky_quadrature_pointwise")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), name


@pytest.mark.parametrize("module", [reggescissors, *MODULES], ids=lambda m: m.__name__)
def test_no_test_only_names(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []


def test_only_tetra_touches_an_instance_dict():
    # tetra._memo owns the per-instance memo, so how a TetAngles keeps it is
    # one module's decision: no other module reads or writes a __dict__
    assert [m.__name__ for m in MODULES if "__dict__" in Path(m.__file__).read_text()] == ["reggescissors.tetra"]
