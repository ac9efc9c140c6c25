"""The package's public surface holds only product code."""

import importlib
import pkgutil

import pytest

import reggescissors

MODULES = [importlib.import_module(f"reggescissors.{info.name}")
           for info in pkgutil.iter_modules(reggescissors.__path__) if info.name != "__main__"]

#: Names only the tests call; they live in tests/oracles.py.
TEST_ONLY = ("three_quarter_volume_numeric", "lorentz_boost", "apply_isometry",
             "full_dihedral_angles", "angles_from_gram", "tetra_symmetries")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), name


@pytest.mark.parametrize("module", [reggescissors, *MODULES], ids=lambda m: m.__name__)
def test_no_test_only_names(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []
