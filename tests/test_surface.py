"""The package's public surface holds only product code."""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import reggescissors
from reggescissors import tetra
from reggescissors.octahedron import HolonomyRoots, OctAngles, octahedron_angles, solve_holonomy
from reggescissors.scissors import Decomposition, OrbitResult, ScissorsReport, decompose, regge_orbit, verify_scissors
from reggescissors.tetra import TetAngles, TetraClass, classify

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


def test_no_module_names_an_instance_dict():
    # a record keeps its memo in one attribute that tetra._memo owns, so no
    # module reads or writes an instance's __dict__
    assert [m.__name__ for m in MODULES if "__dict__" in Path(m.__file__).read_text()] == []


def test_records_are_plain_frozen_dataclasses():
    t = TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)
    records = (t, classify(t), solve_holonomy(t), octahedron_angles(t), decompose(t), verify_scissors(t, "b"),
               regge_orbit(t))
    assert [type(r) for r in records] == [TetAngles, TetraClass, HolonomyRoots, OctAngles, Decomposition,
                                          ScissorsReport, OrbitResult]
    assert not hasattr(tetra, "_record")
    for record in records:
        cls, names = type(record), {f.name for f in dataclasses.fields(record)}
        # the dataclass __init__: the fields, in order, with their defaults
        assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(record)], cls
        for name in (*names, "_kept"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        # a record holds its fields; t and its decomposition, memoized by the
        # calls above (verify_scissors reads the canonical angles), hold one
        # memo beside them, which a replaced copy does not take
        if cls in (TetAngles, Decomposition):
            assert record._kept and set(vars(record)) == names | {"_kept"}, cls
            fresh = dataclasses.replace(record)
            assert fresh == record and fresh._kept is None and set(vars(fresh)) == names, cls
        else:
            assert set(vars(record)) == names, cls
