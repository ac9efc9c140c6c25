import importlib
import inspect
import math
import pkgutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reggescissors
from reggescissors.exceptions import QuadratureError
from reggescissors.lobachevsky import (
    _SERIES_BANDS,
    _SERIES_COEF_DESC,
    LOBACHEVSKY_MAX_ARG,
    _lobachevsky_float,
    lobachevsky,
    lobachevsky_quadrature,
)
from reggescissors.scissors import regge_orbit, verify_scissors
from reggescissors.tetra import TetAngles

from conftest import _perfbench_module
from oracles import lobachevsky_quadrature_pointwise

PI = math.pi

# frozen against the quadrature oracle (and an independent multiprecision check)
LOB_PI_6 = 0.5074708032048268
LOB_PI_4 = 0.4579827970886096  # half of Catalan's constant
LOB_PI_3 = 0.3383138688032180


def test_zero_and_half_period_vanish():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(PI / 2)) < 1e-15
    assert abs(lobachevsky(PI)) < 1e-15
    assert abs(lobachevsky(-3 * PI)) < 1e-15


@pytest.mark.parametrize(
    "theta,expected",
    [(PI / 6, LOB_PI_6), (PI / 4, LOB_PI_4), (PI / 3, LOB_PI_3)],
)
def test_frozen_values(theta, expected):
    assert lobachevsky(theta) == pytest.approx(expected, abs=1e-13)
    assert lobachevsky_quadrature(theta, 1e-12) == pytest.approx(expected, abs=1e-11)


def test_quadrature_examples():
    assert lobachevsky_quadrature(0.0, 1e-10) == 0.0
    assert abs(lobachevsky_quadrature(PI, 1e-10)) < 1e-10
    assert lobachevsky_quadrature(PI / 4, 1e-10) == pytest.approx(LOB_PI_4, abs=1e-10)


def test_series_quadrature_agree_on_grid():
    grid = np.linspace(-2 * PI, 2 * PI, 101)
    for theta in grid:
        assert lobachevsky(theta) == pytest.approx(
            lobachevsky_quadrature(theta, 1e-12), abs=1e-11
        )


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_odd_and_periodic(theta):
    assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-12)
    assert lobachevsky(theta + PI) == pytest.approx(lobachevsky(theta), abs=1e-12)


def test_duplication_identity():
    grid = np.linspace(-2 * PI, 2 * PI, 400)
    lhs = lobachevsky(2 * grid)
    rhs = 2 * lobachevsky(grid) + 2 * lobachevsky(grid + PI / 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_global_maximum_at_pi_over_six():
    grid = np.linspace(-2 * PI, 2 * PI, 4001)
    vals = lobachevsky(grid)
    assert np.all(np.abs(vals) <= lobachevsky(LOBACHEVSKY_MAX_ARG) + 1e-15)
    # pi-periodicity puts equivalent maxima at pi/6 + k*pi; compare mod pi
    argmax = grid[np.argmax(vals)] % PI
    assert abs(argmax - LOBACHEVSKY_MAX_ARG) < grid[1] - grid[0]


def test_vectorized_matches_scalar():
    grid = np.linspace(-5, 5, 57)
    vec = lobachevsky(grid)
    assert vec.shape == grid.shape
    for x, v in zip(grid, vec):
        assert lobachevsky(float(x)) == v


def test_domain_errors():
    with pytest.raises(ValueError):
        lobachevsky(float("nan"))
    with pytest.raises(ValueError):
        lobachevsky(float("inf"))
    with pytest.raises(ValueError):
        lobachevsky_quadrature(1.0, tol=0.0)
    with pytest.raises(ValueError):
        lobachevsky_quadrature(float("nan"))


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0])
def test_quadrature_rejects_tol_outside_positive_finite(tol):
    # with tol = inf the coarsest two levels of the rule would already pass its stop rule
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        lobachevsky_quadrature(1.0, tol=tol)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0])
def test_array_quadrature_rejects_tol_outside_positive_finite(tol):
    with pytest.raises(ValueError, match="^lobachevsky_quadrature: tol must be positive"):
        lobachevsky_quadrature(np.array([1.0, 2.0]), tol=tol)


def test_series_table_is_scipy_zeta_bit_for_bit():
    from scipy import special

    m = np.arange(1, 49)
    expected = special.zeta(2 * m) / (m * (2 * m + 1))
    assert [c.hex() for c in _SERIES_COEF_DESC] == [e.hex() for e in expected[::-1].tolist()]


def test_series_bands_meet_tail_bound():
    # each band keeps the last n coefficients, n at least the least count whose
    # dropped tail x sum_{m>n} c_m q^m is below 2**-20 of half an ulp of lob(x)
    # at the band's upper edge q; lob(pi/2) = 0, so the top band keeps all 48;
    # the bands run from the bottom
    with mpmath.workdps(30):
        terms = [mpmath.zeta(2 * m) / (m * (2 * m + 1)) for m in range(1, 201)]

        def least_count(q):
            x = PI * math.sqrt(q)
            limit = 2.0 ** -20 * math.ulp(lobachevsky(x)) / 2
            return next(n for n in range(49)
                        if x * mpmath.fsum(c * mpmath.mpf(q) ** m
                                           for m, c in enumerate(terms[n:], n + 1)) <= limit)

        least = [least_count(edge) for edge, _ in _SERIES_BANDS[:-1]]
    counts = [4 * len(quads) for _, quads in _SERIES_BANDS]
    assert least == [7, 12, 19, 28, 33]
    assert counts[-1] == 48 and all(n >= m for n, m in zip(counts[:-1], least, strict=True))
    for _, quads in _SERIES_BANDS:
        assert sum(quads, ()) == _SERIES_COEF_DESC[-4 * len(quads):]


# Runs in a fresh interpreter: no command, the Lobachevsky quadrature and the
# suite that runs it included, may load scipy.
_SCIPY_PROBE = """
import contextlib, io, sys
from reggescissors import cli
from reggescissors.lobachevsky import lobachevsky_quadrature
angles = ["1.15", "1.2", "1.1", "1.22", "1.18", "1.25"]
for command in (["volume"], ["decompose"], ["verify", "--which", "b"], ["orbit"], ["oracle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command[0], *angles, *command[1:]])
    print(command[0], code, "scipy" in sys.modules)
value = lobachevsky_quadrature(1.0)
print("quadrature", repr(value), "scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["suite", "--count", "4"])
print("suite", code, "scipy" in sys.modules)
"""


def test_runtime_never_loads_scipy():
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *commands, quadrature, suite = [line.split() for line in proc.stdout.splitlines()]
    assert commands == [[name, "0", "False"]
                        for name in ("volume", "decompose", "verify", "orbit", "oracle")]
    assert quadrature[0] == "quadrature" and quadrature[2] == "False"
    assert float(quadrature[1]) == pytest.approx(0.3635730254316396, abs=1e-15)
    assert suite == ["suite", "0", "False"]


# Runs in a fresh interpreter: the suite draws from sampling.SeededUniform and
# klein holds its Gauss-Legendre rule as literals, so neither numpy.random (nor
# the OpenSSL of hashlib, which numpy.random's seeding imports) nor
# numpy.polynomial is loaded.
_SUITE_IMPORTS_PROBE = """
import contextlib, io, sys
from reggescissors import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["suite", "--count", "4"])
print(code, *(name in sys.modules for name in ("numpy", "numpy.random", "_hashlib", "numpy.polynomial")))
"""


def test_suite_never_loads_numpy_random_or_polynomial():
    proc = subprocess.run([sys.executable, "-c", _SUITE_IMPORTS_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "False", "False", "False"]


def test_quadrature_reports_achieved_error():
    with pytest.raises(QuadratureError) as exc:
        lobachevsky_quadrature(1.0, tol=1e-18)
    assert exc.value.achieved > 0


def test_array_quadrature_reports_the_worst_unconverged_error():
    # 1e-300 and 0.0 converge at tol 1e-18; the other three do not
    points = [1.0, 1e-300, -4.0, 0.0, 2.5]
    achieved = []
    for x in points:
        try:
            lobachevsky_quadrature_pointwise(x, 1e-18)
        except QuadratureError as exc:
            achieved.append(exc.achieved)
    assert len(achieved) == 3
    with pytest.raises(QuadratureError, match="^lobachevsky_quadrature: achieved error") as exc:
        lobachevsky_quadrature(np.array(points), tol=1e-18)
    assert exc.value.achieved == max(achieved)


def _lob_mpmath(theta: float) -> float:
    """lob(theta) = Cl_2(2 theta) / 2 at 30 digits: a reference that shares
    neither the series nor the quadrature."""
    with mpmath.workdps(30):
        return float(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2)


def test_quadrature_matches_mpmath_on_the_suite_grid():
    # suite criterion 1's grid, at its tolerance, in one call as the suite takes it
    grid = np.linspace(-2 * PI, 2 * PI, 1000)
    values = lobachevsky_quadrature(grid, 1e-12).tolist()
    gap = max(abs(v - _lob_mpmath(x)) for x, v in zip(grid.tolist(), values, strict=True))
    assert gap <= 2e-14


@pytest.mark.parametrize(
    "theta",
    [k * PI + d for k in (1, 2, 3) for d in (1e-13, -1e-13)] + [PI / 2, 10.0, 50.0, -50.0],
)
def test_quadrature_matches_mpmath_at_edges(theta):
    assert lobachevsky_quadrature(theta, 1e-12) == pytest.approx(_lob_mpmath(theta), abs=1e-13)


@pytest.mark.parametrize("theta", [5e-324, 1e-300, -1e-300])
def test_quadrature_finite_for_subnormal_and_tiny(theta):
    # a node whose distance to 0 underflows must add nothing, not log(0)
    value = lobachevsky_quadrature(theta, 1e-12)
    assert math.isfinite(value) and math.copysign(1.0, value) == math.copysign(1.0, theta)
    assert value == pytest.approx(_lob_mpmath(theta), abs=1e-12)


# suite criterion 1's grid, criterion 9's mini-grid, both sides of each
# multiple of pi up to 20 pi, subnormal, tiny and signed zero arguments, and
# arguments of more than 16 pieces
QUADRATURE_POINTS = [
    *np.linspace(-2 * PI, 2 * PI, 1000).tolist(),
    *np.linspace(-2 * PI, 2 * PI, 40).tolist(),
    *(k * PI + d for k in range(-20, 21) for d in (1e-13, -1e-13)),
    5e-324, -5e-324, 1e-300, -1e-300, 0.0, -0.0,
    *(s * x for x in np.random.default_rng(30).uniform(50.0, 60.0, 4).tolist() for s in (1, -1)),
]


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_quadrature_keeps_the_bits_of_one_point_at_a_time(tol):
    # float.hex tells -0.0 from 0.0, so a sign of zero counts as a difference
    want = [lobachevsky_quadrature_pointwise(x, tol).hex() for x in QUADRATURE_POINTS]
    assert [v.hex() for v in lobachevsky_quadrature(np.array(QUADRATURE_POINTS), tol).tolist()] == want
    scalars = [lobachevsky_quadrature(x, tol) for x in QUADRATURE_POINTS]
    assert all(type(v) is float for v in scalars)
    assert [v.hex() for v in scalars] == want


def test_quadrature_returns_the_shape_it_takes():
    assert type(lobachevsky_quadrature(1.0)) is float
    assert type(lobachevsky_quadrature(np.float64(1.0))) is float
    assert type(lobachevsky_quadrature(np.asarray(1.0))) is float
    grid = np.linspace(-7.0, 7.0, 6).reshape(2, 3)
    values = lobachevsky_quadrature(grid)
    assert values.shape == (2, 3) and values.dtype == np.float64
    assert values.tolist() == [[lobachevsky_quadrature(x) for x in row] for row in grid.tolist()]
    assert lobachevsky_quadrature(np.empty((2, 0))).shape == (2, 0)


def test_quadrature_of_minus_zero_is_plus_zero():
    assert lobachevsky_quadrature(-0.0).hex() == (0.0).hex()
    values = lobachevsky_quadrature(np.array([-0.0, 0.0])).tolist()
    assert [v.hex() for v in values] == [(0.0).hex()] * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 5])
def test_quadrature_rejects_any_non_finite_element(bad, where):
    arr = np.linspace(-3.0, 3.0, 6)
    arr[where] = bad
    with pytest.raises(ValueError, match="^lobachevsky_quadrature: argument must be finite"):
        lobachevsky_quadrature(arr)
    with pytest.raises(ValueError, match="^lobachevsky_quadrature: argument must be finite"):
        lobachevsky_quadrature(arr.reshape(2, 3))


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _array_route_0d(theta) -> float:
    """The numpy series on a 0-d array, as the removed numpy route computed
    it but with the series' ``math.log``: the reference the plain-float path
    must match bit for bit."""
    arr = np.asarray(theta, dtype=float)
    r = arr - PI * np.round(arr / PI)
    r = np.where(r <= -PI / 2, r + PI, r)
    x = np.abs(r)
    q = (x / PI) ** 2
    h = np.zeros_like(q)
    for c in _SERIES_COEF_DESC:
        h = h * q + c
    log = math.log(2.0 * float(x)) if x > 0 else 0.0
    val = x * (1.0 - log) + x * q * h
    return float(np.sign(r) * np.where(x > 0, val, 0.0))


SEEDED_POINTS = np.random.default_rng(20240607).uniform(-50.0, 50.0, 100_000).tolist()
_MULTIPLES = [k * PI for k in range(-16, 17)]
EDGE_POINTS = [0.0, -0.0, PI / 2, -PI / 2, 1e-300, -1e-300, 5e-324, -5e-324, *_MULTIPLES]
EDGE_POINTS += [x + d for x in (*_MULTIPLES, PI / 2, -PI / 2) for d in (1e-6, -1e-6)]
# beside each switch of the series' term count, x = pi sqrt(q) at a band edge q
_BAND_POINTS = [x + k * math.ulp(x) for x in (PI * math.sqrt(q) for q, _ in _SERIES_BANDS[:-1])
                for k in (0, 1, -1, 2, -2, 64, -64)]
EDGE_POINTS += [y for x in _BAND_POINTS for y in (x, -x, x + PI)]


@pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("points", [SEEDED_POINTS, EDGE_POINTS], ids=["seeded", "edges"])
def test_array_route_exact_to_float_path(points, ndim):
    # float.hex tells -0.0 from 0.0, so a sign of zero counts as a difference
    arr = np.array(points)
    if ndim == 2:
        rows = next(d for d in range(2, arr.size + 1) if arr.size % d == 0)
        arr = arr.reshape(rows, -1)
    values = lobachevsky(arr)
    assert values.shape == arr.shape and values.dtype == np.float64
    got = [v.hex() for v in values.ravel().tolist()]
    assert got == [lobachevsky(x).hex() for x in points]


@pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["1d", "2d"])
def test_empty_array_gives_empty_float_array(shape):
    values = lobachevsky(np.empty(shape))
    assert values.shape == shape and values.dtype == np.float64


@pytest.fixture(scope="module")
def array_route_0d():
    """_array_route_0d on SEEDED_POINTS and EDGE_POINTS, computed once."""
    return {"seeded": [_array_route_0d(x) for x in SEEDED_POINTS],
            "edges": [_array_route_0d(x) for x in EDGE_POINTS]}


def _mismatches(points, expected, scalar=float):
    """Points where lobachevsky(scalar(x)) is not a float with the expected bits."""
    out = []
    for x, want in zip(points, expected, strict=True):
        value = lobachevsky(scalar(x))
        if type(value) is not float or not _same_bits(value, want):
            out.append(x)
    return out


def test_float_path_bit_identical_to_array_route(array_route_0d):
    assert _mismatches(SEEDED_POINTS, array_route_0d["seeded"]) == []


def test_float_path_edge_values(array_route_0d):
    assert _mismatches(EDGE_POINTS, array_route_0d["edges"]) == []


@pytest.mark.parametrize("scalar", [np.float64, np.asarray], ids=["float64", "0-d"])
def test_numpy_scalar_matches_array_route_0d(scalar, array_route_0d):
    assert _mismatches(SEEDED_POINTS, array_route_0d["seeded"], scalar) == []
    assert _mismatches(EDGE_POINTS, array_route_0d["edges"], scalar) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_path_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        lobachevsky(bad)
    with pytest.raises(ValueError):
        lobachevsky(np.asarray(bad))
    with pytest.raises(ValueError):
        lobachevsky(np.array([1.0, bad, 2.0]))


def _reduced_everywhere(theta: float) -> float:
    """The series with the round reduction on every argument and the bands
    searched from the top: the reference for the fast paths of
    _lobachevsky_float."""
    if not math.isfinite(theta):
        raise ValueError("lobachevsky: argument must be finite")
    r = theta - PI * round(theta / PI)
    if r <= -PI / 2:
        r += PI
    x = abs(r)
    if x == 0.0:
        return 0.0
    q = (x / PI) ** 2
    lower_edges = [-math.inf] + [edge for edge, _ in _SERIES_BANDS[:-1]]
    for edge, (_, quads) in reversed(list(zip(lower_edges, _SERIES_BANDS))):
        if q > edge:
            break
    h = 0.0
    for a, b, c, d in quads:
        h = (((h * q + a) * q + b) * q + c) * q + d
    val = x * (1.0 - math.log(2.0 * x)) + x * q * h
    return val if r > 0 else -val


# within 64 ulps of k pi +- pi/2, where the reduction is skipped on one side
_HALF_PERIOD_POINTS = [x + j * math.ulp(x) for k in range(-4, 5) for x in (k * PI + PI / 2, k * PI - PI / 2)
                       for j in range(-64, 65)] + [0.0, -0.0, 5e-324, -5e-324]


@pytest.fixture(scope="module")
def op_arguments(first_ops):
    """Every argument that one `formula` op and one `oracle` op of the
    benchmark pass to the series, through any module that binds it."""
    arguments = []

    def recorded(theta):
        arguments.append(theta)
        return _lobachevsky_float(theta)

    with pytest.MonkeyPatch.context() as patch:
        for module in [m for name, m in sys.modules.items() if name.startswith("reggescissors.")]:
            if getattr(module, "_lobachevsky_float", None) is _lobachevsky_float:
                patch.setattr(module, "_lobachevsky_float", recorded)
        for op in first_ops.values():
            assert op() is None
    return arguments


@pytest.mark.parametrize("source", ["half_periods", "ops"])
def test_series_fast_paths_keep_the_bits(source, op_arguments):
    points = _HALF_PERIOD_POINTS if source == "half_periods" else op_arguments
    inside = [abs(x) < PI / 2 for x in points]
    assert any(inside) and not all(inside)
    assert [_lobachevsky_float(x).hex() for x in points] == [_reduced_everywhere(x).hex() for x in points]
    assert all(type(_lobachevsky_float(x)) is float for x in points)


def _band_loop(theta: float) -> float:
    """The series as it was before each band became one straight-line chain:
    the same reduction and bands, and a loop of four Horner steps per group
    of four coefficients.  The reference the chains must match bit for bit."""
    if -PI / 2 < theta < PI / 2:
        r = theta
    elif math.isfinite(theta):
        r = theta - PI * round(theta / PI)
        if r <= -PI / 2:
            r += PI
    else:
        raise ValueError("lobachevsky: argument must be finite")
    x = abs(r)
    if x == 0.0:
        return 0.0
    q = (x / PI) ** 2
    for edge, quads in _SERIES_BANDS:
        if q <= edge:
            break
    h = 0.0
    for a, b, c, d in quads:
        h = (((h * q + a) * q + b) * q + c) * q + d
    val = x * (1.0 - math.log(2.0 * x)) + x * q * h
    return val if r > 0 else -val


@pytest.fixture(scope="module")
def formula_arguments():
    """Every argument that the first 40 `formula` ops of the benchmark's
    stream for seed 1 pass to the series, through any module that binds it."""
    inputs, ops = _perfbench_module("inputs"), _perfbench_module("ops")
    arguments = []

    def recorded(theta):
        arguments.append(theta)
        return _lobachevsky_float(theta)

    with pytest.MonkeyPatch.context() as patch:
        for module in [m for name, m in sys.modules.items() if name.startswith("reggescissors.")]:
            if getattr(module, "_lobachevsky_float", None) is _lobachevsky_float:
                patch.setattr(module, "_lobachevsky_float", recorded)
        for angles in inputs.TetStream(1, 1, 0.998).take(40)[0]:
            ops.formula(angles)
    return arguments


@pytest.mark.parametrize("source", ["seeded", "edges", "formula_ops"])
def test_series_chains_keep_the_bits_of_the_band_loop(source, formula_arguments):
    points = {"seeded": SEEDED_POINTS, "edges": EDGE_POINTS, "formula_ops": formula_arguments}[source]
    assert len(points) > 200
    assert [_lobachevsky_float(x).hex() for x in points] == [_band_loop(x).hex() for x in points]


class TestRepeatedCalls:
    """A scalar call repeated on the same argument keeps every bit and
    raises every time: no call depends on the calls before it."""

    def test_a_second_pass_keeps_the_bits(self, array_route_0d):
        for _ in ("first", "second"):
            assert _mismatches(SEEDED_POINTS, array_route_0d["seeded"]) == []
            assert _mismatches(EDGE_POINTS, array_route_0d["edges"]) == []

    @pytest.mark.parametrize("order", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_give_plus_zero_in_either_order(self, order):
        for x in order:
            assert _same_bits(lobachevsky(x), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_every_time(self, bad):
        for _ in range(2):
            with pytest.raises(ValueError):
                lobachevsky(bad)


def test_the_only_function_cache_builds_the_quadrature_tables():
    # every memo of a computed value lives on the instance it was computed
    # for; a functools cache on a function of the package outlives the op
    # that filled it, unless it takes no argument and builds a table once
    cached = []
    for info in pkgutil.iter_modules(reggescissors.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"reggescissors.{info.name}")
        owners = [module, *(c for c in vars(module).values()
                            if inspect.isclass(c) and c.__module__ == module.__name__)]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                    cached.append((f"{module.__name__}.{name}", value))
    assert [name for name, _ in cached] == ["reggescissors.lobachevsky._tanh_sinh_levels"]
    assert inspect.signature(cached[0][1]).parameters == {}
    assert not hasattr(_lobachevsky_float, "cache_info") and not hasattr(_lobachevsky_float, "__wrapped__")


@pytest.mark.kernel_independent
def test_no_op_depends_on_what_ran_before_it(first_ops, generic, monkeypatch):
    # each op evaluates the series body as often when it runs again in the
    # same process: no value outlives the op that computed it, where a
    # process-wide memo of the series would serve the repeat from the first run
    series = sys.modules["reggescissors.lobachevsky"]
    horner, evaluations = series._horner, []
    monkeypatch.setattr(series, "_horner", lambda q: evaluations.append(q) or horner(q))

    def checks_and_orbit():
        t = TetAngles(*generic.as_tuple())
        verify_scissors(t, "b")
        regge_orbit(t)

    for op in (first_ops["formula"], checks_and_orbit):
        runs = []
        for _ in range(2):
            evaluations.clear()
            assert op() is None
            runs.append(len(evaluations))
        assert runs[0] > 0 and runs[1] == runs[0], runs
