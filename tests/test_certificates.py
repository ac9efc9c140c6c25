"""Exact certificates: the identities behind the scissors congruence, proved
symbolically in sympy on the package's own tables.

bar_solution and base_angles run unchanged on six symbols (pi made exact),
and the moves are applied through the same index tables the numeric code
uses: scissors._MOVED (with s_value), tetra._RELABEL_ROWS,
REGGE_B_IMAGE_RELABEL and PAIR_CONJUGATION.  Each identity is checked as an
exact symbolic zero, so it holds for every tetrahedron, not to 1e-9 on a
sample.
"""

import pytest
import sympy as sp

from reggescissors import octahedron, scissors, tetra
from reggescissors.octahedron import O_SIDE, PLUS_SLOTS, SLOT_ORDER, OctAngles

ANGLES = sp.symbols("A B C Ap Bp Cp", real=True)
Z = sp.Symbol("Z", real=True)


class _Symbolic:
    """Stands in for TetAngles, whose constructor needs finite floats."""

    def __init__(self, values):
        self._values = tuple(values)

    def as_tuple(self):
        return self._values


def _move(t, which):
    s = scissors.s_value(t, which)
    moved = scissors._MOVED[which]
    return _Symbolic(s - x if k in moved else x for k, x in enumerate(t.as_tuple()))


def _relabel(t, sigma):
    x = t.as_tuple()
    return _Symbolic(x[k] for k in tetra._RELABEL_ROWS[tuple(sigma)])


def _is_zero(expr):
    return sp.simplify(expr) == 0


@pytest.fixture(autouse=True)
def exact_pi(monkeypatch):
    monkeypatch.setattr(octahedron, "_PI", sp.pi)
    monkeypatch.setattr(octahedron, "_TWO_PI", 2 * sp.pi)


@pytest.fixture
def source():
    return _Symbolic(ANGLES)


def test_regge_b_then_image_relabel_exchanges_ba_and_dc(source):
    bars = octahedron.bar_solution(source)
    image = _relabel(_move(source, "b"), scissors.REGGE_B_IMAGE_RELABEL)
    image_bars = octahedron.bar_solution(image)
    exchange = {"BA": "DC", "DC": "BA"}
    for slot in SLOT_ORDER:
        assert _is_zero(getattr(image_bars, slot) - getattr(bars, exchange.get(slot, slot))), slot
    # the same exchange, as the piece index verify_scissors applies
    assert [SLOT_ORDER[k] for k in scissors._REGGE_B_EXCHANGE[:8]] == [
        exchange.get(slot, slot) for slot in SLOT_ORDER
    ]


def test_end_coefficients_vanish(source):
    bars = octahedron.bar_solution(source)
    plus = sum(getattr(bars, s) for s in PLUS_SLOTS)
    minus = sum(getattr(bars, s) for s in SLOT_ORDER if s not in PLUS_SLOTS)
    assert _is_zero(plus)
    assert _is_zero(minus - 2 * sp.pi)
    # holonomy_polynomial's w^4 and w^0 coefficients: pa - 1/pb and 1/pa - pb,
    # with pa = exp(i * plus) and pb = exp(i * minus)
    assert _is_zero(sp.exp(sp.I * plus) - sp.exp(-sp.I * minus))
    assert _is_zero(sp.exp(-sp.I * plus) - sp.exp(sp.I * minus))


def test_bars_satisfy_linear_constraints(source, monkeypatch):
    # unwrapped residuals: the constraints hold exactly, not only mod 2*pi,
    # and for every offset Z, since each pairs a plus slot with a minus slot
    monkeypatch.setattr(octahedron, "wrap_angle", lambda x: x)
    bars = octahedron.bar_solution(source)
    for offset in (0, Z):
        oa = OctAngles(**dict(zip(SLOT_ORDER, bars.slots(offset))),
                       which=O_SIDE, base=octahedron.base_angles(source))
        residuals = octahedron.linear_residuals(oa)
        assert len(residuals) == 8
        assert all(_is_zero(r) for r in residuals)


@pytest.mark.parametrize("which", ["a", "c"])
def test_regge_a_and_c_are_regge_b_conjugated(source, which):
    conj = scissors.PAIR_CONJUGATION[which]
    direct = _move(source, which).as_tuple()
    via_b = _relabel(_move(_relabel(source, conj), "b"), conj).as_tuple()
    assert all(_is_zero(x - y) for x, y in zip(direct, via_b))


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_regge_move_keeps_the_dehn_invariant(source, which):
    # the move as a matrix, read off the package's own s_value and _MOVED
    moved = _move(source, which).as_tuple()
    M = sp.Matrix(6, 6, lambda i, j: sp.diff(moved[i], ANGLES[j]))
    expected = sp.eye(6)
    for i in scissors._MOVED[which]:
        for j in scissors._MOVED[which]:
            expected[i, j] = sp.Rational(1, 2) - (1 if i == j else 0)
    assert M == expected  # J/2 - I on the moved block
    assert M == M.T
    assert M * M == sp.eye(6)
    # the coefficient of l_j (x) theta_k in sum_i (M l)_i (x) (M theta)_i is
    # (M^T M)[j, k], so with independent symbols for l and theta the tensor
    # identity is the bilinear identity below
    lengths = sp.Matrix(sp.symbols("l0:6", real=True))
    theta = sp.Matrix(ANGLES)
    dehn = sum(a * b for a, b in zip(lengths, theta))
    assert _is_zero(sum(a * b for a, b in zip(M * lengths, M * theta)) - dehn)
