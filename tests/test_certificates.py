"""Exact certificates: the identities behind the scissors congruence, proved
symbolically in sympy on the package's own tables.

bar_solution, base_angles, holonomy_polynomial and tetra._link_cofactor run
unchanged on six symbols (pi, exp and cos made exact), and the moves and
vertices are read through the same index tables the numeric code uses:
scissors._MOVED (with s_value), tetra._RELABEL_ROWS, tetra._VERTEX_ANGLES,
REGGE_B_IMAGE_RELABEL and PAIR_CONJUGATION.  Each identity is checked as an
exact symbolic zero, so it holds for every tetrahedron, not to 1e-9 on a
sample.
"""

import types
from collections import Counter

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


def _is_zero_in_exponentials(expr):
    """Exact zero after writing every cos and exp as exponentials and expanding;
    faster than simplify on the Gram polynomials."""
    return sp.expand(expr.rewrite(sp.exp)) == 0


def _gram():
    G = sp.eye(4)
    for (k, l), x in zip(tetra._FACES_OF.values(), ANGLES):
        G[k, l] = G[l, k] = -sp.cos(x)
    return G


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


def test_vertex_cofactor_is_the_link_gram_determinant(monkeypatch):
    # the four-cosine product classify evaluates equals the 3x3 principal
    # minor of G that deletes face v, the Gram matrix of the link of vertex v
    monkeypatch.setattr(tetra, "math", types.SimpleNamespace(cos=sp.cos))
    G = _gram()
    for v, row in enumerate(tetra._VERTEX_ANGLES):
        cofactor = tetra._link_cofactor(*(ANGLES[k] for k in row))
        assert _is_zero_in_exponentials(cofactor - G.minor(v, v)), v


def test_holonomy_discriminant_is_sixteen_det_gram(source, monkeypatch):
    # holonomy_polynomial on symbols: sympy reads the literal 1j as 1.0*I,
    # which nsimplify makes exact, and the coefficients stay a plain list
    monkeypatch.setattr(octahedron, "cmath",
                        types.SimpleNamespace(exp=lambda w: sp.exp(sp.nsimplify(w))))
    monkeypatch.setattr(octahedron, "np", types.SimpleNamespace(array=lambda rows, dtype: rows))
    _, q2, q1, q0, _ = octahedron.holonomy_polynomial(octahedron.bar_solution(source))
    assert _is_zero_in_exponentials(q1 * q1 - 4 * q2 * q0 - 16 * _gram().det())


def _link_forms(t):
    """The vertex excesses S_v - pi/2 and the link margins S_v - x, with S_v
    the half angle sum at vertex v, each as a multiset of linear forms."""
    x = t.as_tuple()
    excesses, margins = Counter(), Counter()
    for row in tetra._VERTEX_ANGLES:
        half_sum = sum(x[k] for k in row) / 2
        excesses[sp.expand(half_sum - sp.pi / 2)] += 1
        margins.update(sp.expand(half_sum - x[k]) for k in row)
    return excesses, margins


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_regge_move_permutes_the_vertex_link_forms(source, which):
    # so a move keeps every vertex-link inequality that makes a vertex finite
    assert _link_forms(_move(source, which)) == _link_forms(source)
