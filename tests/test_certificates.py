"""Exact certificates: the identities behind the scissors congruence, proved
symbolically in sympy on the package's own tables.

bar_solution, base_angles, slots, holonomy_polynomial, tetra._link_cofactor,
tetra._edge_cofactors and tetra._gram_det run unchanged on six symbols (pi,
exp, cos and sin made exact), and the moves, vertices and edges are read through the same
index tables the numeric code uses: scissors._MOVED (through scissors._move,
the move rule regge applies), tetra._RELABEL_ROWS, tetra._VERTEX_ANGLES,
tetra._EDGE_ANGLES, REGGE_B_IMAGE_RELABEL and scissors._CHECKS.  Each
identity is checked as an exact symbolic zero, so it holds for every
tetrahedron, not to 1e-9 on a sample.
"""

import types
from collections import Counter

import pytest
import sympy as sp

from reggescissors import octahedron, scissors, tetra
from reggescissors.octahedron import SLOT_ORDER, OctAngles

ANGLES = sp.symbols("A B C Ap Bp Cp", real=True)
Z = sp.Symbol("Z", real=True)


class _Symbolic:
    """Stands in for TetAngles, whose constructor needs finite floats."""

    def __init__(self, values):
        self._values = tuple(values)

    def as_tuple(self):
        return self._values


def _relabel(x, sigma):
    return tuple(x[k] for k in tetra._RELABEL_ROWS[tuple(sigma)])


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
    _, image = scissors._move(ANGLES, "b")
    image_bars = octahedron.bar_solution(_Symbolic(_relabel(image, scissors.REGGE_B_IMAGE_RELABEL)))
    # the piece index verify_scissors applies, read on the bars of O
    exchange = scissors._REGGE_B_EXCHANGE
    for k, bar in enumerate(image_bars):
        assert _is_zero(bar - bars[exchange[k]]), SLOT_ORDER[k]
    assert [SLOT_ORDER[k] for k in exchange[:8]] == [
        {"BA": "DC", "DC": "BA"}.get(slot, slot) for slot in SLOT_ORDER
    ]
    assert exchange[8:] == tuple(k + 8 for k in exchange[:8])


def test_the_a_check_relabels_the_image_once(source):
    # (1, 2, 0, 3) is the pair swap of the source followed by the R_b
    # alignment, in one relabeling; with it the R_a check is the R_b exchange
    of_source, of_image, exchange = scissors._CHECKS["a"]
    _, image = scissors._move(ANGLES, "a")
    assert of_source == tetra.SWAP_AB_PAIRS and exchange == scissors._REGGE_B_EXCHANGE
    assert _relabel(image, of_image) == _relabel(_relabel(image, of_source), scissors.REGGE_B_IMAGE_RELABEL)
    bars = octahedron.bar_solution(_Symbolic(_relabel(ANGLES, of_source)))
    image_bars = octahedron.bar_solution(_Symbolic(_relabel(image, of_image)))
    for k, bar in enumerate(image_bars):
        assert _is_zero(bar - bars[exchange[k]]), SLOT_ORDER[k]


@pytest.fixture
def symbolic_holonomy(monkeypatch):
    """holonomy_polynomial on symbols: sympy reads the literal 1j as 1.0*I,
    which nsimplify makes exact."""
    monkeypatch.setattr(octahedron, "cmath",
                        types.SimpleNamespace(exp=lambda w: sp.exp(sp.nsimplify(w))))
    return octahedron.holonomy_polynomial


def test_regge_c_exchanges_o_and_o_prime(source, symbolic_holonomy):
    # verify_scissors decomposes t and R_c t as they are, and matches image
    # piece k with source piece P_c[k] of the other octahedron
    of_source, of_image, exchange = scissors._CHECKS["c"]
    assert of_source is None and of_image is None
    _, image = scissors._move(ANGLES, "c")
    bars, image_bars = octahedron.bar_solution(source), octahedron.bar_solution(_Symbolic(image))
    for k, bar in enumerate(image_bars):
        j = exchange[k] - 8
        # an O' piece is -(bar +- Z) with the sign of its parity
        assert j % 2 == k % 2, SLOT_ORDER[k]
        assert sp.expand((bar + bars[j]) / sp.pi).is_Integer, SLOT_ORDER[k]
    assert exchange[8:] == tuple(k - 8 for k in exchange[:8])
    assert {SLOT_ORDER[k]: SLOT_ORDER[exchange[k] - 8] for k in range(8)} == {
        "AB": "CD", "CD": "AB", "BA": "AD", "AD": "BA", "BC": "BC", "CB": "DC", "DC": "CB", "DA": "DA"}
    # the image's quadratic q2 w^2 + q1 w + q0 is the source's under w -> 1/w
    # (times w^2; the unit factor is 1): its roots are the inverses, so
    # Z -> -Z (mod pi); which root is Z_minus is left to the numeric slot gap
    _, q2, q1, q0, _ = symbolic_holonomy(bars)
    _, r2, r1, r0, _ = symbolic_holonomy(image_bars)
    for r, q in ((r2, q0), (r1, q1), (r0, q2)):
        assert _is_zero_in_exponentials(r - q)


def test_end_coefficients_vanish(source):
    bars = octahedron.bar_solution(source)
    plus = sum(bars[0::2])
    minus = sum(bars[1::2])
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
        oa = OctAngles(octahedron.slots(bars, offset), octahedron.base_angles(source))
        residuals = octahedron.linear_residuals(oa)
        assert len(residuals) == 8
        assert all(_is_zero(r) for r in residuals)


@pytest.mark.parametrize("which,conj", [("a", tetra.SWAP_AB_PAIRS), ("c", tetra.SWAP_BC_PAIRS)], ids=["a", "c"])
def test_regge_a_and_c_are_regge_b_conjugated(which, conj):
    _, direct = scissors._move(ANGLES, which)
    _, via_b = scissors._move(_relabel(ANGLES, conj), "b")
    assert all(_is_zero(x - y) for x, y in zip(direct, _relabel(via_b, conj)))


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_regge_move_keeps_the_dehn_invariant(which):
    # the move as a matrix, read off the package's own move rule
    _, moved = scissors._move(ANGLES, which)
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


def test_edge_cofactor_is_the_off_diagonal_adjugate(monkeypatch):
    # the closed form classify evaluates for each edge equals the adjugate
    # entry of G at the edge's two vertices
    monkeypatch.setattr(tetra, "math", types.SimpleNamespace(sin=sp.sin))
    adjugate = _gram().adjugate()
    cofactors = tetra._edge_cofactors(ANGLES, [sp.cos(x) for x in ANGLES])
    for (i, j), cofactor in zip(tetra._EDGE_OF.values(), cofactors, strict=True):
        assert _is_zero_in_exponentials(cofactor - adjugate[i, j]), (i, j)


def test_laplace_det_is_the_gram_determinant():
    # the expansion classify evaluates, on the cosines it shares with the
    # edge cofactors, is det G as a polynomial in the six cosines
    cosines = sp.symbols("cA cB cC cAp cBp cCp", real=True)
    G = _gram().subs({sp.cos(x): c for x, c in zip(ANGLES, cosines)})
    assert sp.expand(tetra._gram_det(cosines) - G.det()) == 0


def test_holonomy_discriminant_is_sixteen_det_gram(source, symbolic_holonomy):
    _, q2, q1, q0, _ = symbolic_holonomy(octahedron.bar_solution(source))
    assert _is_zero_in_exponentials(q1 * q1 - 4 * q2 * q0 - 16 * _gram().det())


def _link_forms(x):
    """The vertex excesses S_v - pi/2 and the link margins S_v - x, with S_v
    the half angle sum at vertex v, each as a multiset of linear forms."""
    excesses, margins = Counter(), Counter()
    for row in tetra._VERTEX_ANGLES:
        half_sum = sum(x[k] for k in row) / 2
        excesses[sp.expand(half_sum - sp.pi / 2)] += 1
        margins.update(sp.expand(half_sum - x[k]) for k in row)
    return excesses, margins


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_regge_move_permutes_the_vertex_link_forms(which):
    # so a move keeps every vertex-link inequality that makes a vertex finite
    assert _link_forms(scissors._move(ANGLES, which)[1]) == _link_forms(ANGLES)


# --- the Regge orbit is the six words regge_orbit evaluates.  A move image
# of a word is a relabeling of a word (closure); a relabeling turns each move
# into a move (conjugation); and the relabelings compose to relabelings.  So
# every product of moves and relabelings sends t to a relabeling of one of
# the six words.  The 144 relabeled words are distinct linear forms, so for
# generic angles the six are pairwise distinct up to relabeling and the group
# has order 144 = 6 * 24, S3 x S4.  The angles enter linearly, so expand
# gives each form its canonical shape and == on forms is exact.

#: regge_orbit's words, each as the moves in the order applied: t, R_a t,
#: R_b t, R_c t, R_b R_a t and R_c R_a t.
ORBIT_WORDS = ("", "a", "b", "c", "ab", "ac")


def _word(x, moves):
    for which in moves:
        _, x = scissors._move(x, which)
    return tuple(sp.expand(v) for v in x)


def _relabelings(x):
    return {row: tuple(x[k] for k in row) for row in tetra._RELABEL_ROWS.values()}


def _relabeled_words():
    """The linear forms of each relabeling of each orbit word."""
    return {form for word in ORBIT_WORDS for form in _relabelings(_word(ANGLES, word)).values()}


def test_orbit_words_are_closed_under_the_moves():
    relabeled = _relabeled_words()
    for word in ORBIT_WORDS:
        for which in "abc":
            assert _word(ANGLES, word + which) in relabeled, (word, which)


def test_relabeling_turns_each_move_into_a_move():
    rows = set(tetra._RELABEL_ROWS.values())
    for row, relabeled in _relabelings(ANGLES).items():
        conjugates = {_relabelings(_word(ANGLES, m))[row] for m in "abc"}
        for which in "abc":
            assert _word(relabeled, which) in conjugates, (row, which)
        # relabeling a relabeling is a relabeling
        assert {tuple(other[k] for k in row) for other in rows} == rows


def test_orbit_words_are_distinct_up_to_relabeling():
    assert len(_relabeled_words()) == len(ORBIT_WORDS) * len(tetra._RELABEL_ROWS) == 144
