import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reggescissors.exceptions import GeometryDomainError
from reggescissors.klein import SCHLAFLI_STEP, klein_vertices, schlafli_residual
from reggescissors.lobachevsky import lobachevsky
from reggescissors.octahedron import solve_holonomy, tet_volume
from reggescissors.sampling import SeededUniform, sample_finite
from reggescissors.scissors import decompose, regge, regge_orbit, verify_scissors
from reggescissors.tetra import (
    _VERTEX_ANGLES,
    IDEAL_COFACTOR_TOL,
    SWAP_AB_PAIRS,
    TetAngles,
    TetraKind,
    _classify,
    _edge_cofactors,
    _finite_margin,
    _gram_det,
    _link_cofactor,
    classify,
    edge_lengths,
    gram_matrix,
    ideal_volume,
    prime_angles,
    prism_volume,
    prism_volume_by_tetrahedra,
    relabel,
    require_kind,
)

from conftest import IDEAL_BESIDE_HYPERIDEAL, _stream_rows
from oracles import (
    angles_from_gram,
    classify_by_inverse,
    gram_det_mp,
    tetra_symmetries,
    vertex_minors_mp,
)

PI = math.pi
REGULAR_IDEAL_VOLUME = 1.0149416064096539  # 3 * lob(pi/3), frozen against quadrature


def vertex_cofactors(t):
    """The link cofactors of vertices 0..3, as classify evaluates them."""
    x = t.as_tuple()
    return [_link_cofactor(x[i], x[j], x[k]) for i, j, k in _VERTEX_ANGLES]


angle_triple = st.tuples(
    st.floats(0.2, 1.4), st.floats(0.2, 1.4), st.floats(0.2, 1.4)
)


class TestPrimeAngles:
    def test_symmetric_fixed_point(self):
        assert prime_angles(PI / 3, PI / 3, PI / 3) == pytest.approx((PI / 3,) * 3, abs=1e-15)

    def test_direct_substitution(self):
        p = prime_angles(PI / 2, PI / 4, PI / 4)
        assert p == pytest.approx((PI / 2, PI / 4, PI / 4), abs=1e-15)

    def test_affine_evaluation(self):
        assert prime_angles(0.9, 0.8, 0.7) == pytest.approx(
            ((PI - 0.6) / 2, (PI - 0.8) / 2, (PI - 1.0) / 2), abs=1e-15
        )

    @settings(max_examples=100, deadline=None)
    @given(angle_triple)
    def test_sum_identities(self, abc):
        A, B, C = abc
        p = prime_angles(A, B, C)
        total = sum(p)
        assert total == pytest.approx((3 * PI - A - B - C) / 2, abs=1e-12)
        # per-angle identity: A' + (B + C)/2 - A/2 = pi/2
        assert p[0] + (B + C) / 2 - A / 2 == pytest.approx(PI / 2, abs=1e-12)

    def test_tuple_is_the_old_record_bit_for_bit(self):
        # the Aprime, Bprime, Cprime fields of the record prime_angles
        # returned before it returned a tuple, as that code computed them
        def record_fields(A, B, C):
            return ((PI + A - B - C) / 2, (PI + B - A - C) / 2, (PI + C - A - B) / 2)

        rng = np.random.default_rng(12)
        for A, B, C in rng.uniform(0.0, PI, size=(2000, 3)).tolist():
            got = prime_angles(A, B, C)
            assert type(got) is tuple
            assert [x.hex() for x in got] == [x.hex() for x in record_fields(A, B, C)]

    def test_triangulation_keeps_its_bits(self):
        # prism_volume_by_tetrahedra as written over the removed three-angle
        # record: three ideal_volume calls, each lob(a) + lob(b) + lob(c)
        def old_by_tetrahedra(A, B, C):
            Ap, Bp, Cp = ((PI + A - B - C) / 2, (PI + B - A - C) / 2, (PI + C - A - B) / 2)
            triples = ((Ap, Bp, C), (A, Bp, Cp), (Cp - C, B, PI - Bp))
            vols = [float(lobachevsky(a) + lobachevsky(b) + lobachevsky(c)) for a, b, c in triples]
            return vols[0] + vols[1] + vols[2]

        rng = np.random.default_rng(13)
        for A, B, C in rng.uniform(0.05, 1.5, size=(300, 3)).tolist():
            assert prism_volume_by_tetrahedra(A, B, C).hex() == old_by_tetrahedra(A, B, C).hex()


class TestIdealVolume:
    def test_regular(self):
        v = ideal_volume(PI / 3, PI / 3, PI / 3)
        assert v == pytest.approx(REGULAR_IDEAL_VOLUME, abs=1e-12)

    def test_degenerate_edge(self):
        for x in (0.3, 1.0, 1.5):
            assert ideal_volume(0.0, x, PI - x) == pytest.approx(0.0, abs=1e-14)

    def test_half_square_case(self):
        v = ideal_volume(PI / 2, PI / 4, PI / 4)
        assert v == pytest.approx(2 * lobachevsky(PI / 4), abs=1e-13)

    def test_angle_sum_enforced(self):
        with pytest.raises(GeometryDomainError):
            ideal_volume(1.0, 1.0, 1.0)


class TestPrism:
    def test_equilateral_doubles_regular_ideal(self):
        # the third triangulation tetrahedron degenerates at the symmetric point
        assert prism_volume(PI / 3, PI / 3, PI / 3) == pytest.approx(
            2 * REGULAR_IDEAL_VOLUME, abs=1e-12
        )

    def test_flat_sum_case(self):
        A, B, C = 1.1, 0.9, PI - 2.0
        Ap, Bp, Cp = prime_angles(A, B, C)
        expected = ideal_volume(Ap, Bp, C) + ideal_volume(A, Bp, Cp)
        assert prism_volume(A, B, C) == pytest.approx(expected, abs=1e-12)

    def test_closed_form_equals_triangulation(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 50:
            abc = rng.uniform(0.05, 1.5, size=3)
            if abc.sum() >= PI - 0.02:
                continue
            checked += 1
            assert prism_volume(*abc) == pytest.approx(
                prism_volume_by_tetrahedra(*abc), abs=1e-10
            )

    def test_continuation_regime_agrees_too(self):
        # A+B+C > pi: same formula, same triangulation identity
        for abc in [(2.0, 0.8, 0.9), (1.3, 1.3, 1.3), (1.5, 1.0, 0.9)]:
            assert prism_volume(*abc) == pytest.approx(
                prism_volume_by_tetrahedra(*abc), abs=1e-10
            )


class TestGram:
    def test_equiangular_entries(self):
        G = gram_matrix(TetAngles(*(1.0,) * 6))
        off = G[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -math.cos(1.0))
        assert np.allclose(np.diag(G), 1.0)

    def test_right_angles_give_identity(self):
        G = gram_matrix(TetAngles(*(PI / 2,) * 6))
        assert np.allclose(G, np.eye(4), atol=1e-15)

    def test_round_trip(self, generic):
        assert angles_from_gram(gram_matrix(generic)).as_tuple() == pytest.approx(
            generic.as_tuple(), abs=1e-14
        )


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The matrices np.linalg.eigvalsh is called on, from any caller."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(G) or eigvalsh(G))
    return calls


class TestClassify:
    @pytest.mark.parametrize(
        "theta,kind",
        [
            (1.2, TetraKind.FINITE),
            (PI / 3, TetraKind.IDEAL),
            (1.0, TetraKind.HYPERIDEAL),
            (1.5, TetraKind.INVALID),
        ],
    )
    def test_equiangular_families(self, theta, kind):
        assert classify(TetAngles(*(theta,) * 6)).kind is kind

    def test_a_hyperideal_vertex_beside_an_ideal_one_is_hyperideal(self):
        # a negative vertex cofactor decides, whatever the others: the volume
        # formula needs every vertex finite or ideal
        t = IDEAL_BESIDE_HYPERIDEAL
        cof = vertex_cofactors(t)
        assert abs(cof[0]) <= IDEAL_COFACTOR_TOL and min(cof) < -IDEAL_COFACTOR_TOL
        assert classify(t).kind is TetraKind.HYPERIDEAL is classify_by_inverse(t)

    def test_out_of_range_is_invalid(self):
        assert classify(TetAngles(-0.1, 1.2, 1.2, 1.2, 1.2, 1.2)).kind is TetraKind.INVALID

    def test_singular_gram_is_invalid_without_raising(self):
        # all six angles at pi make G all ones, which np.linalg.inv refuses;
        # the cofactors come from the vertex links and need no inverse
        t = TetAngles(*(PI,) * 6)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(gram_matrix(t))
        assert classify(t).kind is TetraKind.INVALID

    def test_relabel_invariance(self, generic):
        kind = classify(generic).kind
        for sigma in tetra_symmetries():
            assert classify(relabel(generic, sigma)).kind is kind

    def test_diagnostics_present(self, generic):
        cls = classify(generic)
        assert [f.name for f in dataclasses.fields(cls)] == ["kind", "det"]
        assert cls.det < 0
        assert all(c > 0 for c in vertex_cofactors(generic))

    def test_finite_suite_draws_need_no_eigenvalues(self, eigvalsh_calls):
        # no box draw comes within 1e-8 of det G = 0, so det G decides alone
        batch, _ = sample_finite(np.random.default_rng(7), 1000)
        eigvalsh_calls.clear()
        assert all(classify(TetAngles(*t.as_tuple())).kind is TetraKind.FINITE for t in batch)
        assert eigvalsh_calls == []

    def test_diagnostics_match_40_digits(self, stream_angles, slivers):
        # no CLI output shows det or the cofactors: the Laplace det is within
        # 1e-15 of the 40-digit det G (the eigenvalue product misses by up to
        # 2.0e-15) and has its sign on every sliver, down to |det G| = 2.6e-20;
        # each link cofactor is within 1e-10 relative of the 40-digit Gram
        # minor, down to the slivers' 1e-14 cofactors
        for angles in stream_angles:
            t = TetAngles(*angles)
            assert abs(classify(t).det - gram_det_mp(t)) <= 1e-15, angles
        for angles in slivers:
            t = TetAngles(*angles)
            assert (classify(t).det < 0) == (gram_det_mp(t) < 0), angles
        for angles in stream_angles + slivers:
            t = TetAngles(*angles)
            for got, want in zip(vertex_cofactors(t), vertex_minors_mp(t)):
                assert abs(got - want) <= 1e-10 * abs(want), angles


class TestClassReference:
    """classify reads the vertex cofactors from the vertex links, the edge
    cofactors from their closed form, and the signature from the sign of its
    Laplace det G wherever |det G| > IDEAL_COFACTOR_TOL, from the
    eigenvalues only in the band |det G| <= IDEAL_COFACTOR_TOL;
    classify_by_inverse reads the signature from the eigenvalues and both
    cofactors from det(G) * inv(G).  The class must not move."""

    @staticmethod
    def _assert_same_class(rows):
        for angles in rows:
            t = TetAngles(*angles)
            assert classify(t).kind is classify_by_inverse(t), angles

    @staticmethod
    def _assert_same_class_by_route(rows, eigvalsh_calls):
        """_assert_same_class, returning the classes of the rows that
        classify sent to its eigenvalue fallback, each checked to lie in
        the band |det G| <= IDEAL_COFACTOR_TOL."""
        by_eigenvalues = []
        for angles in rows:
            t = TetAngles(*angles)
            before = len(eigvalsh_calls)
            cls = classify(t)
            if len(eigvalsh_calls) > before:
                assert abs(cls.det) <= IDEAL_COFACTOR_TOL, angles
                by_eigenvalues.append(cls)
            assert cls.kind is classify_by_inverse(t), angles
        return by_eigenvalues

    def test_stream_inputs_and_their_images(self, stream_angles):
        sources = [TetAngles(*angles) for angles in stream_angles]
        images = [regge(t, which) for t in sources for which in "abc"]
        self._assert_same_class(t.as_tuple() for t in sources + images)

    def test_box_and_uniform_draws(self, eigvalsh_calls):
        # no row with |det G| > IDEAL_COFACTOR_TOL reaches eigvalsh
        rng = np.random.default_rng(2024)
        box = rng.uniform(1.15 - 0.12, 1.15 + 0.12, (2000, 6)).tolist()
        uniform = rng.uniform(0.0, PI, (2000, 6)).tolist()
        self._assert_same_class_by_route(box + uniform, eigvalsh_calls)

    def test_near_euclidean_probe(self):
        # the regular Euclidean tetrahedron (det G = 0) sits at arccos(1/3)
        rng = np.random.default_rng(7)
        regular = math.acos(1 / 3)
        rows = []
        for exponent in range(-14, -2):
            for sign in (-1, 1):
                theta = regular + sign * 10.0**exponent
                rows.append((theta,) * 6)
                rows.append(tuple((theta + 10.0**exponent * rng.uniform(-1, 1, 6)).tolist()))
        kinds = {classify(TetAngles(*angles)).kind for angles in rows}
        assert {TetraKind.FINITE, TetraKind.INVALID} <= kinds
        self._assert_same_class(rows)

    def test_det_crosses_the_tolerance(self, eigvalsh_calls):
        # on the equiangular line det G is about 6.7 (theta - arccos(1/3)), so
        # steps of 1e-10 rad take it across -1e-8, 0 and +1e-8
        rng = np.random.default_rng(11)
        regular = math.acos(1 / 3)
        rows = [(regular + n * 1e-10,) * 6 for n in range(-60, 61)]
        rows += [tuple((regular + n * 1e-10 + 1e-10 * rng.uniform(-1, 1, 6)).tolist()) for n in range(-60, 61)]
        classes = [classify(TetAngles(*angles)) for angles in rows]
        for lo, hi in ((-math.inf, -IDEAL_COFACTOR_TOL), (-IDEAL_COFACTOR_TOL, 0.0),
                       (0.0, IDEAL_COFACTOR_TOL), (IDEAL_COFACTOR_TOL, math.inf)):
            assert any(lo < cls.det < hi for cls in classes), (lo, hi)
        assert {cls.kind for cls in classes} == {TetraKind.FINITE, TetraKind.INVALID}
        assert 0 < len(self._assert_same_class_by_route(rows, eigvalsh_calls)) < len(rows)

    def test_near_ideal_vertex_probe(self, eigvalsh_calls):
        # A + B + C = pi +- 10^-k puts vertex 0's cofactor on both sides of
        # zero and of IDEAL_COFACTOR_TOL, and on the regular ideal base
        # vertex 3 moves with it while vertices 1 and 2 stay ideal; an ideal
        # vertex does not bring det G near 0, so det G decides every row
        bases = ((1.15, 1.2, 1.22, 1.18, 1.25), (0.9, 1.3, 1.4, 1.1, 1.2), (PI / 3,) * 5)
        rows = [(A, B, PI + sign * 10.0**-k - A - B, Ap, Bp, Cp)
                for A, B, Ap, Bp, Cp in bases for k in range(1, 16) for sign in (-1, 1)]
        kinds = {classify(TetAngles(*angles)).kind for angles in rows}
        assert kinds == {TetraKind.FINITE, TetraKind.IDEAL, TetraKind.HYPERIDEAL}
        assert self._assert_same_class_by_route(rows, eigvalsh_calls) == []


class TestSlivers:
    """The near-degenerate Finite benchmark inputs that classify calls Ideal."""

    def test_count(self, slivers):
        assert len(slivers) == 70

    def test_only_the_threshold_makes_them_ideal(self, slivers):
        for angles in slivers:
            t = TetAngles(*angles)
            cofactors = vertex_cofactors(t)
            assert gram_det_mp(t) < 0, angles
            assert 0 < min(cofactors) <= IDEAL_COFACTOR_TOL, angles

    @pytest.mark.xfail(strict=True, reason="the absolute cofactor threshold calls them Ideal; "
                       "ROADMAP items 2 and 11 classify by vertex excess instead")
    def test_classify_calls_them_finite(self, slivers):
        assert all(classify(TetAngles(*angles)).kind is TetraKind.FINITE for angles in slivers)


def _link_lipschitz(x):
    """For each vertex, in _VERTEX_ANGLES order: 2 sum_j prod_{k!=j} (|c_k| + 5e-4)
    over the cosines c of S, S - a, S - b and S - c of its angles (a, b, c)."""
    out = []
    for i, j, k in _VERTEX_ANGLES:
        s = (x[i] + x[j] + x[k]) / 2
        c = [abs(math.cos(s - y)) + 5e-4 for y in (0.0, x[i], x[j], x[k])]
        p = [math.prod(c[:m] + c[m + 1:]) for m in range(4)]
        out.append(2 * (p[0] + p[1] + p[2] + p[3]))
    return out


def _margin_terms(t):
    """The four terms of _finite_margin, restated: the angle margin, then the
    smallest link term (each vertex with its own constant, _link_lipschitz),
    the edge term with the constant 3 and the det G term with the constant
    2 max|C| + 1e-3 over the edge cofactors C."""
    x = t.as_tuple()
    cosines = [math.cos(v) for v in x]
    edges = _edge_cofactors(x, cosines)
    links = [(c - IDEAL_COFACTOR_TOL) / k for c, k in zip(vertex_cofactors(t), _link_lipschitz(x))]
    return (min(min(x), PI - max(x)), min(links), (min(edges) + IDEAL_COFACTOR_TOL) / 3,
            (-_gram_det(cosines) - IDEAL_COFACTOR_TOL) / (2 * max(abs(c) for c in edges) + 1e-3))


def _steps(t, h):
    """The 12 single-angle steps t +- h e_i of the Schlafli stencil, as fresh instances."""
    x = t.as_tuple()
    return [TetAngles(*x[:i], x[i] + d, *x[i + 1:]) for i in range(6) for d in (h, -h)]


@pytest.mark.kernel_independent
class TestFiniteMargin:
    """tetra._finite_margin bounds how far one angle of a Finite tetrahedron
    can move before _classify could call it anything else; within half of it
    the Schlafli stencil takes each step as Finite without classifying it."""

    @pytest.fixture(scope="class")
    def rows(self, stream_angles):
        """Suite-box draws, then the benchmark stream rows."""
        batch, _ = sample_finite(SeededUniform([50, 1]), 300)
        return [t.as_tuple() for t in batch] + stream_angles

    def test_certified_steps_take_the_class_classify_gives(self, rows):
        # the steps at h of every row whose margin exceeds 2h, and the
        # retry's steps at h / 10 of every row whose margin lies in
        # (2h / 10, 2h], here and on the first 240 `oracle` rows of seeds
        # 1-3 (25 of them lie there)
        h, certified = SCHLAFLI_STEP, {SCHLAFLI_STEP: 0, SCHLAFLI_STEP / 10: 0}
        oracle_rows = _stream_rows(2, 0.9, 240)
        margins = {angles: _finite_margin(TetAngles(*angles)) for angles in rows + oracle_rows}
        for angles, margin in margins.items():
            step = next((s for s in (h, h / 10) if 2 * s < margin), None)
            if step is None:
                continue
            t = TetAngles(*angles)
            assert classify(t).kind is TetraKind.FINITE, angles
            for s in _steps(t, step):
                assert _classify(s).kind is TetraKind.FINITE, s
                certified[step] += 1
        assert certified[h] > 12 * len(rows) // 2
        retried = sum(2 * h / 10 < margins[angles] <= 2 * h for angles in oracle_rows)
        assert retried == 25 and certified[h / 10] >= 12 * retried

    def test_the_stencil_builds_no_step_of_a_certified_source(self, rows, monkeypatch):
        # a certified step is six floats: no TetAngles is made for it, while
        # a classified source makes a fresh one per step it classifies
        sources = [t for t in map(TetAngles.of, rows[:100]) if 2 * SCHLAFLI_STEP < _finite_margin(t)]
        built, init = [], TetAngles.__post_init__
        monkeypatch.setattr(TetAngles, "__post_init__", lambda s: built.append(s.as_tuple()) or init(s))
        for t in sources:
            schlafli_residual(t, SCHLAFLI_STEP)
        assert len(sources) > 50 and built == []
        # a margin of 5.97e-6: the 2 steps at h that end the first pass are
        # classified, and the retry's steps at h / 10 are certified
        t = TetAngles(*(PI / 3 + 2e-6,) * 6)
        assert 2 * SCHLAFLI_STEP / 10 < _finite_margin(t) < 2 * SCHLAFLI_STEP
        classified = [s.as_tuple() for s in _steps(t, SCHLAFLI_STEP)[:2]]
        built.clear()
        schlafli_residual(t, SCHLAFLI_STEP)
        assert built == classified

    def test_the_stencil_classifies_no_step_of_a_certified_source(self, rows, monkeypatch):
        from reggescissors import tetra

        sources = [t for t in map(TetAngles.of, rows[:100]) if 2 * SCHLAFLI_STEP < _finite_margin(t)]
        assert all(classify(t).kind is TetraKind.FINITE for t in sources)
        classified, compute = [], tetra._classify
        monkeypatch.setattr(tetra, "_classify", lambda s: classified.append(s) or compute(s))
        for t in sources:
            schlafli_residual(t, SCHLAFLI_STEP)
        assert len(sources) > 50 and classified == []

    def test_the_margin_is_its_stated_bound(self, rows, generic):
        # each term binds somewhere: the link or det G term on the rows, and
        # the edge term on angle data whose vertex 3 lies on the other sheet
        # (the three angles of face 3's edges supplemented: the same vertex
        # cofactors and det G, but the edge cofactors at vertex 3 change sign)
        A, B, C, Ap, Bp, Cp = generic.as_tuple()
        other_sheet = TetAngles(PI - A, PI - B, C, Ap, Bp, PI - Cp)
        assert classify(other_sheet).kind is TetraKind.INVALID
        binding = set()
        for t in [TetAngles(*angles) for angles in rows] + [other_sheet]:
            terms = _margin_terms(t)
            assert _finite_margin(t) == min(terms), t
            binding.add(terms.index(min(terms)))
        assert {1, 2, 3} <= binding

    def test_lipschitz_bounds_hold_on_single_angle_steps(self, rows):
        # a step d in one angle, |d| <= 1e-3, moves vertex v's link cofactor
        # by at most _link_lipschitz(x)[v] |d|, an edge cofactor by at most
        # 3|d| and det G by at most (2 max|C| + 1e-3) |d|, and by no more
        # than the global bounds 8|d| and 10.4|d|; 1e-14 covers the
        # rounding of the two evaluations
        rng = np.random.default_rng(50)
        for x in rows[::4]:
            links, edges, det = self._quantities(x)
            link_bounds = [min(k, 8) for k in _link_lipschitz(x)]
            det_bound = min(2 * max(abs(c) for c in edges) + 1e-3, 10.4)
            for i in range(6):
                y = x[:i] + (x[i] + float(rng.uniform(-1e-3, 1e-3)),) + x[i + 1:]
                d = abs(y[i] - x[i])
                links2, edges2, det2 = self._quantities(y)
                assert all(abs(a - b) <= k * d + 1e-14 for a, b, k in zip(links, links2, link_bounds)), (x, i)
                assert all(abs(a - b) <= 3 * d + 1e-14 for a, b in zip(edges, edges2)), (x, i)
                assert abs(det - det2) <= det_bound * d + 1e-14, (x, i)

    @staticmethod
    def _quantities(x):
        """The link cofactors, edge cofactors and det G of the angles x."""
        cosines = [math.cos(v) for v in x]
        return vertex_cofactors(TetAngles(*x)), _edge_cofactors(x, cosines), _gram_det(cosines)

    def test_det_g_moves_by_twice_the_opposite_edge_cofactor(self, rows):
        # the first-order term of the det G bound: d det / dx = 2 sin x C,
        # C the edge cofactor of the edge opposite x's, against a central
        # difference, whose error at this step is far below 1e-7
        for x in rows[::16]:
            _, edges, _ = self._quantities(x)
            for i in range(6):
                up, dn = (x[:i] + (x[i] + d,) + x[i + 1:] for d in (1e-6, -1e-6))
                slope = (self._quantities(up)[2] - self._quantities(dn)[2]) / 2e-6
                opposite = (i + 3) % 6
                assert slope == pytest.approx(2 * math.sin(x[i]) * edges[opposite], abs=1e-7), (x, i)

    def test_a_source_within_2h_of_its_margin_is_classified_step_by_step(self, slivers, monkeypatch):
        from reggescissors import tetra

        # Finite, within 1e-6 of the ideal equiangular pi/3 (a margin of
        # 5.9e-7): the first step down leaves the Finite class at h, and at
        # h / 10, whose 2 steps are above the margin too, so the retry is
        # classified step by step and raises; within 1e-5 (a margin of
        # 5.97e-6), the retry is certified and no step of it is classified
        h = SCHLAFLI_STEP
        near, nearer = TetAngles(*(PI / 3 + 2e-6,) * 6), TetAngles(*(PI / 3 + 2e-7,) * 6)
        assert classify(near).kind is classify(nearer).kind is TetraKind.FINITE
        assert 0 < _finite_margin(nearer) < 2 * h / 10 < _finite_margin(near) < 2 * h
        classified, compute = [], tetra._classify
        monkeypatch.setattr(tetra, "_classify", lambda s: classified.append(s.as_tuple()) or compute(s))
        with pytest.raises(GeometryDomainError, match="even after shrinking h"):
            schlafli_residual(nearer, h)
        assert classified == [s.as_tuple() for s in _steps(nearer, h)[:2] + _steps(nearer, h / 10)[:2]]
        classified.clear()
        schlafli_residual(near, h)
        assert classified == [s.as_tuple() for s in _steps(near, h)[:2]]
        # the slivers are not Finite for classify, so no step of theirs is certified
        for angles in slivers:
            assert _finite_margin(TetAngles(*angles)) <= 0 < 2 * h, angles


class TestClassifyOnce:
    ANGLES = (1.15, 1.2, 1.1, 1.22, 1.18, 1.25)

    @pytest.fixture
    def uncached(self, monkeypatch):
        """Counts the classifications that are computed, not read back."""
        from reggescissors import tetra

        calls = []
        compute = tetra._classify
        monkeypatch.setattr(tetra, "_classify", lambda t: calls.append(t) or compute(t))
        return calls

    @pytest.fixture
    def solved(self, monkeypatch):
        """The angles of each holonomy solve that is computed, not read back."""
        from reggescissors import octahedron

        calls, solve = [], octahedron._holonomy_roots
        monkeypatch.setattr(octahedron, "_holonomy_roots", lambda t: calls.append(t.as_tuple()) or solve(t))
        return calls

    @pytest.mark.parametrize(
        "call",
        [
            # tet_volume and solve_holonomy share the source's class
            pytest.param(lambda t: tet_volume(t), id="tet_volume"),
            pytest.param(lambda t: decompose(t), id="decompose"),
            # the source alone: the R_b image takes its class (regge), and the
            # relabeled image it is aligned with takes its class from the image
            pytest.param(lambda t: verify_scissors(t, "b"), id="verify_b"),
            # then the orbit's four other members take the class of t too
            pytest.param(lambda t: (verify_scissors(t, "b"), regge_orbit(t)), id="verify_b_then_orbit"),
            # the pair-swapped relabelings of t and of R_a t take their class
            # from them; R_b R_a t and R_c R_a t from R_a t
            pytest.param(lambda t: (verify_scissors(t, "a"), regge_orbit(t)), id="verify_a_then_orbit"),
            # the benchmark's formula op: the source, and no orbit word
            pytest.param(lambda t: (tet_volume(t), decompose(t), [verify_scissors(t, w) for w in "abc"],
                                    regge_orbit(t)), id="formula_op"),
        ],
    )
    def test_pinned_counts(self, uncached, call):
        t = TetAngles(*self.ANGLES)
        call(t)
        assert uncached == [t]

    def test_formula_op_solves_nine_times(self, solved):
        # t; for a, the pair swap of t and the relabeling of R_a t, then R_a t
        # for its volume; for b, the aligned relabeling of R_b t, then R_b t;
        # for c, R_c t alone; then the orbit's R_b R_a t and R_c R_a t
        t = TetAngles(*self.ANGLES)
        tet_volume(t), tet_volume(t, "plus"), decompose(t).total_volume()
        [verify_scissors(t, w) for w in "abc"], regge_orbit(t)
        assert len(solved) == len(set(solved)) == 9

    def test_verify_c_after_the_volume_and_the_orbit_solves_nothing(self, solved):
        # the c check decomposes t and R_c t as they are, both solved already
        t = TetAngles(*self.ANGLES)
        tet_volume(t), regge_orbit(t)
        solved.clear()
        assert verify_scissors(t, "c").passed
        assert solved == []

    def test_verify_b_and_the_orbit_solve_the_r_b_image_once_and_classify_only_the_source(self, uncached, solved):
        # the image is solved once and classified never: its class is the source's
        t = TetAngles(*self.ANGLES)
        image = regge(t, "b").as_tuple()
        verify_scissors(t, "b")
        orbit = regge_orbit(t)
        assert image in [m.as_tuple() for m in orbit.members]
        assert uncached == [t]
        assert solved.count(image) == 1

    def test_memo_is_invisible(self, uncached):
        # the class, the holonomy roots and the decomposition that
        # solve_holonomy and decompose keep the same way, and the image regge
        # keeps for each move
        moves = [functools.partial(regge, which=which) for which in "abc"]
        for memo in (classify, solve_holonomy, decompose, *moves):
            t, fresh = TetAngles(*self.ANGLES), TetAngles(*self.ANGLES)
            before = (hash(t), repr(t))
            first = memo(t)
            assert memo(t) is first
            assert uncached[-1] is t
            assert (hash(t), repr(t)) == before
            assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
            assert dataclasses.asdict(t) == dataclasses.asdict(fresh)
            assert dataclasses.replace(t) == t
        # each memo classifies its t once, regge so that its image can take
        # the class; and an unknown move keeps nothing
        assert len(uncached) == 6
        attributes, kept = set(vars(t)), dict(t._kept)
        with pytest.raises(GeometryDomainError):
            regge(t, "d")
        assert set(vars(t)) == attributes and t._kept == kept
        # a decomposition keeps its canonical angles the same way
        d = decompose(t)
        before = (hash(d), repr(d))
        assert d.canonical_angles() is d.canonical_angles()
        assert (hash(d), repr(d)) == before and d == type(d)(d.raw_angles)

    def test_relabel_takes_the_class_of_its_source(self, uncached, stream_angles):
        for x in stream_angles:
            t = TetAngles(*x)
            source = classify(t)
            for sigma in itertools.permutations(range(4)):
                moved = relabel(t, sigma)
                assert classify(moved) is source
                assert classify(TetAngles(*moved.as_tuple())).kind is source.kind
                # vertex v's link has the angles of vertex sigma(v)'s
                y = moved.as_tuple()
                assert all(sorted(y[k] for k in _VERTEX_ANGLES[v]) == sorted(x[k] for k in _VERTEX_ANGLES[w])
                           for v, w in enumerate(sigma))
        # the source and each fresh copy, no relabeling
        assert len(uncached) == 25 * len(stream_angles)

    def test_relabel_of_an_unclassified_source_is_classified_afresh(self, uncached):
        t = TetAngles(*self.ANGLES)
        moved = relabel(t, SWAP_AB_PAIRS)
        classify(moved)
        assert uncached == [moved]

    def test_replaced_copy_is_classified_afresh(self, uncached):
        t = TetAngles(*self.ANGLES)
        classify(t)
        moved = dataclasses.replace(t, A=PI / 2)
        assert classify(moved) == classify(TetAngles(PI / 2, *self.ANGLES[1:]))
        assert uncached[1] is moved
        same = dataclasses.replace(t)
        assert classify(same) == classify(t)
        assert uncached[-1] is same
        assert len(uncached) == 4


class TestRequireKind:
    FINITE_OR_IDEAL = "requires a Finite or Ideal tetrahedron; classification: Hyperideal"
    FINITE = "requires a Finite tetrahedron; classification: Hyperideal"

    @pytest.mark.parametrize(
        "call,theta,message",
        [
            (tet_volume, 1.0, FINITE_OR_IDEAL),
            (decompose, 1.0, FINITE_OR_IDEAL),
            (edge_lengths, 1.0, FINITE),
            (klein_vertices, 1.0, FINITE),
            (schlafli_residual, 1.0, FINITE),
            (solve_holonomy, 1.5,
             "requires a Finite or Ideal or Hyperideal tetrahedron; classification: Invalid"),
        ],
        ids=["tet_volume", "decompose", "edge_lengths", "klein_vertices", "schlafli_residual",
             "solve_holonomy"],
    )
    def test_every_layer_raises_the_one_message(self, call, theta, message):
        with pytest.raises(GeometryDomainError) as exc:
            call(TetAngles(*(theta,) * 6))
        assert str(exc.value) == message

    def test_returns_the_class(self, generic):
        assert require_kind(generic, TetraKind.FINITE) is classify(generic)


class TestEdgeLengths:
    def test_equiangular_all_equal(self, equiangular):
        lengths = edge_lengths(equiangular)
        assert np.allclose(lengths, lengths[0])
        assert all(l > 0 for l in lengths)

    def test_needs_finite(self):
        with pytest.raises(GeometryDomainError):
            edge_lengths(TetAngles(*(PI / 3,) * 6))

    def test_cosh_ratio_below_one_is_arithmetic_error(self, flipped_gram):
        t = TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)
        assert classify(t).kind is TetraKind.FINITE
        with pytest.raises(ArithmeticError, match=r"^edge C \(0, 3\): cosh ratio -1\.\d+ is below 1$") as exc:
            edge_lengths(t)
        assert not isinstance(exc.value, ValueError)

    @pytest.fixture
    def computed(self, monkeypatch):
        """Counts the edge lengths that are computed, not read back."""
        from reggescissors import tetra

        calls = []
        compute = tetra._edge_lengths
        monkeypatch.setattr(tetra, "_edge_lengths", lambda t: calls.append(t) or compute(t))
        return calls

    def test_kept_on_the_instance(self, computed):
        t = TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)
        lengths = edge_lengths(t)
        assert edge_lengths(t) is lengths
        assert edge_lengths(TetAngles(*t.as_tuple())) == lengths
        assert len(computed) == 2 and computed[0] is t

    def test_raised_error_is_not_kept(self, computed, flipped_gram):
        t = TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                edge_lengths(t)
        assert computed == [t, t]

    def test_permute_under_relabel(self, generic):
        base = dict(zip(("A", "B", "C", "Ap", "Bp", "Cp"), edge_lengths(generic)))
        swapped = dict(
            zip(("A", "B", "C", "Ap", "Bp", "Cp"), edge_lengths(relabel(generic, SWAP_AB_PAIRS)))
        )
        assert swapped["A"] == pytest.approx(base["B"], abs=1e-12)
        assert swapped["B"] == pytest.approx(base["A"], abs=1e-12)
        assert swapped["Ap"] == pytest.approx(base["Bp"], abs=1e-12)
        assert swapped["C"] == pytest.approx(base["C"], abs=1e-12)


class TestRelabel:
    def test_identity(self, generic):
        assert relabel(generic, (0, 1, 2, 3)) == generic

    def test_pair_swap(self, generic):
        t = relabel(generic, SWAP_AB_PAIRS)
        A, B, C, Ap, Bp, Cp = generic.as_tuple()
        assert t.as_tuple() == (B, A, C, Bp, Ap, Cp)

    def test_twenty_four_distinct_actions(self, generic):
        images = {relabel(generic, s).as_tuple() for s in tetra_symmetries()}
        assert len(tetra_symmetries()) == 24
        assert len(images) == 24  # generic angles: all relabelings distinct

    def test_inverse(self, generic):
        for sigma in tetra_symmetries():
            inv = tuple(np.argsort(sigma))
            assert relabel(relabel(generic, sigma), inv) == generic

    def test_bad_sigma(self, generic):
        with pytest.raises(GeometryDomainError):
            relabel(generic, (0, 1, 2, 2))


class TestRelabelTableKeepsBits:
    """relabel, read from one permutation table, against the per-call dict
    construction it replaced."""

    EDGE_OF = {"A": (0, 1), "B": (0, 2), "C": (0, 3), "Ap": (2, 3), "Bp": (1, 3), "Cp": (1, 2)}

    @classmethod
    def dict_relabel(cls, t, sigma):
        sigma = tuple(sigma)
        if sorted(sigma) != [0, 1, 2, 3]:
            raise GeometryDomainError(f"not a vertex permutation: {sigma!r}")
        label_of_edge = {edge: name for name, edge in cls.EDGE_OF.items()}
        angles = dict(zip(("A", "B", "C", "Ap", "Bp", "Cp"), t.as_tuple()))
        new = {}
        for name, (i, j) in cls.EDGE_OF.items():
            new[name] = angles[label_of_edge[tuple(sorted((sigma[i], sigma[j])))]]
        return TetAngles(**new)

    def test_all_permutations(self, finite_batch):
        for t in finite_batch:
            for sigma in itertools.permutations(range(4)):
                got = relabel(t, sigma).as_tuple()
                want = self.dict_relabel(t, sigma).as_tuple()
                assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("sigma", [(0.0, 2.0, 1.0, 3.0), np.array([3, 1, 0, 2]), [1, 0, 3, 2],
                                       (False, True, 3, 2)])
    def test_same_accepted_inputs(self, generic, sigma):
        assert relabel(generic, sigma) == self.dict_relabel(generic, sigma)

    @pytest.mark.parametrize("sigma", [(0, 0, 1, 2), (0, 1, 2), (1, 2, 3, 4), ("0", "1", "2", "3")])
    def test_same_rejected_inputs(self, generic, sigma):
        for fn in (relabel, self.dict_relabel):
            with pytest.raises(GeometryDomainError):
                fn(generic, sigma)


def test_tetangles_validation():
    with pytest.raises(GeometryDomainError):
        TetAngles(float("nan"), 1, 1, 1, 1, 1)
    with pytest.raises(GeometryDomainError):
        TetAngles.of([1.0, 1.0])
    assert TetAngles.of([1, 1, 1, 1, 1, 1]).as_tuple() == (1.0,) * 6
