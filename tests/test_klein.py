import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from reggescissors import klein, octahedron, tetra
from reggescissors.exceptions import DegenerateSystemError, GeometryDomainError, NonUnitRootError, QuadratureError
from reggescissors.klein import (
    KleinTetra,
    dihedral_angles,
    klein_vertices,
    schlafli_residual,
    volume_numeric,
)
from reggescissors.lobachevsky import _lobachevsky_float, lobachevsky
from reggescissors.octahedron import (
    bar_solution,
    solve_holonomy,
    tet_volume,
    volume_remainder,
)
from reggescissors.scissors import decompose, regge
from reggescissors.tetra import (
    TetAngles,
    TetraKind,
    _finite_margin,
    classify,
    edge_lengths,
    gram_matrix,
    prism_volume,
)

from conftest import _perfbench_module, _stream_rows
from oracles import (
    _MAX_RAPIDITY,
    apply_isometry,
    lorentz_boost,
    murakami_yano_volume,
    three_quarter_volume_numeric,
)

PI = math.pi


class TestRealization:
    def test_round_trip(self, finite_batch):
        for t in finite_batch[:8]:
            kt = klein_vertices(t)
            back = dihedral_angles(kt)
            for a, b in zip(t.as_tuple(), back.as_tuple()):
                assert a == pytest.approx(b, abs=1e-10)

    def test_every_finite_uniform_draw_realizes(self):
        # a negative edge cofactor (two vertices on opposite sheets) is
        # Invalid, so every Finite verdict is a tetrahedron: its Klein
        # realization gives the angles back and its edge lengths are finite
        rng = np.random.default_rng(0)
        finite = [t for t in map(TetAngles.of, rng.uniform(0.01, 3.1, (20_000, 6)))
                  if classify(t).kind is TetraKind.FINITE]
        assert len(finite) >= 10
        for t in finite:
            back = dihedral_angles(klein_vertices(t)).as_tuple()
            assert max(abs(a - b) for a, b in zip(t.as_tuple(), back)) < 1e-8, t
            assert all(math.isfinite(x) for x in edge_lengths(t)), t

    def test_centred_gauge(self, finite_batch, generic):
        for t in [generic, *finite_batch[:8]]:
            v = klein_vertices(t).vertices
            total = klein._hyperboloid_lift(v).sum(axis=0)
            assert np.linalg.norm(total[:3]) <= 1e-12 * total[3]   # barycentre over the origin
            assert np.array_equal(klein_vertices(t).vertices, v)     # deterministic, bit for bit
            back = dihedral_angles(KleinTetra(v))
            assert max(abs(a - b) for a, b in zip(t.as_tuple(), back.as_tuple())) < 1e-10

    def test_vertices_inside_ball(self, finite_batch):
        for t in finite_batch[:8]:
            assert np.all(np.linalg.norm(klein_vertices(t).vertices, axis=1) < 1.0)

    def test_equiangular_is_regular(self, equiangular):
        # all six hyperbolic edge lengths computed from coordinates agree
        v = klein_vertices(equiangular).vertices
        norms = 1.0 - np.sum(v**2, axis=1)
        dists = []
        for i in range(4):
            for j in range(i + 1, 4):
                cosh_d = (1.0 - v[i] @ v[j]) / math.sqrt(norms[i] * norms[j])
                dists.append(math.acosh(cosh_d))
        assert np.max(dists) - np.min(dists) < 1e-10
        assert dists[0] == pytest.approx(edge_lengths(equiangular)[0], abs=1e-9)

    def test_ideal_input_rejected(self):
        with pytest.raises(GeometryDomainError):
            klein_vertices(TetAngles(*(PI / 3,) * 6))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2)])
    @pytest.mark.parametrize("call", [
        volume_numeric,
        dihedral_angles,
        lambda kt: apply_isometry(kt, np.eye(4)),
    ], ids=["volume_numeric", "dihedral_angles", "apply_isometry"])
    def test_rejects_vertices_not_four_by_three(self, shape, call):
        verts = 0.1 * np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / np.prod(shape)
        with pytest.raises(GeometryDomainError) as exc:
            call(KleinTetra(verts))
        assert str(exc.value) == f"vertices must have shape (4, 3), got {shape}"

    @pytest.mark.parametrize("verts", [
        [[0.0, 0, 0], [1.2, 0, 0], [0, 0.5, 0], [0, 0, 0.5]],
        [[0.0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, math.nan]],
    ], ids=["outside", "nan"])
    @pytest.mark.parametrize("call", [volume_numeric, dihedral_angles], ids=["volume_numeric", "dihedral_angles"])
    def test_rejects_vertices_not_strictly_inside_the_ball(self, verts, call):
        # no RuntimeWarning from the hyperboloid lift, and no LinAlgError from the SVD
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryDomainError, match="^vertices must lie strictly inside the unit ball$"):
                call(KleinTetra(np.array(verts)))

    def test_realization_makes_two_svd_calls(self, generic, monkeypatch):
        # one stacked SVD of the four 3x4 systems for the vertices, and one
        # for the face normals of the round trip
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
        klein_vertices(generic)
        assert shapes == [(4, 3, 4), (4, 3, 4)]


class TestLorentzBoost:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_is_the_coordinate_boost(self, axis):
        L = lorentz_boost(0.3, axis)
        c, s = math.cosh(0.3), math.sinh(0.3)
        expected = np.eye(4)
        expected[axis, axis] = expected[3, 3] = c
        expected[axis, 3] = expected[3, axis] = s
        assert np.allclose(L, expected, rtol=0, atol=1e-15)
        assert np.allclose(L @ lorentz_boost(-0.3, axis), np.eye(4), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rapidity", [1000.0, -1000.0, 400.0, math.nan, math.inf, -math.inf])
    def test_rejects_rapidity_without_finite_boost(self, rapidity):
        with pytest.raises(GeometryDomainError, match="rapidity must be finite"):
            lorentz_boost(rapidity)

    def test_largest_rapidity_gives_finite_matrix(self):
        assert np.all(np.isfinite(lorentz_boost(_MAX_RAPIDITY)))


class TestVolumeNumeric:
    def test_matches_formula(self, finite_batch):
        for t in finite_batch[:5]:
            kt = klein_vertices(t)
            assert volume_numeric(kt, 1e-6) == pytest.approx(tet_volume(t), abs=1e-5)

    def test_tiny_tetra_is_euclidean(self):
        # near the origin the metric factor 1/(1-r^2)^2 is 1 + O(r^2)
        verts = 1e-3 * np.array(
            [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        euclid = abs(np.linalg.det(verts[1:] - verts[0])) / 6
        v = volume_numeric(KleinTetra(verts), 1e-15)
        assert v == pytest.approx(euclid, rel=1e-5)

    def test_isometry_invariance(self, generic):
        kt = klein_vertices(generic)
        moved = apply_isometry(kt, lorentz_boost(0.3, axis=0))
        assert not np.allclose(moved.vertices, kt.vertices)
        assert volume_numeric(moved, 1e-7) == pytest.approx(
            volume_numeric(kt, 1e-7), abs=1e-6
        )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_far_boost_matches_formula(self, generic, axis):
        # rapidity 2 carries the realization off the origin, out to Klein
        # radius 0.985-0.988, so the cones from the origin carry both signs
        moved = apply_isometry(klein_vertices(generic), lorentz_boost(2.0, axis))
        assert not _origin_inside(moved.vertices)
        assert abs(volume_numeric(moved, 1e-7) - tet_volume(generic)) <= 1e-7

    def test_slivers_on_their_own_vertices(self):
        # the 23 inputs among the first 360 of the `oracle` stream, seeds 1-5,
        # that classify calls non-Finite, on the stream's vertices, which are
        # not centred: the origin lies outside every one of them
        inputs = _perfbench_module("inputs")
        rows = [(a, v) for seed in range(1, 6) for a, v in zip(*inputs.TetStream(seed, 2, 0.9).take(360))
                if classify(TetAngles.of(a)).kind is not TetraKind.FINITE]
        assert len(rows) == 23
        for a, v in rows:
            assert not _origin_inside(v)
            assert abs(volume_numeric(KleinTetra(v), 1e-10) - murakami_yano_volume(TetAngles.of(a))) <= 1e-11, a

    def test_rule_is_numpys_gauss_legendre(self):
        # klein writes the rule as literals so that it loads no numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert [x.hex() for x in klein._glx.tolist()] == [x.hex() for x in nodes.tolist()]
        assert [w.hex() for w in klein._glw.tolist()] == [w.hex() for w in weights.tolist()]

    def test_radial_factor_matches_mpmath(self):
        # rho(R^2) = int_0^R r^2 / (1 - r^2)^2 dr / R^3 for R in [0, 0.95],
        # dense on both sides of the switch to the series at R = 0.05; the
        # closed form loses about 1.5 / R^2 ulps to cancellation, 600 at the
        # switch, and the series keeps its last bit
        R = np.concatenate([[0.0], np.linspace(0.0, 0.95, 96)[1:], 0.05 * (1 + np.linspace(-0.2, 0.2, 41))])
        r2 = R * R
        got = klein._rho(r2)
        with mp.workdps(30):
            for x, g in zip(r2, got):
                r = mp.sqrt(mp.mpf(x))
                ref = mp.mpf(1) / 3 if x == 0 else mp.quad(lambda s: s**2 / (1 - s**2) ** 2, [0, r]) / r**3
                assert abs(g - ref) <= (4e-16 if x < klein._SERIES_BELOW else 5e-13) * ref, (x, g)

    @pytest.mark.parametrize("low,high", [(0.0025, 0.9), (0.0, 0.01), (0.0, 0.0025)], ids=["none", "some", "all"])
    def test_radial_series_only_where_it_applies(self, low, high):
        # the bits of the series on every point and a choice by np.where, on
        # arrays with none, some and all of their points below the switch
        r2 = np.random.default_rng(9).uniform(low, high, (64, 16))
        below = r2 < klein._SERIES_BELOW
        assert below.any() == (low == 0.0) and below.all() == (high == klein._SERIES_BELOW)
        big = np.maximum(r2, klein._SERIES_BELOW)
        R = np.sqrt(big)
        closed = (R / (2 * (1 - big)) - np.arctanh(R) / 2) / (big * R)
        expected = np.where(below, np.polyval(klein._SERIES, r2), closed)
        assert klein._rho(r2).tobytes() == expected.tobytes()

    def test_regge_invariance_certified_without_formulas(self, finite_batch):
        # volume equality of T and R_b(T) checked by quadrature alone
        for t in finite_batch[:3]:
            v1 = volume_numeric(klein_vertices(t), 1e-6)
            v2 = volume_numeric(klein_vertices(regge(t, "b")), 1e-6)
            assert abs(v1 - v2) < 2e-5

    def test_oracle_stream_inputs_within_tol(self):
        # inputs 1:70, 2:0 and 3:56 of the benchmark's `oracle` stream (first
        # 71 of seeds 1-3); a quadrature that stopped on the whole
        # tetrahedron's own estimate missed the volume there by 2.5e-6 to 3.5e-6
        rows = _stream_rows(2, 0.9, 71)
        for row in (rows[70], rows[71 + 0], rows[142 + 56]):
            t = TetAngles(*row)
            assert abs(volume_numeric(klein_vertices(t), 1e-6) - murakami_yano_volume(t)) <= 1e-6, row

    @pytest.mark.kernel_independent
    def test_close_to_murakami_yano(self, finite_batch, generic, equiangular):
        # the fixtures and the first 20 Finite inputs of the `oracle` stream
        # for seed 1, against the 40-digit Murakami-Yano volume: at tol 1e-6
        # the 12-point rule on the four faces lands far inside tol
        rows = [t for t in map(TetAngles.of, _stream_rows(2, 0.9, 25)[:25])
                if classify(t).kind is TetraKind.FINITE][:20]
        angles = [generic, equiangular, *finite_batch, *rows]
        errors = [abs(volume_numeric(klein_vertices(t), 1e-6) - murakami_yano_volume(t)) for t in angles]
        assert len(rows) == 20
        assert np.median(errors) <= 1e-12 and max(errors) <= 1e-9

    def test_budget_exhaustion_reports_achievement(self, generic, monkeypatch):
        kt = klein_vertices(generic)
        monkeypatch.setattr(klein, "MAX_LEAVES", 8)
        with pytest.raises(QuadratureError) as exc:
            volume_numeric(kt, _BELOW_ROUNDING)
        assert exc.value.achieved > 0

    def test_rejects_outside_ball(self):
        verts = np.array([[0.0, 0, 0], [1.2, 0, 0], [0, 0.5, 0], [0, 0, 0.5]])
        with pytest.raises(GeometryDomainError):
            volume_numeric(KleinTetra(verts), 1e-6)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1e-6])
    def test_rejects_tol_outside_positive_finite(self, generic, tol):
        with pytest.raises(GeometryDomainError, match="tol must be positive and finite"):
            volume_numeric(klein_vertices(generic), tol)

    def test_rejects_nan_vertex(self):
        verts = np.array([[0.0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, math.nan]])
        with pytest.raises(GeometryDomainError):
            volume_numeric(KleinTetra(verts), 1e-6)

    def test_non_lorentz_matrix_rejected(self, generic):
        kt = klein_vertices(generic)
        with pytest.raises(GeometryDomainError):
            apply_isometry(kt, np.eye(4) * 2)

    @pytest.mark.parametrize("L", [np.full((4, 4), math.nan), np.diag([math.inf, 1, 1, math.inf])],
                             ids=["nan", "infinite-boost"])
    def test_non_finite_matrix_rejected(self, generic, L):
        with pytest.raises(GeometryDomainError, match="not a Lorentz isometry"):
            apply_isometry(klein_vertices(generic), L)


#: A tol below the rounding floor of the leaves' estimates: every budget runs out.
_BELOW_ROUNDING = 1e-18


def _origin_inside(verts):
    """Whether the origin is a positive combination of the four vertices."""
    return bool(np.all(np.linalg.solve(np.vstack([np.transpose(verts), np.ones(4)]), [0, 0, 0, 1]) > 0))


# --- quadrature references ---------------------------------------------------
# The face rule and the 4-way split written out one triangle at a time; the
# batched code must reproduce their bits.


def _ref_rule_batch(tris):
    a = tris[:, 0, :]
    edges = tris[:, 1:, :] - a[:, None, :]
    pts = a[:, None, :] + np.einsum("nk,mkd->mnd", np.stack([klein._B1, klein._B2], axis=1), edges)
    r2 = np.sum(pts**2, axis=2)
    return np.linalg.det(tris) * (klein._rho(r2) @ klein._RULE_WTS)


def _ref_split4(v):
    m01, m02, m12 = (v[0] + v[1]) / 2, (v[0] + v[2]) / 2, (v[1] + v[2]) / 2
    return np.array([[v[0], m01, m02], [m01, v[1], m12], [m02, m12, v[2]], [m02, m01, m12]])


def _ref_volume_numeric(kt, tol, max_leaves):
    """volume_numeric's pass rule written out one leaf at a time, as the
    outcome _outcome gives: each leaf is (its children, their rule values,
    its estimate), and a pass splits its leaves one after another, worst
    first, each split leaf's first child in its slot and the rest appended."""
    def leaf(tri, value):
        kids = _ref_split4(tri)
        fine = _ref_rule_batch(kids)
        return kids, fine, abs(value - fine.sum())

    verts = np.asarray(kt.vertices, dtype=float)
    tris = verts[klein._FACES]
    leaves = [leaf(tri, value) for tri, value in zip(tris, _ref_rule_batch(tris))]
    while (total := float(np.array([err for _, _, err in leaves]).sum())) >= tol / 2:
        if len(leaves) + 3 > max_leaves:
            return ("error", f"volume quadrature: refinement budget exhausted, achieved {total:.3e}", total.hex())
        worst = sorted(range(len(leaves)), key=lambda i: -leaves[i][2])
        rest, left = 0.0, []  # the estimates left on the leaves after the worst m, m = n - 1 .. 0
        for i in reversed(worst):
            rest += leaves[i][2]
            left.append(rest)
        count = sum(r > tol / 4 for r in left)
        for i in worst[:min(count, (max_leaves - len(leaves)) // 3)]:
            kids, fine, _ = leaves[i]
            first, *others = (leaf(kids[c], fine[c]) for c in range(4))
            leaves[i] = first
            leaves.extend(others)
    sign = np.sign(np.linalg.det(verts[1:] - verts[0]))
    return ("volume", float(sign * np.array([fine for _, fine, _ in leaves]).sum()).hex())


def _outcome(kt, tol):
    """float.hex of the volume, or the QuadratureError text and achieved."""
    try:
        return ("volume", volume_numeric(kt, tol).hex())
    except QuadratureError as exc:
        return ("error", str(exc), exc.achieved.hex())


def _digest(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _volume_outcome(kt, t, tol):
    """_outcome of a volume that lies within tol of the formula volume of t."""
    outcome = _outcome(kt, tol)
    assert outcome[0] == "volume" and abs(float.fromhex(outcome[1]) - tet_volume(t)) <= tol, (outcome, t)
    return outcome


def _klein_uniform_angles(n, rmax=0.9, seed=20260):
    """n Finite tetrahedra with vertices uniform in the Klein ball of radius
    rmax."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        direction = rng.normal(size=(4, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        verts = direction * rmax * rng.uniform(size=(4, 1)) ** (1 / 3)
        t = dihedral_angles(KleinTetra(verts))
        if classify(t).kind is TetraKind.FINITE:
            out.append(t)
    return out


class TestBatchedQuadratureMatchesReference:
    """The quadrature's outcomes, frozen as one sha256 over their float.hex
    per test, and the face rule and 4-way split against their references."""

    @pytest.fixture(scope="class")
    def uniform(self):
        angles = _klein_uniform_angles(60)
        return angles, [klein_vertices(t) for t in angles]

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_klein_uniform(self, uniform, tol):
        # no input here takes a pass at 1e-6 (nor at 1e-7); 45 of the 60 take
        # one or two at 1e-12
        outcomes = [_volume_outcome(kt, t, tol) for t, kt in zip(*uniform)]
        assert _digest(outcomes) == {1e-6: "3f462309ea058c381d3255dda4f0677f6b71d135729a127937236aa40d8daf73",
                                     1e-12: "3b2a22a06023440aebeabd15326f0c2435b42fbfde412220622f19a5cd83cf95"}[tol]

    def test_fixtures(self, finite_batch, generic, equiangular):
        tiny = KleinTetra(1e-3 * np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        angles = [generic, equiangular, *finite_batch[:5], generic, dihedral_angles(tiny)]
        kts = [klein_vertices(t) for t in angles[:-2]]
        kts += [apply_isometry(kts[0], lorentz_boost(0.3, axis=0)), tiny]
        outcomes = [_volume_outcome(kt, t, tol) for tol in (1e-6, 1e-7) for kt, t in zip(kts, angles)]
        outcomes.append(_volume_outcome(tiny, angles[-1], 1e-15))
        assert _digest(outcomes) == "a57bc199c5eeb6a36d8bdfa4b6555bef4a40232aba1aa25d60714a878690a7e8"

    @pytest.mark.parametrize("max_leaves", [8, 40])
    def test_budget_exhaustion(self, uniform, generic, max_leaves, monkeypatch):
        monkeypatch.setattr(klein, "MAX_LEAVES", max_leaves)
        outcomes = [_outcome(kt, _BELOW_ROUNDING) for kt in [klein_vertices(generic), *uniform[1][:10]]]
        assert all(kind == "error" and float.fromhex(achieved) > 0 for kind, _, achieved in outcomes)
        assert _digest(outcomes) == {8: "781a3ca53a93715288d784458d8b1c404130314a4a28cb48dfb758c5683941d5",
                                     40: "32540f111d7a74a1f9ca91ec00874e69537f0b808b647569a3b882d64f50c756"}[max_leaves]

    @pytest.mark.kernel_independent
    @pytest.mark.parametrize("tol,max_leaves", [(1e-6, 60000), (1e-7, 60000), (1e-12, 60000),
                                                (_BELOW_ROUNDING, 8), (_BELOW_ROUNDING, 40), (_BELOW_ROUNDING, 100)])
    def test_passes_keep_the_bits_of_one_leaf_at_a_time(self, uniform, generic, tol, max_leaves, monkeypatch):
        monkeypatch.setattr(klein, "MAX_LEAVES", max_leaves)
        for kt in [klein_vertices(generic), *uniform[1][:20 if max_leaves > 100 else 10]]:
            assert _outcome(kt, tol) == _ref_volume_numeric(kt, tol, max_leaves)

    @pytest.fixture
    def leaf_count(self, monkeypatch):
        """The number of leaves volume_numeric has made so far: the four
        faces, then 3 more per split leaf (4 triangles to a _leaves row)."""
        sizes = []
        leaves = klein._leaves
        monkeypatch.setattr(klein, "_leaves", lambda tris, values: sizes.append(len(tris)) or leaves(tris, values))
        return lambda: sizes[0] + 3 * sum(sizes[1:]) // 4

    @pytest.mark.parametrize("max_leaves", range(4, 41))
    def test_leaves_fill_the_budget_before_the_error(self, generic, leaf_count, max_leaves, monkeypatch):
        # a pass never takes the leaves past MAX_LEAVES, and the error comes
        # only once not even one more split fits
        monkeypatch.setattr(klein, "MAX_LEAVES", max_leaves)
        with pytest.raises(QuadratureError):
            volume_numeric(klein_vertices(generic), _BELOW_ROUNDING)
        assert max_leaves - 3 < leaf_count() <= max_leaves

    def test_a_budget_of_the_leaves_used_is_enough(self, uniform, leaf_count, monkeypatch):
        # at 1e-12 this input splits more than four leaves in two passes; a
        # budget of exactly the leaves an unbounded run makes caps no pass, so
        # the bits hold
        kt = uniform[1][8]
        volume = volume_numeric(kt, 1e-12)
        used = leaf_count()
        monkeypatch.setattr(klein, "MAX_LEAVES", used)
        assert used > 4 + 3 * 4 and volume_numeric(kt, 1e-12).hex() == volume.hex()

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_one_rule_batch_per_pass_and_one_for_the_start(self, uniform, generic, tol, monkeypatch):
        # the four faces and their 16 children share the first batch; each
        # pass is one _leaves call on the split leaves and their values.  At
        # 1e-6 no input here takes a pass; at 1e-9 none takes more than one,
        # so the other leg runs at 1e-12
        batches, passes = [], []
        rule_batch, leaves = klein._rule_batch, klein._leaves
        monkeypatch.setattr(klein, "_rule_batch", lambda tris: batches.append(len(tris)) or rule_batch(tris))
        monkeypatch.setattr(klein, "_leaves",
                            lambda tris, values: passes.append(values is not None) or leaves(tris, values))
        counts = []
        for kt in [klein_vertices(generic), *uniform[1][:10]]:
            batches.clear()
            passes.clear()
            volume_numeric(kt, tol)
            assert batches[0] == 20 and not passes[0] and len(batches) == len(passes) == sum(passes) + 1
            counts.append(sum(passes))
        assert max(counts) == 0 if tol == 1e-6 else max(counts) >= 2

    @pytest.mark.kernel_independent
    def test_rule_batches_stay_within_their_bound(self, uniform, generic, monkeypatch):
        # with the bound patched to 8 triangles, the first batch and every
        # pass that splits more than two leaves go to several rule batches;
        # none is larger, and every outcome keeps its bits
        cases = [(kt, tol) for kt in [klein_vertices(generic), *uniform[1][:10]] for tol in (1e-6, 1e-12)]
        monkeypatch.setattr(klein, "MAX_LEAVES", 400)
        cases += [(kt, _BELOW_ROUNDING) for kt in uniform[1][:3]]
        expected = [_outcome(kt, tol) for kt, tol in cases]
        batches, passes = [], []
        rule_batch, leaves = klein._rule_batch, klein._leaves
        monkeypatch.setattr(klein, "_rule_batch", lambda tris: batches.append(len(tris)) or rule_batch(tris))
        monkeypatch.setattr(klein, "_leaves", lambda tris, values: passes.append(len(tris)) or leaves(tris, values))
        monkeypatch.setattr(klein, "RULE_BATCH", 8)
        assert [_outcome(kt, tol) for kt, tol in cases] == expected
        assert max(batches) == 8 and len(batches) > 3 * len(passes)
        assert max(passes) > 100

    @pytest.mark.kernel_independent
    def test_rule_bits_do_not_depend_on_batch_size(self):
        rng = np.random.default_rng(7)
        tris = rng.uniform(-0.55, 0.55, size=(64, 3, 3))
        whole = klein._rule_batch(tris)
        assert np.array_equal(whole, np.concatenate([_ref_rule_batch(tris[i : i + 4]) for i in range(0, 64, 4)]))
        assert np.array_equal(klein._rule_batch(tris[:1]), _ref_rule_batch(tris[:1]))

    @pytest.mark.kernel_independent
    def test_split4_matches_reference(self):
        rng = np.random.default_rng(8)
        tris = rng.uniform(-0.55, 0.55, size=(5, 3, 3))
        batched = klein._split4(tris)
        for k in range(5):
            assert np.array_equal(batched[k], _ref_split4(tris[k]))
            assert np.all(np.sign(np.linalg.det(batched[k])) == np.sign(np.linalg.det(tris[k])))


def _ref_slot_sum(bars, Z):
    """Reference slot sum: the eight terms bar +- Z added in SLOT_ORDER,
    written out without octahedron.slots."""
    total = 0.0
    for k, bar in enumerate(bars):
        total += lobachevsky(bar + (-Z if k % 2 else Z))
    return total


class TestSolvedRecordMatchesReference:
    """tet_volume and the decompose raw angles, read from the record that
    solve_holonomy keeps, against the expressions that computed them afresh."""

    def check(self, t):
        bars = bar_solution(t)
        roots = solve_holonomy(t)
        for root, Z in (("minus", roots.Z_minus), ("plus", roots.Z_plus)):
            assert tet_volume(t, root).hex() == (_ref_slot_sum(bars, Z) + volume_remainder(t)).hex()
        signs = [1.0, -1.0] * 4
        raw = [bar + k * roots.Z_minus for bar, k in zip(bars, signs)]
        raw += [-(bar + k * roots.Z_plus) for bar, k in zip(bars, signs)]
        assert [x.hex() for x in decompose(t).raw_angles] == [x.hex() for x in raw]

    def test_finite_batch(self, finite_batch):
        for t in finite_batch:
            self.check(t)

    def test_klein_uniform(self):
        for t in _klein_uniform_angles(50, rmax=0.998):
            self.check(t)


class TestSchlafli:
    def test_equiangular_residuals_equal(self, equiangular):
        res = schlafli_residual(equiangular, 1e-5)
        assert np.max(res) - np.min(res) < 1e-9

    def test_random_relative_residuals(self, finite_batch):
        for t in finite_batch[:5]:
            res = schlafli_residual(t, 1e-5)
            halves = np.array(edge_lengths(t)) / 2
            assert np.max(res / halves) < 1e-3

    def test_second_order_scaling(self, generic):
        # central differences: halving h should shrink the residual ~4x;
        # allow slack for the 1e-12 rounding floor of the volume evaluation
        r1 = np.max(schlafli_residual(generic, 8e-4))
        r2 = np.max(schlafli_residual(generic, 4e-4))
        assert r2 < r1 / 2

    def test_step_validation(self, generic):
        with pytest.raises(GeometryDomainError):
            schlafli_residual(generic, 1e-2)

    def test_requires_finite(self):
        with pytest.raises(GeometryDomainError):
            schlafli_residual(TetAngles(*(1.0,) * 6), 1e-5)

    def test_retry_at_a_tenth_of_h(self):
        # Finite, but within 1e-5 of the ideal equiangular pi/3: the step h
        # leaves the Finite class and the retry at h / 10 does not
        t = TetAngles(*(math.pi / 3 + 2e-6,) * 6)
        assert classify(t).kind is TetraKind.FINITE
        assert classify(TetAngles.of(np.array(t.as_tuple()) - 1e-5)).kind is not TetraKind.FINITE
        # the retry step is 1e-5 / 10, which is 1.0000000000000002e-06, not 1e-6
        res = schlafli_residual(t, 1e-5)
        assert res.tobytes() == schlafli_residual(t, 1e-5 / 10).tobytes()

    @pytest.fixture(scope="class")
    def stencil_inputs(self, slivers):
        """The first 240 inputs of the `oracle` stream for seed 1, the input
        whose step is retried at h / 10, the `oracle` slivers 2:215, 2:262,
        4:14 and 10:231 and five `formula` slivers."""
        stream = _perfbench_module("inputs").TetStream
        angles, _ = stream(1, 2, 0.9).take(240)
        inputs = [tuple(a.tolist()) for a in angles] + [(math.pi / 3 + 2e-6,) * 6]
        return inputs + [tuple(stream(seed, 2, 0.9).take(k + 1)[0][k].tolist())
                         for seed, k in ((2, 215), (2, 262), (4, 14), (10, 231))] + slivers[:5]

    @pytest.mark.kernel_independent
    def test_keeps_the_bits_of_array_steps(self, stencil_inputs):
        # the reference classifies and assembles every step afresh, so it pins
        # the certified steps and the classified ones alike (classify calls
        # the slivers Ideal, so both raise on them until it calls them Finite)
        margins = [_finite_margin(TetAngles(*row)) for row in stencil_inputs]
        assert sum(m > 2e-5 for m in margins) > 60 and sum(0 < m <= 2e-5 for m in margins) > 10
        for row in stencil_inputs:
            got, expected = (_schlafli_outcome(f, TetAngles(*row)) for f in (schlafli_residual, _ref_schlafli_residual))
            assert got == expected, row

    @pytest.mark.kernel_independent
    @pytest.mark.parametrize("name,value,error", [("UNIT_ROOT_TOL", -1.0, NonUnitRootError),
                                                  ("_remainder_sum", lambda values: -10.0, DegenerateSystemError)],
                             ids=["unit_root", "negative_volume"])
    def test_a_step_keeps_every_gate(self, stencil_inputs, monkeypatch, name, value, error):
        # with no unit defect tolerated, every step's roots are off the unit
        # circle; with a remainder of -10, every step's volume is negative:
        # certified and classified steps alike raise, as the reference's
        # fresh instances do, and the sources that are not Finite still
        # raise on their class
        monkeypatch.setattr(octahedron, name, value)
        for row in stencil_inputs:
            got, expected = (_schlafli_outcome(f, TetAngles(*row)) for f in (schlafli_residual, _ref_schlafli_residual))
            finite = classify(TetAngles(*row)).kind is TetraKind.FINITE
            assert got == expected == (error if finite else GeometryDomainError).__name__, row

    def test_retry_that_still_leaves_finite_raises(self):
        t = TetAngles(*(math.pi / 3 + 2e-7,) * 6)
        assert classify(t).kind is TetraKind.FINITE
        with pytest.raises(GeometryDomainError, match="even after shrinking h"):
            schlafli_residual(t, 1e-5)


@pytest.mark.kernel_independent
def test_an_oracle_op_evaluates_its_source_class_numbers_once(monkeypatch):
    # the benchmark's oracle op on the first 40 inputs of the `oracle` stream
    # for seeds 1-3: classify (through klein_vertices) and the Schlafli
    # stencil's margin read one evaluation of the source's three class
    # numbers, and a source whose steps are certified evaluates no other:
    # its four link cofactors, which the margin reads from that evaluation
    evaluated, links = [], []
    evaluate, link_cofactor = tetra._class_numbers, tetra._link_cofactor
    monkeypatch.setattr(tetra, "_class_numbers", lambda t: evaluated.append(t.as_tuple()) or evaluate(t))
    monkeypatch.setattr(tetra, "_link_cofactor", lambda *x: links.append(x) or link_cofactor(*x))
    oracle = _perfbench_module("ops").oracle
    certified = 0
    for row in _stream_rows(2, 0.9, 40):
        evaluated.clear()
        links.clear()
        oracle(np.array(row))
        seen, seen_links = list(evaluated), len(links)
        assert seen.count(row) == 1, row
        t = TetAngles(*row)
        if classify(t).kind is TetraKind.FINITE and 2 * klein.SCHLAFLI_STEP < _finite_margin(t):
            certified += 1
            assert seen == [row] and seen_links == 4, row
    assert certified > 60


@pytest.mark.kernel_independent
def test_a_volume_then_its_stencil_evaluate_the_remainder_once(monkeypatch):
    # tet_volume(t) then schlafli_residual(t), as the oracle command and the
    # suite's Schlafli criterion call them, on the Finite inputs among the
    # first 15 of the `oracle` stream for seeds 1-3: each of t's 16
    # remainder arguments is evaluated as often as it occurs among them, once
    evaluated = []
    monkeypatch.setattr(octahedron, "_lobachevsky_float", lambda x: evaluated.append(x) or _lobachevsky_float(x))
    sources = [TetAngles(*row) for row in _stream_rows(2, 0.9, 15)]
    sources = [t for t in sources if classify(t).kind is TetraKind.FINITE]
    assert len(sources) > 40
    for t in sources:
        evaluated.clear()
        tet_volume(t)
        schlafli_residual(t)
        args = octahedron._remainder_args(*t.as_tuple())
        assert [evaluated.count(a) for a in args] == [args.count(a) for a in args], t


def _ref_schlafli_residual(t, h):
    """schlafli_residual with each step taken on a numpy copy of the angles,
    as it was written before it stepped Python floats."""
    if not 1e-7 <= h <= 1e-3:
        raise GeometryDomainError("h must lie in [1e-7, 1e-3]")
    if classify(t).kind is not TetraKind.FINITE:
        raise GeometryDomainError("not Finite")

    def try_residuals(step):
        base = np.array(t.as_tuple())
        lengths = edge_lengths(t)
        out = np.empty(6)
        for i in range(6):
            up, dn = base.copy(), base.copy()
            up[i] += step
            dn[i] -= step
            tu, td = TetAngles.of(up), TetAngles.of(dn)
            if classify(tu).kind is not TetraKind.FINITE or classify(td).kind is not TetraKind.FINITE:
                return None
            out[i] = abs((tet_volume(tu) - tet_volume(td)) / (2 * step) + lengths[i] / 2)
        return out

    res = try_residuals(h)
    if res is None:
        res = try_residuals(h / 10)
    if res is None:
        raise GeometryDomainError("perturbation leaves the Finite class even after shrinking h")
    return res


def _schlafli_outcome(residual, t, h=1e-5):
    """The bytes of residual(t, h), or the name of the package error it raises."""
    try:
        return residual(t, h).tobytes()
    except (GeometryDomainError, ArithmeticError) as error:
        return type(error).__name__


class TestThreeQuarterOracle:
    @pytest.mark.parametrize("abc", [(2.0, 0.8, 0.9), (1.2, 1.2, 1.2), (1.5, 1.0, 0.9)])
    def test_matches_formula(self, abc):
        # the 3/4-ideal tetrahedron is half the doubled solid over its apex
        assert three_quarter_volume_numeric(*abc) == pytest.approx(
            prism_volume(*abc) / 2, abs=1e-5
        )

    def test_rejects_ideal_apex(self):
        with pytest.raises(GeometryDomainError):
            three_quarter_volume_numeric(1.0, 1.0, 1.0)


def _ref_face_normals(lift):
    """_face_normals as written before the Minkowski complement had its own
    helper: the reference its bits must match."""
    normals = []
    for i in range(4):
        others = [j for j in range(4) if j != i]
        system = (klein._MINK @ lift[others].T).T
        _, _, vt = np.linalg.svd(system)
        n = vt[-1]
        norm2 = n @ klein._MINK @ n
        if norm2 <= 0:
            raise GeometryDomainError("degenerate face: normal is not spacelike")
        n = n / math.sqrt(norm2)
        if n @ klein._MINK @ lift[i] > 0:
            n = -n
        normals.append(n)
    return np.array(normals)


def _ref_gram_vertices(G):
    """_gram_vertices as written before the helper, likewise."""
    lam, P = np.linalg.eigh(G)
    order = [1, 2, 3, 0]
    lam, P = lam[order], P[:, order]
    normals = np.diag(np.sqrt(np.abs(lam))) @ P.T
    verts = []
    for k in range(4):
        others = [i for i in range(4) if i != k]
        _, _, vt = np.linalg.svd((klein._MINK @ normals[:, others]).T)
        v = vt[-1]
        verts.append(-v if v[3] < 0 else v)
    return np.array(verts)


def _ref_dihedral_angles(kt):
    normals = _ref_face_normals(klein._hyperboloid_lift(np.asarray(kt.vertices, dtype=float)))

    def ang(i, j):
        c = -(normals[i] @ klein._MINK @ normals[j])
        return math.acos(max(-1.0, min(1.0, c)))

    return TetAngles(**{name: ang(k, l) for name, (k, l) in klein._FACES_OF.items()})


def _benchmark_stream(seed, count, rmax=0.998):
    """The first `count` (angles, vertices) of the benchmark's `formula`
    input stream (stream 1, Klein radius <= 0.998) for `seed`."""
    return _perfbench_module("inputs").TetStream(seed, 1, rmax).take(count)


def _hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.kernel_independent
class TestMinkowskiComplementKeepsBits:
    """Both realizations share one complement helper; their bits are those
    of the two loops it replaced."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_stream(self, seed):
        angles, verts = _benchmark_stream(seed, 400)
        for a, v in zip(angles, verts):
            kt = KleinTetra(v)
            assert _hexes(dihedral_angles(kt).as_tuple()) == _hexes(_ref_dihedral_angles(kt).as_tuple())
            G = gram_matrix(TetAngles.of(a))
            assert _hexes(klein._gram_vertices(G)) == _hexes(_ref_gram_vertices(G))

    def test_realizations(self, finite_batch):
        for t in finite_batch:
            kt = klein_vertices(t)
            assert _hexes(dihedral_angles(kt).as_tuple()) == _hexes(_ref_dihedral_angles(kt).as_tuple())
