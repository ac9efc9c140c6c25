import heapq
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from reggescissors import klein
from reggescissors.exceptions import GeometryDomainError, QuadratureError
from reggescissors.klein import (
    KleinTetra,
    dihedral_angles,
    klein_vertices,
    schlafli_residual,
    volume_numeric,
)
from reggescissors.lobachevsky import lobachevsky
from reggescissors.octahedron import (
    bar_solution,
    solve_holonomy,
    tet_volume,
    volume_remainder,
)
from reggescissors.scissors import decompose, regge
from reggescissors.tetra import TetAngles, TetraKind, classify, edge_lengths, gram_matrix, prism_volume

from oracles import _MAX_RAPIDITY, apply_isometry, lorentz_boost, three_quarter_volume_numeric

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

    def test_regge_invariance_certified_without_formulas(self, finite_batch):
        # volume equality of T and R_b(T) checked by quadrature alone
        for t in finite_batch[:3]:
            v1 = volume_numeric(klein_vertices(t), 1e-6)
            v2 = volume_numeric(klein_vertices(regge(t, "b")), 1e-6)
            assert abs(v1 - v2) < 2e-5

    def test_budget_exhaustion_reports_achievement(self, generic):
        kt = klein_vertices(generic)
        with pytest.raises(QuadratureError) as exc:
            volume_numeric(kt, 1e-14, max_refine=8)
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


# --- one-leaf-at-a-time reference quadrature --------------------------------
# The adaptive quadrature as it was before children were refined in batches:
# one _split8 and one 8-tetrahedron rule per pushed leaf, and the stopping
# total re-added in float over the whole heap at every step.  The batched
# code stops on the exact total instead, which decides the same way unless
# the float sum rounds across tol/2; on these inputs it must reproduce the
# reference bit for bit.


def _ref_rule_batch(verts):
    v0 = verts[:, 0, :]
    edges = verts[:, 1:, :] - v0[:, None, :]
    det = np.abs(np.linalg.det(edges))
    pts = v0[:, None, :] + np.einsum("nk,mkd->mnd", klein._RULE_BARY, edges)
    r2 = np.sum(pts**2, axis=2)
    vals = 1.0 / (1.0 - r2) ** 2
    return det * (vals @ klein._RULE_WTS)


def _ref_split8(v):
    m = {(i, j): (v[i] + v[j]) / 2 for i in range(4) for j in range(i + 1, 4)}
    return np.array(
        [
            [v[0], m[(0, 1)], m[(0, 2)], m[(0, 3)]],
            [m[(0, 1)], v[1], m[(1, 2)], m[(1, 3)]],
            [m[(0, 2)], m[(1, 2)], v[2], m[(2, 3)]],
            [m[(0, 3)], m[(1, 3)], m[(2, 3)], v[3]],
            [m[(0, 1)], m[(0, 2)], m[(0, 3)], m[(1, 3)]],
            [m[(0, 1)], m[(0, 2)], m[(1, 2)], m[(1, 3)]],
            [m[(0, 2)], m[(0, 3)], m[(1, 3)], m[(2, 3)]],
            [m[(0, 2)], m[(1, 2)], m[(1, 3)], m[(2, 3)]],
        ]
    )


def _ref_volume_numeric(kt, tol=1e-6, max_refine=60000):
    verts = np.asarray(kt.vertices, dtype=float)
    heap = []
    counter = 0

    def push(tet, coarse):
        nonlocal counter
        children = _ref_split8(tet)
        fine = _ref_rule_batch(children)
        err = abs(coarse - float(fine.sum()))
        heapq.heappush(heap, (-err, counter, children, fine))
        counter += 1

    push(verts, float(_ref_rule_batch(verts[None])[0]))
    while True:
        total_err = sum(-item[0] for item in heap)
        if total_err < tol / 2:
            break
        if counter >= max_refine:
            raise QuadratureError(
                f"volume quadrature: refinement budget exhausted, achieved {total_err:.3e}",
                achieved=total_err,
            )
        _, _, children, fine = heapq.heappop(heap)
        for j in range(8):
            push(children[j], float(fine[j]))
    return float(sum(float(item[3].sum()) for item in heap))


def _outcome(fn, kt, tol, max_refine=60000):
    """float.hex of the volume, or the QuadratureError text and achieved."""
    try:
        return ("volume", fn(kt, tol, max_refine).hex())
    except QuadratureError as exc:
        return ("error", str(exc), exc.achieved.hex())


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


def _klein_uniform(n, rmax=0.9, seed=20260):
    """The same tetrahedra as their centred realizations."""
    return [klein_vertices(t) for t in _klein_uniform_angles(n, rmax, seed)]


class TestBatchedQuadratureMatchesReference:
    @pytest.fixture(scope="class")
    def uniform(self):
        return _klein_uniform(60)

    @pytest.mark.parametrize("tol", [1e-6, 1e-7])
    def test_klein_uniform(self, uniform, tol):
        for kt in uniform:
            assert _outcome(volume_numeric, kt, tol) == _outcome(_ref_volume_numeric, kt, tol)

    def test_fixtures(self, finite_batch, generic, equiangular):
        kts = [klein_vertices(t) for t in [generic, equiangular, *finite_batch[:5]]]
        kts.append(apply_isometry(kts[0], lorentz_boost(0.3, axis=0)))
        kts.append(KleinTetra(1e-3 * np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        for kt in kts:
            for tol in (1e-6, 1e-7):
                assert _outcome(volume_numeric, kt, tol) == _outcome(_ref_volume_numeric, kt, tol)
        tiny = kts[-1]
        assert _outcome(volume_numeric, tiny, 1e-15) == _outcome(_ref_volume_numeric, tiny, 1e-15)

    @pytest.mark.parametrize("max_refine", [8, 40])
    def test_budget_exhaustion(self, uniform, generic, max_refine):
        for kt in [klein_vertices(generic), *uniform[:10]]:
            new = _outcome(volume_numeric, kt, 1e-14, max_refine)
            assert new[0] == "error"
            assert new == _outcome(_ref_volume_numeric, kt, 1e-14, max_refine)

    def test_rule_bits_do_not_depend_on_batch_size(self):
        rng = np.random.default_rng(7)
        verts = rng.uniform(-0.55, 0.55, size=(64, 4, 3))
        whole = klein._rule_batch(verts)
        assert np.array_equal(whole, np.concatenate([_ref_rule_batch(verts[i : i + 8]) for i in range(0, 64, 8)]))
        assert np.array_equal(klein._rule_batch(verts[:1]), _ref_rule_batch(verts[:1]))

    def test_split8_matches_reference(self):
        rng = np.random.default_rng(8)
        verts = rng.uniform(-0.55, 0.55, size=(5, 4, 3))
        batched = klein._split8(verts)
        for k in range(5):
            assert np.array_equal(batched[k], _ref_split8(verts[k]))

    def test_sum8_is_numpy_sum(self):
        rng = np.random.default_rng(9)
        f = rng.lognormal(-12, 4, size=(500, 8))
        assert [x.hex() for x in klein._sum8(f).tolist()] == [float(row.sum()).hex() for row in f]


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


class TestStoppingDecision:
    """_units gives the exact integer that volume_numeric's stop rule compares."""

    def test_units_exact(self):
        for x in (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.5, 1e300):
            num, den = x.as_integer_ratio()
            assert klein._units(x) * den == num * 2**1074


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
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.TetStream(seed, 1, rmax).take(count)


def _hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


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
