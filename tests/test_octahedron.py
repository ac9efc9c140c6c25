import builtins
import cmath
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reggescissors import octahedron, scissors
from reggescissors.exceptions import DegenerateSystemError, GeometryDomainError, NonUnitRootError
from reggescissors.klein import KleinTetra, dihedral_angles
from reggescissors.lobachevsky import _lobachevsky_float, _sum_in_order, lobachevsky
from reggescissors.octahedron import (
    DUAL_SIDE,
    O_SIDE,
    base_angles,
    bar_solution,
    holonomy_polynomial,
    holonomy_residual,
    linear_residuals,
    octahedron_angles,
    octahedron_volume,
    slots,
    solve_holonomy,
    tet_volume,
    u_volume,
    volume_remainder,
    wrap_angle,
    _solve_holonomy,
)
from reggescissors.scissors import canonical_angle, decompose, regge_orbit, verify_scissors
from reggescissors.suite import SuiteConfig, criterion_4
from reggescissors.tetra import (
    _VERTEX_ANGLES,
    TetAngles,
    TetraKind,
    _memo,
    classify,
    prism_volume,
    prism_volume_by_tetrahedra,
)

from oracles import full_dihedral_angles, murakami_yano_volume, tetra_symmetries

PI = math.pi

# volume of the equiangular tetrahedron with all angles 1.2, frozen after
# cross-checking against the Klein-model quadrature oracle
EQUIANGULAR_12_VOLUME = 0.046712861991968745

angles6 = st.tuples(*[st.floats(1.05, 1.28)] * 6)


def _elementary(vals, k):
    total = 0j
    n = len(vals)
    for comb in itertools.combinations(range(n), k):
        p = 1.0 + 0j
        for i in comb:
            p *= vals[i]
        total += p
    return total


def _itertools_holonomy_polynomial(bars):
    """holonomy_polynomial as it was with the sums in an itertools loop: the
    bit reference for the written-out sums."""
    alphas = [cmath.exp(1j * x) for x in bars[0::2]]
    betas = [cmath.exp(1j * x) for x in bars[1::2]]
    a2 = [a * a for a in alphas]
    b2 = [b * b for b in betas]
    pa = alphas[0] * alphas[1] * alphas[2] * alphas[3]
    pb = betas[0] * betas[1] * betas[2] * betas[3]
    return np.array(
        [
            pa - 1 / pb,
            _elementary(b2, 1) / pb - _elementary(a2, 3) / pa,
            _elementary(a2, 2) / pa - _elementary(b2, 2) / pb,
            _elementary(b2, 3) / pb - _elementary(a2, 1) / pa,
            1 / pa - pb,
        ],
        dtype=complex,
    )


class TestBaseAngles:
    def test_equiangular(self):
        theta = 1.2
        a, b, c, d, e, f, g, h = base_angles(TetAngles(*(theta,) * 6))
        assert (a, b, d) == pytest.approx(((PI + theta) / 2,) * 3, abs=1e-15)
        assert c == pytest.approx((PI - 3 * theta) / 2, abs=1e-15)
        assert e == pytest.approx((PI - 3 * theta) / 2, abs=1e-15)
        assert (f, g, h) == pytest.approx(((PI + theta) / 2,) * 3, abs=1e-15)

    def test_direct_substitution(self):
        t = TetAngles(PI / 2, PI / 3, PI / 4, PI / 2, PI / 3, PI / 4)
        a = base_angles(t)[0]
        assert a == pytest.approx((PI - PI / 4 + PI / 2 + PI / 3) / 2, abs=1e-15)

    def test_ring_sums_to_two_pi(self, generic):
        # the four angles around the firepole close up
        ring = base_angles(generic)[4:]
        assert sum(ring) == pytest.approx(2 * PI, abs=1e-12)


class TestBarSolution:
    def test_equiangular_values(self):
        theta = 1.2
        AB, _, BC, _, CD, _, DA, _ = bar_solution(TetAngles(*(theta,) * 6))
        assert AB == pytest.approx(theta, abs=1e-15)
        assert BC == pytest.approx(0.0, abs=1e-15)
        assert CD == pytest.approx(-theta, abs=1e-15)
        assert DA == pytest.approx(0.0, abs=1e-15)

    def test_direct_substitution(self):
        AB = bar_solution(TetAngles(0.9, 0.8, 0.7, 1.0, 1.1, 1.2))[0]
        assert AB == pytest.approx((0.9 + 1.0 + 2.2) / 4, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(angles6)
    def test_group_sums(self, angles):
        bars = bar_solution(TetAngles(*angles))
        assert sum(bars[0::2]) == pytest.approx(0.0, abs=1e-12)
        assert sum(bars[1::2]) == pytest.approx(2 * PI, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(angles6)
    def test_satisfies_linear_constraints(self, angles):
        t = TetAngles(*angles)
        AB, BA, BC, CB, CD, DC, DA, AD = bar_solution(t)
        a, b, c, d, e, f, g, h = base_angles(t)
        residuals = [
            AB + AD - a,
            AB + BA + e - PI,
            BC + BA - b,
            BC + CB + f - PI,
            CD + CB - c,
            CD + DC + g - PI,
            DA + DC - d,
            DA + AD + h - PI,
        ]
        assert max(abs(r) for r in residuals) < 1e-12


class TestHolonomy:
    def test_end_coefficients_vanish(self, generic):
        poly = holonomy_polynomial(bar_solution(generic))
        assert abs(poly[0]) < 1e-12
        assert abs(poly[4]) < 1e-12

    def test_roots_on_unit_circle(self, finite_batch):
        for t in finite_batch:
            assert solve_holonomy(t).unit_defect < 1e-9

    def test_written_out_sums_keep_the_itertools_bits(self, stream_angles, equiangular):
        # the equiangular bars are 0 and +-theta, whose products have exact zeros
        def hexes(poly):
            return [(float(c.real).hex(), float(c.imag).hex()) for c in poly]

        for angles in [*stream_angles, equiangular.as_tuple()]:
            bars = bar_solution(TetAngles(*angles))
            assert hexes(holonomy_polynomial(bars)) == hexes(_itertools_holonomy_polynomial(bars))

    def test_quadratic_residual_at_roots(self, generic):
        roots = solve_holonomy(generic)
        q2, q1, q0 = holonomy_polynomial(roots.bars)[1:4]
        for Z in (roots.Z_minus, roots.Z_plus):
            w = cmath.exp(2j * Z)
            assert abs(q2 * w * w + q1 * w + q0) < 1e-10

    def test_holonomy_product(self, finite_batch):
        for t in finite_batch:
            oa = octahedron_angles(t)
            assert holonomy_residual(oa) < 1e-10

    def test_shifted_bar_seed_gives_same_angles(self, generic):
        # the bar solution is one member of a one-parameter family; any other
        # member must produce the same octahedron angles (mod pi: a large
        # shift can wrap the half-argument branch of the root, which moves
        # every slot by pi without changing the solution)
        bars = bar_solution(generic)
        a1 = octahedron_angles(generic).slots
        c1 = np.array([canonical_angle(x) for x in a1])
        for delta in (-0.4, 0.17, 0.9):
            shifted = slots(bars, delta)
            Z_minus = _solve_holonomy(shifted, TetraKind.FINITE)[0]
            c2 = np.array([canonical_angle(x) for x in slots(shifted, Z_minus)])
            assert np.max(np.abs(c1 - c2)) < 1e-10

    def test_invalid_input_rejected(self):
        with pytest.raises(GeometryDomainError):
            solve_holonomy(TetAngles(*(1.5,) * 6))

    def test_hyperideal_accepted_and_flagged(self):
        t = TetAngles(*(1.0,) * 6)
        assert solve_holonomy(t).unit_defect < 1e-9
        assert classify(t).kind is TetraKind.HYPERIDEAL


class TestOctAngles:
    def test_linear_constraints_solved(self, finite_batch):
        for t in finite_batch:
            for side in (O_SIDE, DUAL_SIDE):
                oa = octahedron_angles(t, side)
                assert np.max(linear_residuals(oa)) < 1e-10

    def test_equiangular_slot_coincidences(self, equiangular):
        # equal opposite pairs force BA=DC, CB=AD, BC=DA exactly
        AB, BA, BC, CB, CD, DC, DA, AD = octahedron_angles(equiangular).slots
        assert BA == pytest.approx(DC, abs=1e-12)
        assert CB == pytest.approx(AD, abs=1e-12)
        assert BC == pytest.approx(DA, abs=1e-12)

    def test_supplementary_duals(self, finite_batch):
        for t in finite_batch[:5]:
            full_o = full_dihedral_angles(octahedron_angles(t, O_SIDE))
            full_d = full_dihedral_angles(octahedron_angles(t, DUAL_SIDE))
            for key in full_o:
                gap = abs(wrap_angle(full_o[key] + full_d[key] - PI))
                assert gap < 1e-9, key

    def test_hyperideal_octahedron_is_honest(self):
        # in the hyperideal regime the octahedron embeds and every slot angle
        # lies in (0, pi)
        angles = np.array(octahedron_angles(TetAngles(*(1.0,) * 6)).slots)
        assert np.all(angles > 0)
        assert np.all(angles < PI)


class TestSides:
    # float.hex of octahedron_angles(GENERIC_FINITE, side) in SLOT_ORDER, as
    # the enum sides OctSide.O and OctSide.DUAL gave them before the string
    # labels replaced the enum
    ENUM_O = ("0x1.3a7558e7968dcp+1", "0x1.cee4e831d9806p-1", "0x1.46d636ede56d8p+0",
              "-0x1.e324b1241f1d8p-3", "0x1.4eab1cf2d1b90p-4", "0x1.ba6a06ea2b6bep-1",
              "0x1.481de502604ecp+0", "-0x1.62362f9c4cff0p-2")
    ENUM_DUAL = ("0x1.47508e188a2a0p-4", "-0x1.324b1104736d8p-2", "0x1.428983c2d050cp+0",
                 "0x1.ae888bf8a7910p-1", "0x1.3a3a8470c4515p+1", "-0x1.09554e7517448p-2",
                 "0x1.4141d5ae556f8p+0", "0x1.e6da777dc6494p-1")

    @pytest.mark.parametrize("side,expected", [("O", ENUM_O), ("O'", ENUM_DUAL)])
    def test_string_side_gives_enum_angles(self, generic, side, expected):
        oa = octahedron_angles(TetAngles(*generic.as_tuple()), side)
        assert tuple(x.hex() for x in oa.slots) == expected

    def test_default_side_is_o(self, generic):
        assert octahedron_angles(generic) == octahedron_angles(generic, O_SIDE)

    @pytest.mark.parametrize("side", ["o", "O''", "dual", "", None, 0])
    def test_unknown_side_rejected(self, generic, side):
        with pytest.raises(GeometryDomainError):
            octahedron_angles(generic, side)


class TestOctahedronLayerBits:
    """One sha256 over float.hex of everything the octahedron layer returns, on
    stream_angles and a few Hyperideal inputs: both sides' slots (SLOT_ORDER)
    and base angles (a..h), linear_residuals, holonomy_residual,
    octahedron_volume, u_volume and holonomy_polynomial (real, imag)."""

    HYPERIDEAL = ((1.0,) * 6, (0.9, 1.0, 1.1, 0.95, 1.05, 1.0),
                  (0.8, 0.9, 1.0, 1.1, 1.0, 0.9), (1.3, 0.4, 0.5, 1.3, 0.45, 0.55))
    DIGEST = "491f556b68044ca93998e95b8f70a01921f041c96dbb8a895c5c4065faf2af0e"

    @staticmethod
    def side_values(oa):
        return [*oa.slots, *oa.base]

    def values(self, t):
        out = []
        for side in (O_SIDE, DUAL_SIDE):
            oa = octahedron_angles(t, side)
            out += self.side_values(oa)
            out += linear_residuals(oa)
            out += [holonomy_residual(oa), octahedron_volume(oa)]
        out.append(u_volume(t))
        out += [x for c in list(holonomy_polynomial(bar_solution(t))) for x in (c.real, c.imag)]
        return out

    def test_digest(self, stream_angles):
        h = hashlib.sha256()
        for angles in [*stream_angles, *self.HYPERIDEAL]:
            h.update(" ".join(float(x).hex() for x in self.values(TetAngles(*angles))).encode())
        assert h.hexdigest() == self.DIGEST


class TestOneReducerKeepsBits:
    """wrap_angle and canonical_angle, which reduces in its own body by the
    same floor formula, against the separate floor formulas they replaced,
    bit for bit (float.hex, which also tells -0.0 from 0.0)."""

    @staticmethod
    def old_wrap_angle(x):
        r = x - 2 * PI * math.floor(x / (2 * PI) + 0.5)
        if r <= -PI:
            r += 2 * PI
        return r

    @staticmethod
    def old_canonical_angle(x):
        r = x - PI * math.floor(x / PI + 0.5)
        if r <= -PI / 2:
            r += PI
        if abs(r) < 1e-12:
            return 0.0
        return r

    @pytest.fixture(scope="class")
    def points(self):
        seeded = np.random.default_rng(20261018).uniform(-50.0, 50.0, 200_000).tolist()
        halves = [k * PI / 2 for k in range(-40, 41)]
        edges = [y for x in halves
                 for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))]
        return seeded + edges + [0.0, -0.0]

    def test_wrap_angle(self, points):
        assert [wrap_angle(x).hex() for x in points] == [self.old_wrap_angle(x).hex() for x in points]

    def test_canonical_angle(self, points):
        assert ([canonical_angle(x).hex() for x in points]
                == [self.old_canonical_angle(x).hex() for x in points])


@pytest.mark.kernel_independent
class TestLabelRule:
    """The reference for the roots' labels: of the two unit-circle roots of
    the holonomy quadratic, z_minus is the one at which the assembled volume
    is the larger (the first root, -q1 + sqrt(disc), on a tie).  The solve
    labels by the branch of sqrt(disc) alone and assembles no volume; its
    labels must be the rule's, bit for bit."""

    # the near-regular family arccos(1/3) - eps: near-Euclidean volumes
    NEAR_REGULAR = tuple((math.acos(1 / 3) - 10.0 ** -k,) * 6 for k in range(2, 9))
    #: Klein-ball radii of the near-Euclidean probes, and probes per radius
    RADII = (1e-1, 1e-2, 1e-3, 1e-4)
    PROBES = 60

    @staticmethod
    def hyperideal_draws(count=40):
        rng = np.random.default_rng(36)
        out = []
        while len(out) < count:
            x = tuple(rng.uniform(0, PI, 6))
            if classify(TetAngles(*x)).kind is TetraKind.HYPERIDEAL:
                out.append(x)
        return out

    @classmethod
    def klein_probes(cls):
        """Tetrahedra with vertices uniform in Klein balls of small radius."""
        rng = np.random.default_rng(5)
        out = []
        for r in cls.RADII:
            for _ in range(cls.PROBES):
                direction = rng.normal(size=(4, 3))
                direction /= np.linalg.norm(direction, axis=1, keepdims=True)
                verts = direction * r * rng.uniform(size=(4, 1)) ** (1 / 3)
                out.append(dihedral_angles(KleinTetra(verts)).as_tuple())
        return out

    @staticmethod
    def rule(t):
        """(Z_minus, Z_plus, volume at Z_minus, discriminant, unit defect) by
        the two-volume rule, in numpy's complex scalars: their division is
        the reference for the solve's copy of it."""
        q2, q1, q0 = map(np.complex128, holonomy_polynomial(bar_solution(t))[1:4])
        disc = q1 * q1 - 4 * q2 * q0
        sq = cmath.sqrt(disc)
        ws = ((-q1 + sq) / (2 * q2), (-q1 - sq) / (2 * q2))
        defect = max(abs(math.sqrt(abs(w)) - 1.0) for w in ws)
        Zs = [cmath.phase(w / abs(w)) / 2 for w in ws]
        vols = [octahedron._slot_sum(bar_solution(t), Z) + volume_remainder(t) for Z in Zs]
        im = 0 if vols[0] >= vols[1] else 1
        return Zs[im], Zs[1 - im], vols[im], disc, defect

    def test_branch_labels_are_the_two_volume_rule(self, stream_angles):
        inputs = [x for x in [*stream_angles, *self.hyperideal_draws(), *self.NEAR_REGULAR, *self.klein_probes()]
                  if classify(TetAngles(*x)).kind is not TetraKind.INVALID]
        volumes, divisors = [], []
        for x in inputs:
            t = TetAngles(*x)  # a fresh instance: no kept roots
            roots = solve_holonomy(t)
            Z_minus, Z_plus, volume, disc, defect = self.rule(t)
            assert (roots.Z_minus.hex(), roots.Z_plus.hex()) == (Z_minus.hex(), Z_plus.hex()), x
            assert roots.unit_defect.hex() == defect.hex(), x
            assert (roots.discriminant.real.hex(), roots.discriminant.imag.hex()) == (
                float(disc.real).hex(), float(disc.imag).hex()), x
            if classify(t).kind is not TetraKind.HYPERIDEAL:
                assert tet_volume(t).hex() == volume.hex(), x
                volumes.append(volume)
            divisors.append(2 * holonomy_polynomial(roots.bars)[1])
        # volumes at or below 1e-9, which a margin on the first volume could
        # not label, are among them
        assert sum(v <= 1e-9 for v in volumes) >= 50
        # both branches of the copied division divide the roots: |Re d| >= |Im d|
        # and the reverse, for d = 2 q2
        assert {abs(d.real) >= abs(d.imag) for d in divisors} == {True, False}


def _ref_holonomy_polynomial(bars):
    """holonomy_polynomial as the divide route's solve read it: the bit
    reference of the solve's coefficients."""
    p0, p1, p2, p3 = (cmath.exp(1j * bars[k]) for k in (0, 2, 4, 6))
    m0, m1, m2, m3 = (cmath.exp(1j * bars[k]) for k in (1, 3, 5, 7))
    pa, pb = p0 * p1 * p2 * p3, m0 * m1 * m2 * m3
    u0, u1, u2, u3 = p0 * p0, p1 * p1, p2 * p2, p3 * p3
    v0, v1, v2, v3 = m0 * m0, m1 * m1, m2 * m2, m3 * m3
    a1 = 0j + u0 + u1 + u2 + u3
    a2 = 0j + u0 * u1 + u0 * u2 + u0 * u3 + u1 * u2 + u1 * u3 + u2 * u3
    a3 = 0j + u0 * u1 * u2 + u0 * u1 * u3 + u0 * u2 * u3 + u1 * u2 * u3
    b1 = 0j + v0 + v1 + v2 + v3
    b2 = 0j + v0 * v1 + v0 * v2 + v0 * v3 + v1 * v2 + v1 * v3 + v2 * v3
    b3 = 0j + v0 * v1 * v2 + v0 * v1 * v3 + v0 * v2 * v3 + v1 * v2 * v3
    return (pa - 1 / pb, b1 / pb - a3 / pa, a2 / pa - b2 / pb, b3 / pb - a1 / pa, 1 / pa - pb)


def _ref_divide(a, b):
    """numpy's complex division as a function of its own: Smith's method
    times the reciprocal of its denominator."""
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _ref_solve_holonomy(bars, kind):
    """_solve_holonomy by the divide route: each division a call of
    _ref_divide, the projection w / complex(|w|) too."""
    _, q2, q1, q0, _ = _ref_holonomy_polynomial(bars)
    scale = max(abs(q2), abs(q1), abs(q0))
    if scale < 1e-12 or abs(q2) < 1e-13 * max(1.0, scale):
        raise DegenerateSystemError("holonomy quadratic collapsed")
    disc = q1 * q1 - 4 * q2 * q0
    sq = cmath.sqrt(disc)
    d = 2 * q2
    w0, w1 = _ref_divide(-q1 + sq, d), _ref_divide(-q1 - sq, d)
    r0, r1 = abs(w0), abs(w1)
    defect = max(abs(math.sqrt(r0) - 1.0), abs(math.sqrt(r1) - 1.0))
    if defect > octahedron.UNIT_ROOT_TOL:
        raise NonUnitRootError("holonomy root off the unit circle", {"class": kind.value})
    Z0 = cmath.phase(_ref_divide(w0, complex(r0))) / 2
    Z1 = cmath.phase(_ref_divide(w1, complex(r1))) / 2
    return (Z1, Z0, disc, defect) if sq.imag > 0 else (Z0, Z1, disc, defect)


def _solve_outcome(solve, bars, kind):
    """float.hex of each part of solve(bars, kind), or the name of the error it raises."""
    try:
        Z_minus, Z_plus, disc, defect = solve(bars, kind)
    except (GeometryDomainError, ArithmeticError) as error:
        return type(error).__name__
    return Z_minus.hex(), Z_plus.hex(), disc.real.hex(), disc.imag.hex(), defect.hex()


@pytest.mark.kernel_independent
def test_the_written_out_solve_keeps_the_bits_of_the_divide_route(stream_angles, slivers):
    # on the stream rows, the 70 slivers and uniform (0, pi)^6 draws, whose
    # roots are often off the unit circle, as their class: the same floats,
    # or the same error, on both of Smith's branches
    uniform = [tuple(x) for x in np.random.default_rng(53).uniform(0.0, PI, size=(300, 6)).tolist()]
    outcomes, branches = set(), set()
    for x in [*stream_angles, *slivers, *uniform]:
        t = TetAngles(*x)
        bars, kind = bar_solution(t), classify(t).kind
        got = _solve_outcome(_solve_holonomy, bars, kind)
        assert got == _solve_outcome(_ref_solve_holonomy, bars, kind), x
        outcomes.add(got if isinstance(got, str) else "solved")
        q2 = _ref_holonomy_polynomial(bars)[1]
        branches.add(abs(q2.real) >= abs(q2.imag))
    assert outcomes == {"solved", "NonUnitRootError"} and branches == {True, False}


def _numpy_roots(q2, q1, q0):
    """The offsets (Z_minus, Z_plus) of the quadratic q2 w^2 + q1 w + q0 in
    numpy's complex scalars, labeled by the branch of sqrt(disc) as the
    solve labels them, and the two roots w."""
    q2, q1, q0 = map(np.complex128, (q2, q1, q0))
    sq = cmath.sqrt(q1 * q1 - 4 * q2 * q0)
    ws = ((-q1 + sq) / (2 * q2), (-q1 - sq) / (2 * q2))
    Z0, Z1 = (cmath.phase(w / abs(w)) / 2 for w in ws)
    return ((Z1, Z0) if sq.imag > 0 else (Z0, Z1)), ws


@pytest.mark.kernel_independent
def test_the_solve_divides_as_numpy(monkeypatch):
    # the roots over 2 q2 and their projection w / |w|, bit for bit against
    # numpy's complex scalars, on both of Smith's branches: quadratics with
    # two unit roots at random phases, q2 over 17 decades
    monkeypatch.setattr(octahedron, "holonomy_polynomial", lambda q: (0j, *q, 0j))
    rng = np.random.default_rng(43)
    parts = rng.normal(size=(5_000, 2)) * 10.0 ** rng.integers(-8, 9, size=(5_000, 1))
    phases = rng.uniform(-PI, PI, size=(5_000, 2))
    branches, python_differs = set(), 0
    for (a, b), (f, g) in zip(parts.tolist(), phases.tolist()):
        q2, w0, w1 = complex(a, b), cmath.exp(1j * f), cmath.exp(1j * g)
        q = (q2, -q2 * (w0 + w1), q2 * w0 * w1)
        Z_minus, Z_plus, _, _ = _solve_holonomy(q, TetraKind.FINITE)
        expected, ws = _numpy_roots(*q)
        assert (Z_minus.hex(), Z_plus.hex()) == tuple(Z.hex() for Z in expected), q
        branches.add(abs(q2.real) >= abs(q2.imag))
        sq = cmath.sqrt(q[1] * q[1] - 4 * q2 * q[2])
        python_differs += (-q[1] + sq) / (2 * q2) != complex(ws[0])
    assert branches == {True, False} and python_differs > 1000
    # the double root -1 over d = -1 + 0i comes out as -1 - 0i; divided by
    # |w| as numpy divides, its phase is pi, where w * (1 / |w|) gives -pi
    q = (complex(-0.5, 0.0), complex(-1.0, 0.0), complex(-0.5, 0.0))
    expected, ws = _numpy_roots(*q)
    w = complex(ws[0])
    assert (w.real, math.copysign(1.0, w.imag)) == (-1.0, -1.0)
    assert cmath.phase(w * (1 / abs(w))) == -PI
    assert _solve_holonomy(q, TetraKind.FINITE)[:2] == expected == (PI / 2, PI / 2)


_BUILTIN_SUM = builtins.sum


def _neumaier_sum(iterable, start=0):
    """The builtin sum of floats from Python 3.12 on: compensated (Neumaier).
    Anything but plain floats is summed by the builtin."""
    items = list(iterable)
    if type(start) not in (int, float) or any(type(x) is not float for x in items):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def _volume_hexes(angles):
    """float.hex of every volume route on fresh instances of the angles."""
    t = TetAngles(*angles)
    x = t.as_tuple()
    values = [f(*(x[k] for k in v)) for f in (prism_volume, prism_volume_by_tetrahedra) for v in _VERTEX_ANGLES]
    try:
        values += [tet_volume(t), tet_volume(t, "plus"), volume_remainder(t), u_volume(t),
                   decompose(t).total_volume(),
                   *(octahedron_volume(octahedron_angles(t, side)) for side in (O_SIDE, DUAL_SIDE))]
    except (ArithmeticError, ValueError) as exc:
        values.append(type(exc).__name__)
    return [v if isinstance(v, str) else float.hex(v) for v in values]


class TestVolumes:
    def test_equiangular_frozen_value(self, equiangular):
        assert tet_volume(equiangular) == pytest.approx(EQUIANGULAR_12_VOLUME, abs=1e-12)

    def test_murakami_yano_reference(self, stream_angles):
        # every 30th input: 41 Finite ones across both streams and the box batch
        batch = [TetAngles(*angles) for angles in stream_angles[::30]]
        assert all(classify(t).kind is TetraKind.FINITE for t in batch)
        for t in batch:
            assert abs(tet_volume(t) - murakami_yano_volume(t)) <= 1e-13, t

    def test_volumes_do_not_depend_on_a_compensated_builtin_sum(self, stream_angles, monkeypatch):
        # every volume adds its terms left to right from 0.0, as the builtin
        # sum did up to Python 3.11; each route once, criterion 4 too
        before = [_volume_hexes(angles) for angles in stream_angles]
        report = json.dumps(criterion_4(SuiteConfig(count=5)).to_payload())
        monkeypatch.setattr(builtins, "sum", _neumaier_sum)
        assert _neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
        assert [_volume_hexes(angles) for angles in stream_angles] == before
        assert json.dumps(criterion_4(SuiteConfig(count=5)).to_payload()) == report

    def test_plus_root_negates(self, finite_batch):
        for t in finite_batch:
            assert tet_volume(t, "plus") == pytest.approx(-tet_volume(t), abs=1e-9)

    def test_octahedron_pair_reconstructs_volume(self, finite_batch):
        for t in finite_batch:
            vo = octahedron_volume(octahedron_angles(t, O_SIDE))
            vd = octahedron_volume(octahedron_angles(t, DUAL_SIDE))
            assert (vo + vd) / 2 == pytest.approx(tet_volume(t), abs=1e-10)

    def test_octahedron_volume_regroups_as_four_ideal_tetra(self, generic):
        oa = octahedron_angles(generic)
        by_tetra = sum(
            lobachevsky(x) + lobachevsky(y) + lobachevsky(r)
            for x, y, r in zip(oa.slots[0::2], oa.slots[1::2], base_angles(generic)[4:])
        )
        assert octahedron_volume(oa) == pytest.approx(by_tetra, abs=1e-12)

    def test_u_volume_route(self, finite_batch):
        for t in finite_batch:
            prisms = [
                prism_volume(t.A, t.B, t.C),
                prism_volume(t.A, t.Bp, t.Cp),
                prism_volume(t.Ap, t.B, t.Cp),
                prism_volume(t.Ap, t.Bp, t.C),
            ]
            v = u_volume(t) - 0.5 * sum(prisms)
            assert v == pytest.approx(tet_volume(t), abs=1e-9)

    def test_u_volume_exceeds_tet_volume(self, generic):
        v = tet_volume(generic)
        assert u_volume(generic) > v > 0

    def test_monotone_toward_ideal(self):
        thetas = np.linspace(1.22, 1.06, 9)
        vols = [tet_volume(TetAngles(*(th,) * 6)) for th in thetas]
        assert all(v2 > v1 for v1, v2 in zip(vols, vols[1:]))
        assert vols[-1] < 1.0149416064096539

    def test_ideal_limit_matches_regular_ideal_volume(self):
        v = tet_volume(TetAngles(*(PI / 3,) * 6))
        assert v == pytest.approx(1.0149416064096539, abs=1e-12)

    def test_hyperideal_volume_rejected(self):
        with pytest.raises(GeometryDomainError):
            tet_volume(TetAngles(*(1.0,) * 6))

    def test_bad_root_label(self, generic):
        with pytest.raises(GeometryDomainError):
            tet_volume(generic, root="best")

    def test_dual_base_supplementary(self, finite_batch):
        for t in finite_batch:
            base = octahedron_angles(t, O_SIDE).base
            dual = octahedron_angles(t, DUAL_SIDE).base
            assert base == base_angles(t)
            assert dual == tuple(PI - x for x in base)

    def test_volume_invariant_under_all_relabelings(self, generic):
        # the construction singles out the (A, A') pair; the volume must not
        from reggescissors.tetra import relabel

        v = tet_volume(generic)
        for sigma in tetra_symmetries():
            assert tet_volume(relabel(generic, sigma)) == pytest.approx(v, abs=1e-9)


class TestSolveOnce:
    ANGLES = (1.15, 1.2, 1.1, 1.22, 1.18, 1.25)

    @pytest.fixture
    def uncached(self, monkeypatch):
        """Counts the holonomy solves that are computed, not read back."""
        calls = []
        compute = octahedron._holonomy_roots
        monkeypatch.setattr(octahedron, "_holonomy_roots", lambda t: calls.append(t) or compute(t))
        return calls

    def test_every_reader_shares_one_solve(self, uncached):
        t = TetAngles(*self.ANGLES)
        tet_volume(t)
        tet_volume(t, "plus")
        decompose(t)
        u_volume(t)
        octahedron_angles(t, O_SIDE)
        octahedron_angles(t, DUAL_SIDE)
        assert uncached == [t]

    def test_verify_scissors_solves_three(self, uncached):
        # source, R_b image, and the relabeled image it is aligned with
        verify_scissors(TetAngles(*self.ANGLES), "b")
        assert len(uncached) == 3

    @pytest.mark.parametrize("error", [DegenerateSystemError, NonUnitRootError])
    def test_raised_error_is_not_kept(self, monkeypatch, error):
        calls = []
        compute = octahedron._holonomy_roots

        def fail_once(t):
            calls.append(t)
            if len(calls) == 1:
                raise error("injected")
            return compute(t)

        monkeypatch.setattr(octahedron, "_holonomy_roots", fail_once)
        t = TetAngles(*self.ANGLES)
        with pytest.raises(error):
            solve_holonomy(t)
        roots = solve_holonomy(t)
        assert solve_holonomy(t) is roots
        assert len(calls) == 2 and calls[1] is t


class TestLobachevskyEvaluations:
    """Evaluations per call on a fresh instance: a solve makes none, and a
    volume is 8 slot terms and the 16-term remainder."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Arguments of the series calls the solve and the decomposition make."""
        calls = []
        for module in (octahedron, scissors):
            monkeypatch.setattr(module, "_lobachevsky_float",
                                lambda x: calls.append(x) or _lobachevsky_float(x))
        return calls

    def test_tet_volume(self, generic, evaluations):
        tet_volume(TetAngles(*generic.as_tuple()))
        assert len(evaluations) == 24

    def test_verify_scissors_b(self, generic, evaluations):
        # the volumes of t and R_b t; the aligned relabeling is solved, not assembled
        verify_scissors(TetAngles(*generic.as_tuple()), "b")
        assert len(evaluations) == 48

    def test_regge_orbit(self, generic, evaluations):
        orbit = regge_orbit(TetAngles(*generic.as_tuple()))
        assert len(orbit.members) == 6
        assert len(evaluations) == 144

    def test_verify_scissors_b_then_regge_orbit(self, generic, evaluations):
        # the orbit reads the volumes of t and R_b t that verify_scissors
        # assembled: 48 + 144 - 48
        t = TetAngles(*generic.as_tuple())
        verify_scissors(t, "b")
        regge_orbit(t)
        assert len(evaluations) == 144


def _ref_volume_remainder(t):
    """volume_remainder as the 16 signed terms of one literal, summed in order."""
    A, B, C, Ap, Bp, Cp = t.as_tuple()
    lob = _lobachevsky_float
    return 0.5 * _sum_in_order((
        +lob((PI + A - B - C) / 2), -lob((PI + B - A - C) / 2), -lob((PI + C - A - B) / 2),
        +lob((PI + Bp - Ap - C) / 2), +lob((PI + A + B + C) / 2), +lob((PI + C - Ap - Bp) / 2),
        +lob((PI - Ap + Bp + C) / 2), -lob((PI + Ap + Bp + C) / 2), +lob((PI + Ap - B - Cp) / 2),
        -lob((PI + A + Bp + Cp) / 2), -lob((PI + A - Bp - Cp) / 2), +lob((PI + Bp - A - Cp) / 2),
        -lob((PI - Ap - B + Cp) / 2), +lob((PI + Ap - B + Cp) / 2), +lob((PI + Ap + B + Cp) / 2),
        +lob((PI - A - Bp + Cp) / 2),
    ))


@pytest.mark.kernel_independent
def test_remainder_keeps_its_bits_and_steps_read_half_their_terms(stream_angles, monkeypatch):
    # volume_remainder, and the sum of the series values it keeps on the
    # source, read back through tetra._memo, against the literal, bit for
    # bit; then _step_volume on each Finite step of 1e-5 or 1e-6 in one
    # angle, from the source's kept values, against tet_volume of a fresh
    # instance, bit for bit: it makes 16 series evaluations, first the 8
    # remainder terms the stepped angle enters, which include every argument
    # the step moves, then the 8 slot terms at the step's Z_minus; and the
    # steps leave the source's kept values as they were
    evaluated = []
    monkeypatch.setattr(octahedron, "_lobachevsky_float", lambda x: evaluated.append(x) or _lobachevsky_float(x))
    stepped = 0
    for angles in stream_angles[::5]:
        t = TetAngles(*angles)
        assert volume_remainder(t).hex() == _ref_volume_remainder(t).hex(), angles
        values = _memo(t, "_remainder_values", lambda t: pytest.fail(f"no series values kept on {t}"))
        assert values is octahedron._remainder_values(t) and len(values) == 16, angles
        assert octahedron._remainder_sum(values).hex() == _ref_volume_remainder(t).hex(), angles
        args = octahedron._remainder_args(*angles)
        for i, h in itertools.product(range(6), (1e-5, -1e-6)):
            step = list(angles)
            step[i] += h
            fresh = TetAngles(*step)
            if classify(fresh).kind is not TetraKind.FINITE:
                continue
            evaluated.clear()
            volume = octahedron._step_volume(step, i, t)
            terms, slot_terms = evaluated[:8], evaluated[8:]
            step_args = octahedron._remainder_args(*step)
            moved = {a for a, b in zip(step_args, args) if a != b}
            assert terms == [step_args[k] for k in octahedron._REMAINDER_TERMS_OF[i]], (angles, i)
            assert len(evaluated) == 16 and moved <= set(terms), (angles, i)
            roots = solve_holonomy(fresh)
            assert slot_terms == list(slots(roots.bars, roots.Z_minus)), (angles, i)
            assert volume.hex() == tet_volume(fresh).hex(), (angles, i)
            stepped += 1
        assert octahedron._remainder_sum(values).hex() == _ref_volume_remainder(t).hex(), angles
    assert stepped > 12 * len(stream_angles[::5]) * 9 // 10


class TestNegativeVolumeGuard:
    """A volume below -1e-12 at the labeled root is reported by tet_volume
    and by the checks that read it; the solve and the decomposition, which
    assemble no volume, are not affected."""

    @pytest.fixture(autouse=True)
    def negative_remainder(self, monkeypatch):
        monkeypatch.setattr(octahedron, "volume_remainder", lambda t: -10.0)

    @pytest.mark.parametrize("root", ["minus", "plus"])
    def test_tet_volume_raises(self, generic, root):
        with pytest.raises(DegenerateSystemError, match="negative volume") as info:
            tet_volume(TetAngles(*generic.as_tuple()), root)
        assert info.value.diagnostics["volume"] < -1e-12
        assert info.value.diagnostics["class"] == "Finite"

    def test_verify_scissors_reports_it(self, generic):
        for which in "abc":
            report = verify_scissors(TetAngles(*generic.as_tuple()), which)
            assert report.passed is False
            assert report.failure.startswith("angle system degenerate: the labeled holonomy root")

    def test_decompose_still_decomposes(self, generic):
        assert len(decompose(TetAngles(*generic.as_tuple())).raw_angles) == 16
