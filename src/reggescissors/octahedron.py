"""The octahedron angle system behind the tetrahedron volume formula.

Extending all edges of a tetrahedron to infinity and cutting the resulting
ideal polyhedron leaves an ideal octahedron whose triangulation around a
chosen diagonal ("firepole", here the one preferring the (A, A') edge pair)
has eight unknown dihedral angles in slots

    AB, BA, BC, CB, CD, DC, DA, AD

tied by eight linear constraints plus one holonomy condition

    sin(AB) sin(BC) sin(CD) sin(DA)
    -------------------------------- = 1 .
    sin(BA) sin(CB) sin(DC) sin(AD)

A particular solution of the linear part (the "bar" solution) reduces the
holonomy condition, via z = exp(iZ), to a quadratic in w = z^2 whose two
unit-circle roots drive everything else: the slot angles are bars +- Z, the
octahedron volume is a sum of twelve Lobachevsky terms, and the two roots
give +V and -V of the tetrahedron through one 24-term expression.

For a finite (compact) tetrahedron the octahedron only exists by analytic
continuation: the quadrilateral angle c = (pi - A - B - C)/2 is negative, so
some slot angles leave (0, pi) and some pieces carry negative volume.  The
roots are labeled by the branch of sqrt(disc) alone: the discriminant is
16 det G, a negative real, and Murakami-Yano's +V root is
(-q1 - 4i sqrt(-det G)) / (2 q2), so z_minus is the root that branch picks.
The solve assembles no volume.  tet_volume assembles the one it is asked
for, and raises when the labeled root gives a negative volume: a wrong
branch is reported, never relabeled.

The solve runs on Python complex and loads no numpy.  Its two divisions,
the roots (-q1 +- sqrt(disc)) / (2 q2) and their projection w / |w| onto
the unit circle, are numpy's complex division written out in the solve:
Smith's method (R. L. Smith, "Algorithm 116: Complex division", Commun.
ACM 5(8), 1962) times the reciprocal of its denominator, one reciprocal for
both roots.  Python's a / b divides by that denominator instead, which
moves last bits, and w * (1 / |w|) gives -0.0 where the division gives
0.0, a sign the phase reads; so each root keeps the bits it had when the
solve ran on numpy's complex scalars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .exceptions import DegenerateSystemError, GeometryDomainError, NonUnitRootError
from .lobachevsky import _lobachevsky_float, _sum_in_order, lobachevsky
from .tetra import TetAngles, TetraKind, _memo, require_kind

__all__ = [
    "DUAL_SIDE",
    "HolonomyRoots",
    "OctAngles",
    "O_SIDE",
    "SLOT_ORDER",
    "base_angles",
    "bar_solution",
    "holonomy_polynomial",
    "holonomy_residual",
    "linear_residuals",
    "octahedron_angles",
    "octahedron_volume",
    "slots",
    "solve_holonomy",
    "tet_volume",
    "u_volume",
    "volume_remainder",
]

_PI = math.pi
_TWO_PI = 2 * math.pi

#: Slot names by position: bar + Z at the even (plus) positions, bar - Z at the odd ones.
SLOT_ORDER = ("AB", "BA", "BC", "CB", "CD", "DC", "DA", "AD")

#: Roots further than this from the unit circle mean Z is not real.
UNIT_ROOT_TOL = 1e-6


#: Side labels of the octahedron O and its dual O'.
O_SIDE = "O"
DUAL_SIDE = "O'"


def wrap_angle(x: float) -> float:
    """Reduce mod 2*pi into (-pi, pi]."""
    r = x - _TWO_PI * math.floor(x / _TWO_PI + 0.5)
    if r <= -_PI:
        r += _TWO_PI
    return r


def slots(bars, Z: float) -> tuple[float, ...]:
    """The eight slot angles at offset Z, in SLOT_ORDER: bar + Z at the even
    (plus) positions, bar - Z at the odd (minus) ones."""
    return (bars[0] + Z, bars[1] - Z, bars[2] + Z, bars[3] - Z,
            bars[4] + Z, bars[5] - Z, bars[6] + Z, bars[7] - Z)


@dataclass(frozen=True)
class HolonomyRoots:
    """The solved angle system of one tetrahedron: the bar solution and both
    roots of the holonomy quadratic with semantic labels.

    Z_minus / Z_plus are the angle offsets, fixed mod pi: z = exp(i Z) are
    the two unit-circle roots, of which z_minus (Murakami-Yano's root, see
    the module docstring) assembles the positive tetrahedron volume and
    z_plus its negative; tet_volume assembles them.  The quadratic itself
    is holonomy_polynomial(bars)[1:4]; the class is classify(t).
    """

    bars: tuple[float, ...]
    Z_minus: float
    Z_plus: float
    discriminant: complex
    unit_defect: float


@dataclass(frozen=True)
class OctAngles:
    """Solved slot angles of one octahedron (O or its dual), in SLOT_ORDER and
    each in (-pi, pi], with the base angles a..h of that octahedron
    (supplementary for the dual)."""

    slots: tuple[float, ...]
    base: tuple[float, ...]


def base_angles(t: TetAngles) -> tuple[float, ...]:
    """The known angles of the octahedron, in a..h order: quadrilateral angles
    a..d at the four projected vertices, then ring angles e..h on the four
    remaining edges."""
    A, B, C, Ap, Bp, Cp = t.as_tuple()
    return ((_PI - Cp + A + Bp) / 2, (_PI - Bp + A + Cp) / 2,
            (_PI - A - B - C) / 2, (_PI - A + B + C) / 2,
            (_PI - A - Bp - Cp) / 2, (_PI - Ap + Bp + C) / 2,
            (_PI - C + A + B) / 2, (_PI - B + Ap + Cp) / 2)


def bar_solution(t: TetAngles) -> tuple[float, ...]:
    """A particular solution of the linear constraints (the slots at Z = 0),
    in SLOT_ORDER."""
    return _bars(*t.as_tuple())


def _bars(A: float, B: float, C: float, Ap: float, Bp: float, Cp: float) -> tuple[float, ...]:
    return ((A + Ap + 2 * Bp) / 4, (_TWO_PI + A - Ap + 2 * Cp) / 4,
            (A + Ap - 2 * Bp) / 4, (_TWO_PI - A + Ap - 2 * C) / 4,
            (-A - Ap - 2 * B) / 4, (_TWO_PI - A + Ap + 2 * C) / 4,
            (-A - Ap + 2 * B) / 4, (_TWO_PI + A - Ap - 2 * Cp) / 4)


def holonomy_polynomial(bars: tuple[float, ...]) -> tuple[complex, ...]:
    """Coefficients (w^4, w^3, w^2, w^1, w^0) of the holonomy condition in
    w = z^2, as Python complex.  The w^4 and w^0 coefficients vanish
    identically because the plus bars (even positions) sum to 0 and the
    minus bars (odd positions) to 2*pi, leaving a quadratic.

    Straight-line: the elementary symmetric sums of the squared plus and
    minus phases take each product and addition in itertools.combinations
    order from 0j.  cmath.exp is read at call time, so that sympy can stand
    in for it (tests/test_certificates.py).  The solve divides these
    coefficients as numpy would (module docstring).
    """
    exp = cmath.exp
    p0, p1, p2, p3 = exp(1j * bars[0]), exp(1j * bars[2]), exp(1j * bars[4]), exp(1j * bars[6])
    m0, m1, m2, m3 = exp(1j * bars[1]), exp(1j * bars[3]), exp(1j * bars[5]), exp(1j * bars[7])
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


def _remainder_args(A: float, B: float, C: float, Ap: float, Bp: float, Cp: float) -> tuple[float, ...]:
    """The 16 series arguments of volume_remainder, in the order of
    _remainder_sum's signs."""
    return ((_PI + A - B - C) / 2, (_PI + B - A - C) / 2, (_PI + C - A - B) / 2, (_PI + Bp - Ap - C) / 2,
            (_PI + A + B + C) / 2, (_PI + C - Ap - Bp) / 2, (_PI - Ap + Bp + C) / 2, (_PI + Ap + Bp + C) / 2,
            (_PI + Ap - B - Cp) / 2, (_PI + A + Bp + Cp) / 2, (_PI + A - Bp - Cp) / 2, (_PI + Bp - A - Cp) / 2,
            (_PI - Ap - B + Cp) / 2, (_PI + Ap - B + Cp) / 2, (_PI + Ap + B + Cp) / 2, (_PI - A - Bp + Cp) / 2)


def _remainder_sum(v) -> float:
    """Half the signed sum of the series values v at the 16 _remainder_args,
    from 0.0 in order: x - v is x + (-v), so each term adds its signed value
    as _sum_in_order would."""
    return 0.5 * (0.0 + v[0] - v[1] - v[2] + v[3] + v[4] + v[5] + v[6] - v[7]
                  + v[8] - v[9] - v[10] + v[11] - v[12] + v[13] + v[14] + v[15])


#: as_tuple() index -> the 8 positions of _remainder_args that angle enters:
#: those a unit step in it moves from the arguments at zero angles
_REMAINDER_TERMS_OF = tuple(
    tuple(k for k, (a, b) in enumerate(zip(_remainder_args(*[0.0] * 6), _remainder_args(*step))) if a != b)
    for step in ([float(j == i) for j in range(6)] for i in range(6)))


def volume_remainder(t: TetAngles) -> float:
    """The Z-independent half-sum completing the volume formula: the 16
    series values t keeps (_remainder_values), summed with the signs of
    _remainder_sum."""
    return _remainder_sum(_remainder_values(t))


def _remainder_values(t: TetAngles) -> list[float]:
    """The series values at t's 16 _remainder_args, kept on t (see
    tetra._memo) as a list that readers copy before they write: CPython
    keeps up to 2000 freed 16-tuples, which raised the `formula` benchmark's
    peak RSS by 0.2 MB.  Each angle enters 8 of the 16 arguments
    (_REMAINDER_TERMS_OF), so a step in one angle keeps the other 8 values."""
    return _memo(t, "_remainder_values", lambda t: list(map(_lobachevsky_float, _remainder_args(*t.as_tuple()))))


def _slot_sum(bars: tuple[float, ...], Z: float) -> float:
    """Sum of the eight Lobachevsky slot terms at angle offset Z."""
    return _sum_in_order(map(_lobachevsky_float, slots(bars, Z)))


def solve_holonomy(t: TetAngles) -> HolonomyRoots:
    """Solve the holonomy quadratic and label the roots semantically.

    Accepts Finite and Ideal tetrahedra; Hyperideal input is solved as well
    (there the octahedron is honestly embedded); classify(t) tells it apart.
    Invalid input raises GeometryDomainError.  Roots off the unit circle
    beyond UNIT_ROOT_TOL raise NonUnitRootError; a collapsed quadratic
    raises DegenerateSystemError with diagnostics.

    A TetAngles keeps its roots, solved on the first call, as it keeps its
    class (see tetra._memo).
    """
    return _memo(t, "_holonomy_roots", _holonomy_roots)


def _holonomy_roots(t: TetAngles) -> HolonomyRoots:
    kind = require_kind(t, TetraKind.FINITE, TetraKind.IDEAL, TetraKind.HYPERIDEAL).kind
    bars = bar_solution(t)
    return HolonomyRoots(bars, *_solve_holonomy(bars, kind))


def _solve_holonomy(bars: tuple[float, ...], kind: TetraKind) -> tuple[float, float, complex, float]:
    """(Z_minus, Z_plus, discriminant, unit_defect) of the holonomy quadratic
    of bars, gated as solve_holonomy says; a NonUnitRootError reports kind.
    Both divisions are numpy's, written out (module docstring)."""
    _, q2, q1, q0, _ = holonomy_polynomial(bars)
    scale = max(abs(q2), abs(q1), abs(q0))
    if scale < 1e-12 or abs(q2) < 1e-13 * max(1.0, scale):
        raise DegenerateSystemError(
            "holonomy quadratic collapsed",
            {"|w2|": abs(q2), "|w1|": abs(q1), "|w0|": abs(q0)},
        )
    disc = q1 * q1 - 4 * q2 * q0
    sq = cmath.sqrt(disc)
    d = 2 * q2
    # the roots w = (-q1 +- sq) / d, Smith's branch chosen by d
    dr, di, ar, ai, sr, si = d.real, d.imag, -q1.real, -q1.imag, sq.real, sq.imag
    ur, ui, vr, vi = ar + sr, ai + si, ar - sr, ai - si
    if abs(dr) >= abs(di):
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        w0 = complex((ur + ui * rat) * scl, (ui - ur * rat) * scl)
        w1 = complex((vr + vi * rat) * scl, (vi - vr * rat) * scl)
    else:
        rat = dr / di
        scl = 1.0 / (di + dr * rat)
        w0 = complex((ur * rat + ui) * scl, (ui * rat - ur) * scl)
        w1 = complex((vr * rat + vi) * scl, (vi * rat - vr) * scl)
    r0, r1 = abs(w0), abs(w1)
    defect = max(abs(math.sqrt(r0) - 1.0), abs(math.sqrt(r1) - 1.0))
    if defect > UNIT_ROOT_TOL:
        raise NonUnitRootError(
            f"holonomy root off the unit circle (|z|-1 = {defect:.3e}); "
            "no real angle offset exists",
            {"unit_defect": defect, "class": kind.value},
        )
    # project onto the unit circle, the defect kept as a diagnostic: w over
    # r + 0i by Smith's first branch, whose ratio is 0.0 and scale 1 / r
    s0, s1 = 1.0 / r0, 1.0 / r1
    Z0 = math.atan2((w0.imag - w0.real * 0.0) * s0, (w0.real + w0.imag * 0.0) * s0) / 2
    Z1 = math.atan2((w1.imag - w1.real * 0.0) * s1, (w1.real + w1.imag * 0.0) * s1) / 2
    # the root -q1 - 4i sqrt(-det G) over 2 q2 (module docstring)
    return (Z1, Z0, disc, defect) if si > 0 else (Z0, Z1, disc, defect)


def octahedron_angles(t: TetAngles, which: str = O_SIDE) -> OctAngles:
    """Slot angles of the octahedron (which = O_SIDE) or its dual (DUAL_SIDE).

    The dual octahedron is the octahedron of the supplementary data: every
    dihedral angle, base angles included, is pi minus that of O, so its bars
    are -bar at the plus positions and pi - bar at the minus ones.  Its
    offset is driven by the other root (the dual quadratic is the reciprocal
    of the original, so its geometric root is the inverse of z_plus, i.e. the
    offset is -Z_plus).  Any other side raises GeometryDomainError.
    """
    if which not in (O_SIDE, DUAL_SIDE):
        raise GeometryDomainError(f"side must be {O_SIDE!r} or {DUAL_SIDE!r}, got {which!r}")
    roots = solve_holonomy(t)
    bars, base, Z = roots.bars, base_angles(t), roots.Z_minus
    if which == DUAL_SIDE:
        bars = tuple(_PI - x if k % 2 else -x for k, x in enumerate(bars))
        base, Z = tuple(_PI - x for x in base), -roots.Z_plus
    return OctAngles(tuple(wrap_angle(x) for x in slots(bars, Z)), base)


def linear_residuals(oct_angles: OctAngles) -> tuple[float, ...]:
    """Residuals of the eight linear constraints against the octahedron's own
    base angles, wrapped mod 2*pi: plus slot 2k meets slot 2k - 1 at
    quadrilateral vertex k and slot 2k + 1 across ring edge k."""
    s, base = oct_angles.slots, oct_angles.base
    raw = []
    for k in range(4):
        raw += [s[2 * k] + s[2 * k - 1] - base[k], s[2 * k] + s[2 * k + 1] + base[4 + k] - _PI]
    return tuple(abs(wrap_angle(x)) for x in raw)


def holonomy_residual(oct_angles: OctAngles) -> float:
    """|product of sine ratios - 1| for the solved slot angles."""
    s = oct_angles.slots
    num = math.sin(s[0]) * math.sin(s[2]) * math.sin(s[4]) * math.sin(s[6])
    den = math.sin(s[1]) * math.sin(s[3]) * math.sin(s[5]) * math.sin(s[7])
    return abs(num / den - 1.0)


def octahedron_volume(oct_angles: OctAngles) -> float:
    """Volume as the twelve-term Lobachevsky sum over four ideal tetrahedra.

    For a finite source tetrahedron the continued octahedron O can have
    negative volume; O and its dual always satisfy V(O) + V(O') = 2 V(T).
    """
    return (_sum_in_order(map(lobachevsky, oct_angles.slots))
            + _sum_in_order(map(lobachevsky, oct_angles.base[4:])))


def u_volume(t: TetAngles) -> float:
    """Volume of the fully extended polyhedron (all edges pushed to infinity).

    Octahedron slot terms plus the Lobachevsky terms of the six original
    angles and the eight prism/tetra correction terms, exactly as the
    construction regroups them.
    """
    roots = solve_holonomy(t)
    A, B, C, Ap, Bp, Cp = t.as_tuple()
    extra = (
        (+1, (_PI - A - Bp - Cp) / 2),
        (+1, (_PI + Ap - B - Cp) / 2),
        (+1, (_PI + Bp - A - Cp) / 2),
        (+1, (_PI + Cp - A - Bp) / 2),
        (+1, (_PI + A - B - C) / 2),
        (+1, (_PI + C - Ap - Bp) / 2),
        (+1, (_PI + Bp - Ap - C) / 2),
        (-1, (_PI + Ap + Bp + C) / 2),
    )
    total = _slot_sum(roots.bars, roots.Z_minus)
    total += _sum_in_order(map(lobachevsky, (A, Ap, B, Bp, C, Cp)))
    total += _sum_in_order(s * lobachevsky(x) for s, x in extra)
    return total


def tet_volume(t: TetAngles, root: str = "minus") -> float:
    """Hyperbolic volume of the tetrahedron (root="minus"), or its negative
    (root="plus", the dual-route identity): the eight slot terms at that root
    of solve_holonomy plus volume_remainder(t).  Finite or Ideal input only;
    others raise, and so does a volume below -1e-12 at Z_minus
    (DegenerateSystemError, for either root).

    A TetAngles keeps its volume and the series values of its remainder,
    assembled on the first call, as it keeps its roots (see tetra._memo)."""
    if root not in ("minus", "plus"):
        raise GeometryDomainError(f"root must be 'minus' or 'plus', got {root!r}")
    volume = _memo(t, "_tet_volume", _tet_volume)
    if root == "minus":
        return volume
    roots = solve_holonomy(t)
    return _slot_sum(roots.bars, roots.Z_plus) + volume_remainder(t)


def _tet_volume(t: TetAngles) -> float:
    """The volume at Z_minus, behind tet_volume's class gate and its
    negative-volume gate."""
    kind = require_kind(t, TetraKind.FINITE, TetraKind.IDEAL).kind
    roots = solve_holonomy(t)
    return _gated_volume(roots.bars, roots.Z_minus, volume_remainder(t), kind)


def _gated_volume(bars: tuple[float, ...], Z_minus: float, remainder: float, kind: TetraKind) -> float:
    """The slot sum at Z_minus plus remainder, gated as tet_volume says."""
    volume = _slot_sum(bars, Z_minus) + remainder
    if volume < -1e-12:
        raise DegenerateSystemError(
            "the labeled holonomy root yields a negative volume",
            {"volume": volume, "class": kind.value},
        )
    return volume


def _step_volume(x, i: int, source: TetAngles) -> float:
    """tet_volume of the six angles x, Finite by the caller's word, one step
    in angle i from source: the 8 remainder terms angle i enters are
    evaluated afresh, the other 8 (equal doubles of equal angles) read from
    _remainder_values(source); then its bars, roots, sum and gates, with no
    instance, class or memo, so the volume keeps its bits."""
    args, v = _remainder_args(*x), _remainder_values(source).copy()
    for k in _REMAINDER_TERMS_OF[i]:
        v[k] = _lobachevsky_float(args[k])
    bars = _bars(*x)
    return _gated_volume(bars, _solve_holonomy(bars, TetraKind.FINITE)[0], _remainder_sum(v), TetraKind.FINITE)
