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
some slot angles leave (0, pi) and some pieces carry negative volume.  Root
labeling therefore uses the sign of the assembled tetrahedron volume, which
is the criterion that survives continuation (in the honestly embedded
hyperideal regime it coincides with all slots lying in (0, pi)).

The rule takes the root with the larger assembled volume.  The two volumes
are v and -v + e with |e| far below LABEL_MARGIN, so one volume above
LABEL_MARGIN settles the labels: the solve assembles first the volume at
the root the branch of sqrt(disc) predicts (the discriminant is 16 det G, a
negative real, and Murakami-Yano's +V root is (-q1 - 4i sqrt(-det G)) /
(2 q2)), and assembles the other only when that one is not above the
margin (a near-Euclidean volume, or a wrong prediction).  The prediction
only orders the tries: the labels and volumes are those of the rule, bit
for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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

#: A volume above this at the first root tried labels it z_minus at once
#: (module docstring); |V_plus + V| stays below 1e-9 on every checked input.
LABEL_MARGIN = 1e-9


#: Side labels of the octahedron O and its dual O'.
O_SIDE = "O"
DUAL_SIDE = "O'"


def wrap_angle(x: float, period: float = _TWO_PI) -> float:
    """Reduce mod period into (-period/2, period/2]."""
    r = x - period * math.floor(x / period + 0.5)
    if r <= -period / 2:
        r += period
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
    the two unit-circle roots, of which z_minus assembles the positive
    tetrahedron volume and z_plus its negative.  volume_minus is the
    assembled volume at Z_minus; volume_plus, the one at Z_plus, is
    assembled when it is read, from the Z-independent remainder
    (volume_remainder(t)) kept here.  The quadratic itself is
    holonomy_polynomial(bars)[1:4]; the class is classify(t).
    """

    bars: tuple[float, ...]
    Z_minus: float
    Z_plus: float
    volume_minus: float
    remainder: float
    discriminant: complex
    unit_defect: float

    @property
    def volume_plus(self) -> float:
        return _slot_sum(self.bars, self.Z_plus) + self.remainder


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
    A, B, C, Ap, Bp, Cp = t.as_tuple()
    return ((A + Ap + 2 * Bp) / 4, (_TWO_PI + A - Ap + 2 * Cp) / 4,
            (A + Ap - 2 * Bp) / 4, (_TWO_PI - A + Ap - 2 * C) / 4,
            (-A - Ap - 2 * B) / 4, (_TWO_PI - A + Ap + 2 * C) / 4,
            (-A - Ap + 2 * B) / 4, (_TWO_PI + A - Ap - 2 * Cp) / 4)


def _symmetric_sums(v0, v1, v2, v3):
    """The elementary symmetric sums e1, e2, e3 of four complex numbers, each
    product and addition in itertools.combinations order from 0j."""
    return (0j + v0 + v1 + v2 + v3,
            0j + v0 * v1 + v0 * v2 + v0 * v3 + v1 * v2 + v1 * v3 + v2 * v3,
            0j + v0 * v1 * v2 + v0 * v1 * v3 + v0 * v2 * v3 + v1 * v2 * v3)


def holonomy_polynomial(bars: tuple[float, ...]) -> np.ndarray:
    """Coefficients [w^4, w^3, w^2, w^1, w^0] of the holonomy condition in
    w = z^2.  The w^4 and w^0 coefficients vanish identically because the
    plus bars (even positions) sum to 0 and the minus bars (odd positions)
    to 2*pi, leaving a quadratic.
    """
    alphas = [cmath.exp(1j * x) for x in bars[0::2]]
    betas = [cmath.exp(1j * x) for x in bars[1::2]]
    a1, a2, a3 = _symmetric_sums(*(a * a for a in alphas))
    b1, b2, b3 = _symmetric_sums(*(b * b for b in betas))
    pa = alphas[0] * alphas[1] * alphas[2] * alphas[3]
    pb = betas[0] * betas[1] * betas[2] * betas[3]
    return np.array(
        [pa - 1 / pb, b1 / pb - a3 / pa, a2 / pa - b2 / pb, b3 / pb - a1 / pa, 1 / pa - pb],
        dtype=complex,
    )


def volume_remainder(t: TetAngles) -> float:
    """The Z-independent half-sum completing the volume formula."""
    A, B, C, Ap, Bp, Cp = t.as_tuple()
    lob = _lobachevsky_float
    return 0.5 * _sum_in_order((
        +lob((_PI + A - B - C) / 2),
        -lob((_PI + B - A - C) / 2),
        -lob((_PI + C - A - B) / 2),
        +lob((_PI + Bp - Ap - C) / 2),
        +lob((_PI + A + B + C) / 2),
        +lob((_PI + C - Ap - Bp) / 2),
        +lob((_PI - Ap + Bp + C) / 2),
        -lob((_PI + Ap + Bp + C) / 2),
        +lob((_PI + Ap - B - Cp) / 2),
        -lob((_PI + A + Bp + Cp) / 2),
        -lob((_PI + A - Bp - Cp) / 2),
        +lob((_PI + Bp - A - Cp) / 2),
        -lob((_PI - Ap - B + Cp) / 2),
        +lob((_PI + Ap - B + Cp) / 2),
        +lob((_PI + Ap + B + Cp) / 2),
        +lob((_PI - A - Bp + Cp) / 2),
    ))


def _slot_sum(bars: tuple[float, ...], Z: float) -> float:
    """Sum of the eight Lobachevsky slot terms at angle offset Z."""
    return _sum_in_order(map(_lobachevsky_float, slots(bars, Z)))


def solve_holonomy(t: TetAngles) -> HolonomyRoots:
    """Solve the holonomy quadratic and label the roots semantically.

    Accepts Finite and Ideal tetrahedra; Hyperideal input is solved as well
    (there the octahedron is honestly embedded); classify(t) tells it apart.
    Invalid input raises GeometryDomainError.  Roots off the unit circle
    beyond UNIT_ROOT_TOL raise NonUnitRootError; a collapsed quadratic or a
    failed sign test raises DegenerateSystemError with diagnostics.

    A TetAngles keeps its roots, solved on the first call, as it keeps its
    class (see tetra._memo).
    """
    return _memo(t, "_holonomy_roots", lambda t: _solve_holonomy(t, bar_solution(t)))


def _solve_holonomy(t: TetAngles, bars: tuple[float, ...]) -> HolonomyRoots:
    kind = require_kind(t, TetraKind.FINITE, TetraKind.IDEAL, TetraKind.HYPERIDEAL).kind
    poly = holonomy_polynomial(bars)
    q2, q1, q0 = poly[1], poly[2], poly[3]
    scale = max(abs(q2), abs(q1), abs(q0))
    if scale < 1e-12 or abs(q2) < 1e-13 * max(1.0, scale):
        raise DegenerateSystemError(
            "holonomy quadratic collapsed",
            {"|w2|": abs(q2), "|w1|": abs(q1), "|w0|": abs(q0)},
        )
    disc = q1 * q1 - 4 * q2 * q0
    sq = cmath.sqrt(disc)
    w_candidates = [(-q1 + sq) / (2 * q2), (-q1 - sq) / (2 * q2)]
    defect = max(abs(math.sqrt(abs(w)) - 1.0) for w in w_candidates)
    if defect > UNIT_ROOT_TOL:
        raise NonUnitRootError(
            f"holonomy root off the unit circle (|z|-1 = {defect:.3e}); "
            "no real angle offset exists",
            {"unit_defect": defect, "class": kind.value},
        )
    # project onto the unit circle; the defect is recorded as a diagnostic
    w_candidates = [w / abs(w) for w in w_candidates]
    Zs = [cmath.phase(w) / 2 for w in w_candidates]
    remainder = volume_remainder(t)
    # the root -q1 - 4i sqrt(-det G) over 2 q2 first (module docstring)
    im = 1 if sq.imag > 0 else 0
    volume = _slot_sum(bars, Zs[im]) + remainder
    if not volume > LABEL_MARGIN:
        vols = [_slot_sum(bars, Z) + remainder for Z in Zs]
        im = 0 if vols[0] >= vols[1] else 1
        if vols[im] < -1e-12:
            raise DegenerateSystemError(
                "neither holonomy root yields a nonnegative volume",
                {"volume_candidates": tuple(vols), "class": kind.value},
            )
        volume = vols[im]
    return HolonomyRoots(
        bars=bars,
        Z_minus=Zs[im],
        Z_plus=Zs[1 - im],
        volume_minus=volume,
        remainder=remainder,
        discriminant=disc,
        unit_defect=defect,
    )


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
    (root="plus", the dual-route identity): the volume assembled at that
    root of solve_holonomy.  Finite or Ideal input only; others raise."""
    if root not in ("minus", "plus"):
        raise GeometryDomainError(f"root must be 'minus' or 'plus', got {root!r}")
    require_kind(t, TetraKind.FINITE, TetraKind.IDEAL)
    roots = solve_holonomy(t)
    return roots.volume_minus if root == "minus" else roots.volume_plus
