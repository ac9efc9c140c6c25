"""Regge transforms, the 16-piece decomposition of 2T, and the congruence check.

Doubling a finite hyperbolic tetrahedron T yields, through the octahedron
construction, a decomposition of 2T into sixteen signed pieces L(theta):
halves of bilaterally symmetric ideal tetrahedra with signed volume
lob(theta).  Eight pieces come from the octahedron O (slot angles
bar +- Z_minus) and eight from its dual (negated slot angles at Z_plus); the
four ring pieces of O cancel against their supplementary partners in the
dual and never appear.

The Regge transform R_b fixes (B, B') and replaces the other four angles by
s_b - x with s_b = (A + C + A' + C')/2.  Composing R_b with the crossed pair
relabeling A -> C', C' -> A, A' -> C, C -> A' reproduces the original bar
solution except that the BA and DC bars trade places, and leaves the
holonomy quadratic untouched.  The congruence of 2T and 2 R_b(T) is thereby
visible slot by slot: swapping the BA and DC pieces (and their dual
partners, then mirroring, which moves no volume) turns one decomposition
into the other.  R_c exchanges O with O' piece for piece, with no
relabeling, and R_a is checked on pair-swapped relabelings (_CHECKS).
"""

from __future__ import annotations

import math
import operator

from .exceptions import DegenerateSystemError, GeometryDomainError
from .lobachevsky import _lobachevsky_float, _sum_in_order
from .octahedron import DUAL_SIDE, O_SIDE, SLOT_ORDER, slots, solve_holonomy, tet_volume
from .tetra import (
    _RELABEL_ROWS,
    SWAP_AB_PAIRS,
    TetAngles,
    TetraKind,
    _inherit_class,
    _memo,
    _record,
    classify,
    relabel,
    require_kind,
)

__all__ = [
    "Decomposition",
    "OrbitResult",
    "PIECE_LABELS",
    "REGGE_B_IMAGE_RELABEL",
    "ScissorsReport",
    "canonical_angle",
    "decompose",
    "permute_for_regge_b",
    "regge",
    "regge_orbit",
    "s_value",
    "verify_scissors",
]

_PI = math.pi
_HALF_PI = _PI / 2

#: Vertex relabeling of the R_b image that aligns its default octahedron
#: construction with the permuted construction of the source: the crossed
#: (A,A') <-> (C,C') pair swap sending (A,B,C,A',B',C') to (C',B,A',C,B',A).
REGGE_B_IMAGE_RELABEL = (2, 1, 0, 3)

#: Canonical angles closer to zero than this are null pieces.
NULL_PIECE_TOL = 1e-12

#: (side, slot) of each decomposition position: O, then O', each in SLOT_ORDER.
PIECE_LABELS = tuple((side, slot) for side in (O_SIDE, DUAL_SIDE) for slot in SLOT_ORDER)

#: Piece order with BA (position 1) and DC (position 5) exchanged on both
#: sides: the congruence move of R_b.
_REGGE_B_EXCHANGE = (0, 5, 2, 3, 4, 1, 6, 7, 8, 13, 10, 11, 12, 9, 14, 15)

#: Each move's check: the relabeling of the source and of the image (None
#: keeps it), and the source piece each image piece matches.  (1, 2, 0, 3) is
#: SWAP_AB_PAIRS then REGGE_B_IMAGE_RELABEL; R_c trades O with O' (AB <-> CD,
#: BA <-> AD, BC <-> BC, CB <-> DC and DA <-> DA).
_CHECKS = {
    "a": (SWAP_AB_PAIRS, (1, 2, 0, 3), _REGGE_B_EXCHANGE),
    "b": (None, REGGE_B_IMAGE_RELABEL, _REGGE_B_EXCHANGE),
    "c": (None, None, (12, 15, 10, 13, 8, 11, 14, 9, 4, 7, 2, 5, 0, 3, 6, 1)),
}

#: as_tuple() indices of the four angles each transform moves; the opposite
#: pair it fixes keeps its two angles.
_MOVED = {"a": (1, 2, 4, 5), "b": (0, 2, 3, 5), "c": (0, 1, 3, 4)}


def _move(x, which: str) -> tuple[float, list]:
    """The one move rule, for angles, edge lengths or symbols alike: s, the half-sum of
    the four entries _MOVED[which] names, and x with s - x on those four."""
    if which not in _MOVED:
        raise GeometryDomainError(f"transform must be one of 'a', 'b', 'c', got {which!r}")
    i, j, k, m = _MOVED[which]
    s = (x[i] + x[j] + x[k] + x[m]) / 2
    out = list(x)
    out[i], out[j], out[k], out[m] = s - x[i], s - x[j], s - x[k], s - x[m]
    return s, out


def s_value(t: TetAngles, which: str) -> float:
    """The half-sum s_a, s_b, or s_c of the four angles moved by the transform."""
    return _move(t.as_tuple(), which)[0]


def regge(t: TetAngles, which: str) -> TetAngles:
    """Apply one Regge transform, a total affine involution.  Each move keeps det G and
    permutes the vertex-link forms, so the image of a Finite or Ideal t takes the class
    object of t; any other image is classified on its own.  t keeps its image under each
    move (see tetra._memo): the checks and the orbit solve it once."""
    def image(s: TetAngles) -> TetAngles:
        out = TetAngles(*_move(s.as_tuple(), which)[1])
        if (cls := classify(s)).kind in (TetraKind.FINITE, TetraKind.IDEAL):
            _inherit_class(out, cls)
        return out

    return _memo(t, f"_regge_{which}", image)


def canonical_angle(x: float) -> float:
    """Reduce a Lobachevsky argument mod pi into (-pi/2, pi/2].

    The piece with canonical angle theta has signed volume lob(theta);
    printed minus signs are folded in through oddness before calling this.
    Values within NULL_PIECE_TOL of zero collapse to exactly 0.0.  The
    reduction is octahedron.wrap_angle's floor formula with pi for 2 pi,
    written out here because every piece of every decomposition takes it.
    """
    r = x - _PI * math.floor(x / _PI + 0.5)
    if r <= -_HALF_PI:
        r += _PI
    if abs(r) < NULL_PIECE_TOL:
        return 0.0
    return r


@_record
class Decomposition:
    """The sixteen-piece decomposition of two copies of the source tetrahedron.

    raw_angles[k] is the slot expression of piece PIECE_LABELS[k] before
    reduction (sign folded for dual pieces).  A piece with canonical angle
    theta is half an isosceles ideal tetrahedron of apex angle 2*theta and
    has signed volume lob(theta).
    """

    raw_angles: tuple[float, ...]

    def canonical_angles(self) -> tuple[float, ...]:
        """canonical_angle of each raw angle, reduced on the first call and
        kept on the instance (see tetra._memo)."""
        return _memo(self, "_canonical_angles", lambda d: tuple(map(canonical_angle, d.raw_angles)))

    def total_volume(self) -> float:
        return _sum_in_order(map(_lobachevsky_float, self.canonical_angles()))


def decompose(t: TetAngles) -> Decomposition:
    """Decompose 2T into sixteen signed pieces (firepole on the (A,A') pair).

    Finite sources are the main case; Ideal sources are accepted (classify(t)
    shows the degeneracy); Hyperideal and Invalid raise.

    A TetAngles keeps its decomposition, computed on the first call, as it
    keeps its roots (see tetra._memo).
    """
    require_kind(t, TetraKind.FINITE, TetraKind.IDEAL)
    return _memo(t, "_decomposition", _decompose)


def _decompose(t: TetAngles) -> Decomposition:
    roots = solve_holonomy(t)
    dual = slots(roots.bars, roots.Z_plus)
    return Decomposition(slots(roots.bars, roots.Z_minus) + tuple(-x for x in dual))


def permute_for_regge_b(d: Decomposition) -> Decomposition:
    """The congruence move: exchange the BA and DC pieces on both octahedra,
    then mirror.  The mirror is an isometry of every piece (each L(theta) is
    bilaterally symmetric), so it moves no volume and leaves no trace in the
    angles; the piece multiset is exactly preserved."""
    return Decomposition(tuple(d.raw_angles[k] for k in _REGGE_B_EXCHANGE))


@_record
class ScissorsReport:
    """Outcome of one scissors-congruence check.

    slot_gap is the worst per-slot canonical-angle difference between the
    permuted source decomposition and the aligned image decomposition; the
    check passes when it and volume_gap are each at most tol.  A check that
    could not run keeps the defaults, nan volumes and an infinite slot gap,
    and says why in failure.
    """

    which: str
    tol: float
    transformed: TetAngles
    volume: float = math.nan
    volume_image: float = math.nan
    slot_gap: float = math.inf
    failure: str | None = None

    @property
    def volume_gap(self) -> float:
        return abs(self.volume - self.volume_image)

    @property
    def passed(self) -> bool:
        return self.volume_gap <= self.tol and self.slot_gap <= self.tol

    @property
    def conjugation(self) -> tuple[int, ...] | None:
        return _CHECKS[self.which][0]

    def to_payload(self) -> dict:
        return {
            "which": self.which,
            "passed": self.passed,
            "volume_gap": self.volume_gap,
            "slot_gap": self.slot_gap,
            "conjugation": list(self.conjugation) if self.conjugation else None,
            "tol": self.tol,
            "volume": self.volume,
            "volume_image": self.volume_image,
            "transformed_angles": list(self.transformed.as_tuple()),
            "failure": self.failure,
        }


def verify_scissors(t: TetAngles, which: str, tol: float = 1e-9) -> ScissorsReport:
    """Check numerically that 2T and 2R(T) decompose into the same pieces,
    slot by slot, and report the volumes of t and of regge(t, which): the
    volume gap and the largest piece-angle gap must each be at most tol.

    _CHECKS names the source piece each image piece matches and the
    relabelings the sides are decomposed through (none for 'c'); each side is
    solved on its own.  A source that is not Finite (its image takes its class,
    see regge) or a degenerate system gives a failed report rather than an
    exception; a tol outside (0, inf) raises GeometryDomainError.
    """
    if not 0 < tol < math.inf:
        raise GeometryDomainError("tol must be positive and finite")
    transformed = regge(t, which)
    of_source, of_image, match = _CHECKS[which]
    measured, failure = {}, None
    if (kind := classify(t).kind) is not TetraKind.FINITE:
        failure = f"source tetrahedron is {kind.value}, not Finite"
    else:
        try:
            source = decompose(relabel(t, of_source) if of_source else t).canonical_angles()
            image = decompose(relabel(transformed, of_image) if of_image else transformed).canonical_angles()
            measured = {"volume": tet_volume(t), "volume_image": tet_volume(transformed),
                        "slot_gap": max(abs(source[j] - x) for j, x in zip(match, image))}
        except DegenerateSystemError as exc:
            failure = f"angle system degenerate: {exc}"
    return ScissorsReport(which, tol, transformed, failure=failure, **measured)


@_record
class OrbitResult:
    """The members of a Regge orbit up to relabeling, in regge_orbit's word
    order, and the volume of each (nan for one neither Finite nor Ideal)."""

    members: tuple[TetAngles, ...]
    volumes: tuple[float, ...]


#: Orbit members this close (max-norm) after some relabeling are the same.
ORBIT_MATCH_TOL = 1e-10


def _relabels_onto(x: tuple[float, ...], m: tuple[float, ...]) -> bool:
    """True when some relabeling of the angles x (a row of tetra._RELABEL_ROWS)
    is within ORBIT_MATCH_TOL of m in max-norm."""
    return any(all(abs(x[k] - mk) < ORBIT_MATCH_TOL for k, mk in zip(row, m)) for row in _RELABEL_ROWS.values())


def regge_orbit(t: TetAngles) -> OrbitResult:
    """The Regge orbit of t up to relabeling.

    The moves and the 24 relabelings generate S3 x S4, so the orbit is the six words
    t, R_a t, R_b t, R_c t, R_b R_a t, R_c R_a t (proved in tests/test_certificates.py),
    each kept unless a relabeling of it matches an earlier member: at most six members.
    A word goes to _relabels_onto only against a member whose sorted angles are
    within ORBIT_MATCH_TOL of its own, entry by entry.  That loses no match: a
    relabeling permutes the angles, sorting is 1-Lipschitz in max-norm, and float
    subtraction is monotone, so a relabeling within the tolerance puts the sorted
    angles within it too.
    Each word is regge's image, kept on its source with the class of t when t is Finite
    or Ideal: after verify_scissors(t, w) the orbit solves R_w t no more."""
    ra = regge(t, "a")
    members: list[TetAngles] = []
    seen: list[tuple[tuple[float, ...], list[float]]] = []  # each member's angles, as they are and sorted
    for word in (t, ra, regge(t, "b"), regge(t, "c"), regge(ra, "b"), regge(ra, "c")):
        x = word.as_tuple()
        ordered = sorted(x)
        if not any(max(map(abs, map(operator.sub, ordered, m_ordered))) < ORBIT_MATCH_TOL and _relabels_onto(x, m)
                   for m, m_ordered in seen):
            members.append(word)
            seen.append((x, ordered))
    volumes = []
    for m in members:
        kind = classify(m).kind
        volumes.append(tet_volume(m) if kind in (TetraKind.FINITE, TetraKind.IDEAL) else math.nan)
    return OrbitResult(tuple(members), tuple(volumes))
