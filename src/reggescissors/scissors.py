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
into the other.  R_a and R_c reduce to R_b by conjugation with pair swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DegenerateSystemError, GeometryDomainError
from .lobachevsky import _lobachevsky_float, _sum_in_order
from .octahedron import DUAL_SIDE, O_SIDE, SLOT_ORDER, slots, solve_holonomy, tet_volume, wrap_angle
from .tetra import (
    _RELABEL_ROWS,
    SWAP_AB_PAIRS,
    SWAP_BC_PAIRS,
    TetAngles,
    TetraKind,
    _memo,
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

#: Vertex relabeling of the R_b image that aligns its default octahedron
#: construction with the permuted construction of the source: the crossed
#: (A,A') <-> (C,C') pair swap sending (A,B,C,A',B',C') to (C',B,A',C,B',A).
REGGE_B_IMAGE_RELABEL = (2, 1, 0, 3)

#: Conjugating relabel that turns each transform into the b-transform.
PAIR_CONJUGATION = {"a": SWAP_AB_PAIRS, "b": None, "c": SWAP_BC_PAIRS}

#: Canonical angles closer to zero than this are null pieces.
NULL_PIECE_TOL = 1e-12

#: (side, slot) of each decomposition position: O, then O', each in SLOT_ORDER.
PIECE_LABELS = tuple((side, slot) for side in (O_SIDE, DUAL_SIDE) for slot in SLOT_ORDER)

#: Piece order with BA (position 1) and DC (position 5) exchanged on both
#: sides: the congruence move of R_b.
_REGGE_B_EXCHANGE = (0, 5, 2, 3, 4, 1, 6, 7, 8, 13, 10, 11, 12, 9, 14, 15)

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
    """Apply one Regge transform, a total affine involution; classify() judges the image.

    t keeps its image under each move (see tetra._memo), so the checks and the orbit
    that read one image classify and solve it once."""
    move = lambda s: TetAngles(*_move(s.as_tuple(), which)[1])
    # an unknown move raises in _move before anything is kept
    return _memo(t, f"_regge_{which}", move) if which in _MOVED else move(t)


def canonical_angle(x: float) -> float:
    """Reduce a Lobachevsky argument mod pi into (-pi/2, pi/2].

    The piece with canonical angle theta has signed volume lob(theta);
    printed minus signs are folded in through oddness before calling this.
    Values within NULL_PIECE_TOL of zero collapse to exactly 0.0.
    """
    r = wrap_angle(x, _PI)
    if abs(r) < NULL_PIECE_TOL:
        return 0.0
    return r


@dataclass(frozen=True)
class Decomposition:
    """The sixteen-piece decomposition of two copies of the source tetrahedron.

    raw_angles[k] is the slot expression of piece PIECE_LABELS[k] before
    reduction (sign folded for dual pieces).  A piece with canonical angle
    theta is half an isosceles ideal tetrahedron of apex angle 2*theta and
    has signed volume lob(theta).
    """

    raw_angles: tuple[float, ...]

    def canonical_angles(self) -> tuple[float, ...]:
        return tuple(map(canonical_angle, self.raw_angles))

    def total_volume(self) -> float:
        return _sum_in_order(map(_lobachevsky_float, self.canonical_angles()))


def decompose(t: TetAngles) -> Decomposition:
    """Decompose 2T into sixteen signed pieces (firepole on the (A,A') pair).

    Finite sources are the main case; Ideal sources are accepted (classify(t)
    shows the degeneracy); Hyperideal and Invalid raise.
    """
    require_kind(t, TetraKind.FINITE, TetraKind.IDEAL)
    roots = solve_holonomy(t)
    dual = slots(roots.bars, roots.Z_plus)
    return Decomposition(slots(roots.bars, roots.Z_minus) + tuple(-x for x in dual))


def permute_for_regge_b(d: Decomposition) -> Decomposition:
    """The congruence move: exchange the BA and DC pieces on both octahedra,
    then mirror.  The mirror is an isometry of every piece (each L(theta) is
    bilaterally symmetric), so it moves no volume and leaves no trace in the
    angles; the piece multiset is exactly preserved."""
    return Decomposition(tuple(d.raw_angles[k] for k in _REGGE_B_EXCHANGE))


@dataclass(frozen=True)
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
        return PAIR_CONJUGATION[self.which]

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
    slot by slot after the BA/DC exchange: the volume gap and the largest
    piece-angle gap must each be at most tol.

    For which='b' the check is direct.  For 'a' and 'c' it checks the
    relabelings of t and of its image by the corresponding pair swap: the
    relabeled image has the angles of R_b of the relabeled source (the move
    adds the same four angles in the same order), and both relabelings take
    their class from t and its image.  Invalid or degenerate configurations
    produce a failed report rather than an exception; a tol outside
    (0, inf) raises GeometryDomainError.  The image of a Finite source is
    Finite (each move permutes the vertex-link forms), so the image class is
    checked only as a guard against rounding at the classification tolerance.
    """
    if not 0 < tol < math.inf:
        raise GeometryDomainError("tol must be positive and finite")
    transformed = regge(t, which)
    kind_t = classify(t).kind
    kind_i = classify(transformed).kind
    conj = PAIR_CONJUGATION[which]
    t0, image = (relabel(t, conj), relabel(transformed, conj)) if conj else (t, transformed)
    measured, failure = {}, None
    if kind_t is not TetraKind.FINITE:
        failure = f"source tetrahedron is {kind_t.value}, not Finite"
    elif kind_i is not TetraKind.FINITE:
        failure = f"transform image is {kind_i.value}, not Finite"
    else:
        try:
            moved = permute_for_regge_b(decompose(t0)).canonical_angles()
            aligned = decompose(relabel(image, REGGE_B_IMAGE_RELABEL)).canonical_angles()
            measured = {"volume": tet_volume(t0), "volume_image": tet_volume(image),
                        "slot_gap": max(abs(a - b) for a, b in zip(moved, aligned))}
        except DegenerateSystemError as exc:
            failure = f"angle system degenerate: {exc}"
    return ScissorsReport(which, tol, transformed, failure=failure, **measured)


@dataclass(frozen=True)
class OrbitResult:
    members: tuple[TetAngles, ...]
    volumes: tuple[float, ...]


#: Orbit members this close (max-norm) after some relabeling are the same.
ORBIT_MATCH_TOL = 1e-10
#: Entry j: the relabel() rows (tetra._RELABEL_ROWS) that read angle j into position 0.
_ROWS_FROM = tuple(tuple(r for r in _RELABEL_ROWS.values() if r[0] == j) for j in range(6))


def _relabels_onto(x: tuple[float, ...], m: tuple[float, ...]) -> bool:
    """True when some relabeling of the angles x is within ORBIT_MATCH_TOL of m.

    A relabeling permutes the six angles, so one within the tolerance in
    max-norm puts the two minimum angles within it too (float subtraction
    is monotone): the rows are tried only where the minima are that close."""
    return abs(min(x) - min(m)) < ORBIT_MATCH_TOL and any(
        all(abs(x[k] - mk) < ORBIT_MATCH_TOL for k, mk in zip(row, m))
        for j in range(6) if abs(x[j] - m[0]) < ORBIT_MATCH_TOL for row in _ROWS_FROM[j])


def regge_orbit(t: TetAngles) -> OrbitResult:
    """The Regge orbit of t up to relabeling.

    The moves and the 24 relabelings generate S3 x S4, so the orbit is the six words
    t, R_a t, R_b t, R_c t, R_b R_a t, R_c R_a t (proved in tests/test_certificates.py),
    each kept unless a relabeling of it matches an earlier member: at most six members.
    Each word is regge's image, kept on its source: after verify_scissors(t, w) the
    orbit classifies R_w t no more, and after verify_scissors(t, "b") it solves R_b t
    no more."""
    ra = regge(t, "a")
    members: list[TetAngles] = []
    for word in (t, ra, regge(t, "b"), regge(t, "c"), regge(ra, "b"), regge(ra, "c")):
        if not any(_relabels_onto(word.as_tuple(), m.as_tuple()) for m in members):
            members.append(word)
    volumes = []
    for m in members:
        kind = classify(m).kind
        volumes.append(tet_volume(m) if kind in (TetraKind.FINITE, TetraKind.IDEAL) else math.nan)
    return OrbitResult(tuple(members), tuple(volumes))
