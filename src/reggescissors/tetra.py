"""Dihedral-angle data for hyperbolic tetrahedra: classification, prisms, symmetries.

Labeling conventions, fixed for the whole package:

* Vertices are numbered 0..3; face i is the face opposite vertex i.
* Opposite edge pairs carry the angle labels
      edge {0,1} -> A     edge {2,3} -> A'
      edge {0,2} -> B     edge {1,3} -> B'
      edge {0,3} -> C     edge {1,2} -> C'
  so vertex 0 meets (A, B, C), vertex 1 meets (A, B', C'),
  vertex 2 meets (A', B, C'), and vertex 3 meets (A', B', C).
* The Gram matrix is indexed by faces, G[i][i] = 1 and
  G[i][j] = -cos(angle on the edge shared by faces i and j); faces i and j
  intersect along the edge joining the two vertices other than i and j.

Angle data with all angles strictly between 0 and pi, a Gram matrix of
signature (3,1) and all six edge (off-diagonal) cofactors of G positive is a
tetrahedron (Ushijima 2006); anything else is *Invalid*.  A tetrahedron is
*Finite* when all four vertex (diagonal) cofactors of G are positive,
*Hyperideal* when one is negative, whatever the others, and *Ideal* when
none is negative and one vanishes.  The
cofactor of vertex v is the Gram determinant of its link, the spherical
triangle with the angles (a, b, c) of the edges at v:
-4 cos S cos(S-a) cos(S-b) cos(S-c) with S = (a+b+c)/2, positive exactly
when vertex v is finite.  The cofactor of edge {v, w} is det G times the
Minkowski product of the two vertex vectors, so a negative one puts v and w
on opposite sheets of the hyperboloid; see _edge_cofactors for its closed
form.

The signature needs no eigenvalues when |det G| exceeds IDEAL_COFACTOR_TOL
(angles in (0, pi); Ushijima 2006).  Each 2x2 principal block of G has
eigenvalues 1 +- cos x > 0, so by Cauchy interlacing lambda_3 and lambda_4
are positive, and by Gershgorin every eigenvalue lies in (-2, 4).  So
det G < -1e-8 gives lambda_1 lambda_2 < -1e-8 / 16, that is
lambda_1 < -1.5e-10 and lambda_2 > 3.1e-10 (signature (3,1)), and
det G > 1e-8 puts lambda_1 and lambda_2 on the same side of 0 (not (3,1)).
Both margins clear EIGENVALUE_TOL by far more than eigvalsh's backward
error (about 1e-14) and the Laplace det's error (2.8e-16 at most against
40 digits on the benchmark streams), so the eigenvalue test, which decides
the band |det G| <= 1e-8, would return the same class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .exceptions import GeometryDomainError
from .lobachevsky import _sum_in_order, lobachevsky

__all__ = [
    "SWAP_AB_PAIRS",
    "SWAP_BC_PAIRS",
    "GramMatrix",
    "TetAngles",
    "TetraClass",
    "TetraKind",
    "classify",
    "edge_lengths",
    "gram_matrix",
    "ideal_volume",
    "prime_angles",
    "prism_volume",
    "prism_volume_by_tetrahedra",
    "relabel",
    "require_kind",
]

_PI = math.pi

#: Gram signature test tolerance on eigenvalues.
EIGENVALUE_TOL = 1e-10
#: A vertex cofactor this close to zero is an ideal vertex, one below
#: -IDEAL_COFACTOR_TOL a hyperideal vertex; an edge cofactor below
#: -IDEAL_COFACTOR_TOL makes the angle data Invalid.
IDEAL_COFACTOR_TOL = 1e-8

# angle label -> vertex pair of its edge, in _ANGLE_ORDER
_EDGE_OF = {
    "A": (0, 1),
    "B": (0, 2),
    "C": (0, 3),
    "Ap": (2, 3),
    "Bp": (1, 3),
    "Cp": (1, 2),
}
_ANGLE_ORDER = ("A", "B", "C", "Ap", "Bp", "Cp")
# angle label -> the two faces meeting on its edge (those opposite the other two vertices)
_FACES_OF = {name: tuple(m for m in range(4) if m not in edge) for name, edge in _EDGE_OF.items()}
# vertex -> as_tuple() indices of its three angles, one from each opposite
# pair in (A, B, C) order: ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))
_VERTEX_ANGLES = tuple(tuple(k if v in _EDGE_OF[_ANGLE_ORDER[k]] else k + 3 for k in range(3))
                       for v in range(4))
# edge, in _ANGLE_ORDER -> as_tuple() indices (a, b, x, y, x', y') of
# _edge_cofactors: its angle a, the opposite angle b, and the two other angles
# at each end of b's edge, one from each remaining opposite pair
_EDGE_ANGLES = tuple((n, m, *(k for v in _EDGE_OF[_ANGLE_ORDER[m]] for k in _VERTEX_ANGLES[v] if k != m))
                     for n, m in enumerate((3, 4, 5, 0, 1, 2)))
# face pair (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) -> as_tuple() index of
# the angle on their shared edge: (3, 4, 5, 2, 1, 0)
_GRAM_ANGLES = tuple(_ANGLE_ORDER.index(name) for pair in itertools.combinations(range(4), 2)
                     for name, faces in _FACES_OF.items() if faces == pair)

#: 4x4 symmetric, unit diagonal; see the module docstring.  A forward
#: reference, so that importing this module loads no numpy.
GramMatrix = "numpy.ndarray"


@dataclass(frozen=True)
class TetAngles:
    """Six dihedral angles with the opposite-pair labeling (A,A'), (B,B'), (C,C').

    Construction only requires finite values; validity as a hyperbolic
    tetrahedron is decided by :func:`classify`.
    """

    A: float
    B: float
    C: float
    Ap: float
    Bp: float
    Cp: float

    def __post_init__(self):
        for name in _ANGLE_ORDER:
            if not math.isfinite(getattr(self, name)):
                raise GeometryDomainError(f"angle {name} must be finite")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.A, self.B, self.C, self.Ap, self.Bp, self.Cp)

    @classmethod
    def of(cls, values) -> "TetAngles":
        vals = tuple(float(v) for v in values)
        if len(vals) != 6:
            raise GeometryDomainError("expected six angles (A, B, C, A', B', C')")
        return cls(*vals)

    def in_range(self) -> bool:
        """True when every angle lies strictly in (0, pi)."""
        x = self.as_tuple()
        return 0.0 < min(x) and max(x) < _PI


class TetraKind(Enum):
    FINITE = "Finite"
    IDEAL = "Ideal"
    HYPERIDEAL = "Hyperideal"
    INVALID = "Invalid"


@dataclass(frozen=True)
class TetraClass:
    """The class of the angle data and the number behind its signature.

    `det` is det G by Laplace expansion in floats.  When |det| exceeds
    IDEAL_COFACTOR_TOL, its sign alone decides the signature (module
    docstring).  A relabeling or Regge image shares its source's class object.
    """

    kind: TetraKind
    det: float


def prime_angles(A: float, B: float, C: float) -> tuple[float, float, float]:
    """Angles (A', B', C') on the far edges of the prism over a vertex with
    angles (A, B, C).

    Each ideal vertex forces its three dihedral angles to sum to pi, which
    pins the primes as exact affine combinations.
    """
    return (
        (_PI + A - B - C) / 2,
        (_PI + B - A - C) / 2,
        (_PI + C - A - B) / 2,
    )


def ideal_volume(a: float, b: float, c: float) -> float:
    """Volume of the ideal tetrahedron with dihedral angles (a, b, c) on its
    opposite edge pairs: lob(a) + lob(b) + lob(c).

    Angles may be negative (signed pieces of a non-convex object); only the
    angle sum pi is required.
    """
    if abs(a + b + c - _PI) > 1e-9:
        raise GeometryDomainError(
            f"ideal tetrahedron angles must sum to pi (got {a + b + c:.12f})"
        )
    return lobachevsky(a) + lobachevsky(b) + lobachevsky(c)


def prism_volume(A: float, B: float, C: float) -> float:
    """Volume of the doubled 3/4-ideal solid over apex angles (A, B, C).

    For A+B+C < pi this is the convex ideal prism; for A+B+C > pi it is the
    point-symmetric non-convex continuation, twice the 3/4-ideal tetrahedron.
    Both regimes share one formula.
    """
    Ap, Bp, Cp = prime_angles(A, B, C)
    terms = [A, Ap, B, Bp, C, Cp]
    return _sum_in_order(map(lobachevsky, terms)) - lobachevsky((_PI + A + B + C) / 2)


def prism_volume_by_tetrahedra(A: float, B: float, C: float) -> float:
    """The same volume assembled from the three-tetrahedron triangulation.

    Independent regrouping used as an internal consistency check against
    :func:`prism_volume`: the prism splits into ideal tetrahedra with angle
    triples (A', B', C), (A, B', C') and (C'-C, B, pi-B'), the last one
    signed in the non-convex regime.
    """
    Ap, Bp, Cp = prime_angles(A, B, C)
    return ideal_volume(Ap, Bp, C) + ideal_volume(A, Bp, Cp) + ideal_volume(Cp - C, B, _PI - Bp)


def gram_matrix(t: TetAngles) -> GramMatrix:
    """Gram matrix of face normals; see the module docstring for conventions."""
    import numpy as np

    G = np.eye(4)
    for (k, l), x in zip(_FACES_OF.values(), t.as_tuple()):
        G[k, l] = G[l, k] = -math.cos(x)
    return G


def _memo(t: TetAngles, key: str, compute):
    """compute(t), kept on the frozen instance after the first call, outside
    its dataclass fields: ==, hash, repr and dataclasses.replace ignore it.
    A raised error is not kept: the next call computes again."""
    value = t.__dict__.get(key)
    if value is None:
        value = compute(t)
        object.__setattr__(t, key, value)
    return value


def classify(t: TetAngles) -> TetraClass:
    """Classify the angle data as Finite / Ideal / Hyperideal / Invalid.

    A TetAngles keeps its class, computed on the first call (see _memo).
    """
    return _memo(t, "_tetra_class", _classify)


def _class_numbers(t: TetAngles) -> tuple[float, float, float]:
    """det G, the smallest link cofactor and the smallest edge cofactor of
    t: what _classify decides by and _finite_margin bounds.  Both keep them
    on t (see _memo), so a source that is classified and then given a
    margin evaluates them once."""
    x = t.as_tuple()
    cosines = [math.cos(v) for v in x]
    return (_gram_det(cosines), min(_link_cofactor(x[i], x[j], x[k]) for i, j, k in _VERTEX_ANGLES),
            min(_edge_cofactors(x, cosines)))


def _classify(t: TetAngles) -> TetraClass:
    det, low, edge = _memo(t, "_class_numbers", _class_numbers)
    if not t.in_range() or edge < -IDEAL_COFACTOR_TOL or not _signature_31(t, det):
        kind = TetraKind.INVALID
    elif low > IDEAL_COFACTOR_TOL:
        kind = TetraKind.FINITE
    elif low >= -IDEAL_COFACTOR_TOL:
        kind = TetraKind.IDEAL
    else:
        kind = TetraKind.HYPERIDEAL
    return TetraClass(kind, det)


def _finite_margin(t: TetAngles) -> float:
    """The largest step in one angle that provably keeps t Finite; at most 0
    when t is not Finite.  It bounds _classify's rule: change both together.

    A step d in one angle moves each link cofactor by at most 8|d| (four
    cosines, each by at most |d|/2), each edge cofactor by at most 3|d| (its
    partial derivatives are at most 3, 1 and 2 in size; see _edge_cofactors)
    and det G by at most 2 max|3x3 minor| |d| <= 10.4|d| (Hadamard: entries
    in [-1, 1]).  Within the margin the angles stay in (0, pi), the link
    cofactors above IDEAL_COFACTOR_TOL, the edge cofactors at or above
    -IDEAL_COFACTOR_TOL and det G below -IDEAL_COFACTOR_TOL, where its sign
    decides the signature.  Callers keep 2x headroom for the rounding of
    the step and of each cofactor."""
    x = t.as_tuple()
    det, low, edge = _memo(t, "_class_numbers", _class_numbers)
    return min(min(x), _PI - max(x), (low - IDEAL_COFACTOR_TOL) / 8, (edge + IDEAL_COFACTOR_TOL) / 3,
               (-det - IDEAL_COFACTOR_TOL) / 10.4)


def _inherit_class(t: TetAngles, cls: TetraClass) -> None:
    """Keep cls on t as its class (see _memo)."""
    object.__setattr__(t, "_tetra_class", cls)


def _signature_31(t: TetAngles, det: float) -> bool:
    """Whether G has signature (3,1), for angles in (0, pi): the sign of det
    when |det| exceeds IDEAL_COFACTOR_TOL (see the module docstring),
    otherwise the eigenvalues against EIGENVALUE_TOL."""
    if abs(det) > IDEAL_COFACTOR_TOL:
        return det < 0
    import numpy as np

    e0, e1, _, _ = np.linalg.eigvalsh(gram_matrix(t)).tolist()
    return e0 < -EIGENVALUE_TOL and e1 > EIGENVALUE_TOL


def _gram_det(c) -> float:
    """det G from the cosines c of the angles, by Laplace expansion along
    row 0, each 3x3 minor along its first row over the 2x2 minors of rows
    2 and 3."""
    p, q, r, s, u, w = (-c[k] for k in _GRAM_ANGLES)  # G[0][1:], G[1][2:], G[2][3]
    m23, m13, m12, m03, m02, m01 = 1 - w * w, s - u * w, s * w - u, q - r * w, q * w - r, q * u - r * s
    return ((m23 - s * m13 + u * m12) - p * (p * m23 - s * m03 + u * m02)
            + q * (p * m13 - m03 + u * m01) - r * (p * m12 - m02 + s * m01))


def _link_cofactor(a: float, b: float, c: float) -> float:
    """Cofactor of the vertex with angles (a, b, c); see the module docstring."""
    s = (a + b + c) / 2
    return -4 * math.cos(s) * math.cos(s - a) * math.cos(s - b) * math.cos(s - c)


def _edge_cofactors(x, c) -> tuple[float, ...]:
    """The six edge cofactors of the angles x, with cosines c, in
    _ANGLE_ORDER.  The edge with angle a, whose opposite edge has angle b,
    has the cofactor
    cos b sin^2 a + cos a (cos x cos x' + cos y cos y') + cos x cos y + cos x' cos y',
    where (x, y) and (x', y') are the two other angles at the ends of b's edge,
    x opposite x' and y opposite y'.  It is the adjugate entry of G at the
    edge's two vertices (see the module docstring)."""
    return tuple(c[b] * math.sin(x[a]) ** 2 + c[a] * (c[i] * c[k] + c[j] * c[m]) + c[i] * c[j] + c[k] * c[m]
                 for a, b, i, j, k, m in _EDGE_ANGLES)


def require_kind(t: TetAngles, *kinds: TetraKind) -> TetraClass:
    """classify(t), or GeometryDomainError when its kind is not one of kinds.

    The one class gate of the package: every function that needs a Finite
    (or Ideal, or non-Invalid) tetrahedron calls it.
    """
    cls = classify(t)
    if cls.kind not in kinds:
        wanted = " or ".join(k.value for k in kinds)
        raise GeometryDomainError(f"requires a {wanted} tetrahedron; classification: {cls.kind.value}")
    return cls


def edge_lengths(t: TetAngles) -> tuple[float, float, float, float, float, float]:
    """Edge lengths (A, B, C, A', B', C' order) of a Finite tetrahedron.

    cosh(len of edge {i,j}) = adj(G)[i][j] / sqrt(adj(G)[i][i] adj(G)[j][j]).
    Non-finite tetrahedra (infinite or undefined lengths) raise; so does a
    ratio that rounds below 1, with an ArithmeticError naming its edge.
    A TetAngles keeps its lengths, computed on the first call (see _memo).
    """
    return _memo(t, "_edge_lengths", _edge_lengths)


def _edge_lengths(t: TetAngles) -> tuple[float, float, float, float, float, float]:
    import numpy as np

    require_kind(t, TetraKind.FINITE)
    G = gram_matrix(t)
    adj = np.linalg.det(G) * np.linalg.inv(G)
    out = []
    for name in _ANGLE_ORDER:
        i, j = _EDGE_OF[name]
        ratio = adj[i, j] / math.sqrt(adj[i, i] * adj[j, j])
        if ratio < 1:
            raise ArithmeticError(f"edge {name} ({i}, {j}): cosh ratio {ratio:.17g} is below 1")
        out.append(math.acosh(ratio))
    return tuple(out)


# --- tetrahedral relabeling symmetries ------------------------------------

#: Exchanges the roles of the (A, A') and (B, B') edge pairs.
SWAP_AB_PAIRS = (0, 2, 1, 3)
#: Exchanges the roles of the (B, B') and (C, C') edge pairs.
SWAP_BC_PAIRS = (0, 1, 3, 2)


def _relabel_row(sigma: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Angle indices read by relabel(., sigma): edge {i, j} takes the angle
    of edge {sigma(i), sigma(j)}."""
    edges = list(_EDGE_OF.values())
    return tuple(edges.index(tuple(sorted((sigma[i], sigma[j])))) for i, j in edges)


#: Vertex permutation -> angle indices: relabel(t, sigma).as_tuple() is
#: t.as_tuple() read at _RELABEL_ROWS[sigma].  Keys in itertools order.
_RELABEL_ROWS = {sigma: _relabel_row(sigma) for sigma in itertools.permutations(range(4))}


def relabel(t: TetAngles, sigma) -> TetAngles:
    """Relabel angles by a vertex permutation: new angle at edge e is the old
    angle at edge sigma(e).  A bijection; relabel(relabel(t, s), s^-1) == t.

    The relabeling of a classified t shares its class object (_inherit_class):
    the same det G, and vertex v's link has the angles of vertex sigma(v)'s.
    """
    sigma = tuple(sigma)
    try:
        row = _RELABEL_ROWS[sigma]
    except (KeyError, TypeError):  # TypeError: an unhashable entry
        raise GeometryDomainError(f"not a vertex permutation: {sigma!r}") from None
    x = t.as_tuple()
    out = TetAngles(x[row[0]], x[row[1]], x[row[2]], x[row[3]], x[row[4]], x[row[5]])
    if (cls := t.__dict__.get("_tetra_class")) is not None:
        _inherit_class(out, cls)
    return out
