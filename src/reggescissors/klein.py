"""Coordinate oracle: Klein-model realization, direct volume quadrature, and
the Schlafli differential check.

Everything here is independent of the Lobachevsky-sum volume formulas: a
tetrahedron is realized from its Gram matrix inside the projective ball
model, centred by one Lorentz boost so that its vertices keep away from the
sphere at infinity, its volume is integrated numerically against the
hyperbolic volume element dV = dx dy dz / (1 - |x|^2)^2, and the derivative
of the formula volume is compared against edge lengths through
dV = -1/2 sum l_i d(theta_i).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryDomainError, QuadratureError
from .octahedron import tet_volume
from .tetra import (
    _FACES_OF,
    TetAngles,
    TetraKind,
    classify,
    edge_lengths,
    gram_matrix,
    require_kind,
)

__all__ = [
    "KleinTetra",
    "dihedral_angles",
    "klein_vertices",
    "schlafli_residual",
    "volume_numeric",
]

_MINK = np.diag([1.0, 1.0, 1.0, -1.0])
_ROUND_TRIP_TOL = 1e-8


@dataclass(frozen=True)
class KleinTetra:
    """Four Klein-ball vertex coordinates realizing a finite tetrahedron."""

    vertices: np.ndarray  # shape (4, 3), all |v| < 1

    def __post_init__(self):
        if np.shape(self.vertices) != (4, 3):
            raise GeometryDomainError(f"vertices must have shape (4, 3), got {np.shape(self.vertices)}")


def _hyperboloid_lift(klein_pts: np.ndarray) -> np.ndarray:
    t = 1.0 / np.sqrt(1.0 - np.sum(klein_pts**2, axis=1))
    return np.hstack([klein_pts * t[:, None], t[:, None]])


def _minkowski_complements(columns: np.ndarray) -> np.ndarray:
    """Row k: a Euclidean unit vector Minkowski-orthogonal to the columns of
    the 4x4 `columns` other than column k, of either sign."""
    rows = []
    for k in range(4):
        others = [i for i in range(4) if i != k]
        _, _, vt = np.linalg.svd((_MINK @ columns[:, others]).T)
        rows.append(vt[-1])
    return np.array(rows)


def _face_normals(lift: np.ndarray) -> np.ndarray:
    """Outward unit spacelike normals; row i is the face opposite vertex i."""
    normals = []
    for i, n in enumerate(_minkowski_complements(lift.T)):
        norm2 = n @ _MINK @ n
        if norm2 <= 0:
            raise GeometryDomainError("degenerate face: normal is not spacelike")
        n = n / math.sqrt(norm2)
        if n @ _MINK @ lift[i] > 0:
            n = -n
        normals.append(n)
    return np.array(normals)


def dihedral_angles(kt: KleinTetra) -> TetAngles:
    """Recompute the six dihedral angles from coordinates."""
    lift = _hyperboloid_lift(np.asarray(kt.vertices, dtype=float))
    normals = _face_normals(lift)

    def ang(i: int, j: int) -> float:
        c = -(normals[i] @ _MINK @ normals[j])
        return math.acos(max(-1.0, min(1.0, c)))

    return TetAngles(**{name: ang(k, l) for name, (k, l) in _FACES_OF.items()})


def _gram_vertices(G: np.ndarray) -> np.ndarray:
    """Unnormalized vertex vectors of the tetrahedron with face Gram matrix G.

    G is factored through its (3,1) eigendecomposition into face normals;
    row k is the Minkowski-orthogonal complement of the three normals other
    than normal k, signed so that its last coordinate is >= 0.
    """
    lam, P = np.linalg.eigh(G)
    order = [1, 2, 3, 0]  # three positive eigenvalues first, negative last
    lam, P = lam[order], P[:, order]
    normals = np.diag(np.sqrt(np.abs(lam))) @ P.T  # columns: normals with N^T M N = G
    return np.array([-v if v[3] < 0 else v for v in _minkowski_complements(normals)])


def klein_vertices(t: TetAngles) -> KleinTetra:
    """Realize a Finite tetrahedron in the Klein ball from its Gram matrix.

    The Gram matrix is factored through its (3,1) eigendecomposition into
    face normals, and the vertices are the Minkowski-orthogonal complements
    of each normal triple.  The boost taking the normalized sum of the four
    lifted vertices to (0, 0, 0, 1) centres the realization, which is
    verified by recomputing the angles (round-trip < 1e-8).
    """
    require_kind(t, TetraKind.FINITE)
    verts = []
    for v in _gram_vertices(gram_matrix(t)):
        q = v @ _MINK @ v
        if q >= 0:
            raise GeometryDomainError("vertex is not timelike; realization failed")
        verts.append(v / math.sqrt(-q))
    lift = np.array(verts)
    centre = lift.sum(axis=0)
    lift = lift @ _boost(-centre[:3] / math.sqrt(-(centre @ _MINK @ centre)))
    kt = KleinTetra(vertices=lift[:, :3] / lift[:, 3:4])
    back = dihedral_angles(kt)
    err = max(abs(a - b) for a, b in zip(t.as_tuple(), back.as_tuple()))
    if err > _ROUND_TRIP_TOL:
        raise ArithmeticError(f"realization round-trip error {err:.3e} exceeds {_ROUND_TRIP_TOL}")
    return kt


# --- isometries -------------------------------------------------------------


def _boost(p: np.ndarray) -> np.ndarray:
    """The pure (symmetric) boost taking (0, 0, 0, 1) to (p, sqrt(1 + |p|^2));
    its inverse is _boost(-p)."""
    t = math.sqrt(1.0 + float(p @ p))
    L = np.eye(4)
    L[:3, :3] += np.outer(p, p) / (1.0 + t)
    L[:3, 3] = L[3, :3] = p
    L[3, 3] = t
    return L


# --- deterministic adaptive volume quadrature -------------------------------

_GL_N = 4
_glx, _glw = np.polynomial.legendre.leggauss(_GL_N)
_glx = (_glx + 1.0) / 2.0
_glw = _glw / 2.0
_U, _V, _W = np.meshgrid(_glx, _glx, _glx, indexing="ij")
# collapsed-cube (Duffy) map of [0,1]^3 onto the unit simplex
_RULE_WTS = (np.einsum("i,j,k->ijk", _glw, _glw, _glw) * (1 - _U) ** 2 * (1 - _V)).ravel()
_RULE_BARY = np.stack(
    [_U.ravel(), (_V * (1 - _U)).ravel(), (_W * (1 - _U) * (1 - _V)).ravel()], axis=1
)
_B0, _B1, _B2 = (np.ascontiguousarray(_RULE_BARY[:, k]) for k in range(3))

# red refinement: the 8 children as rows into the 4 vertices followed by the
# 6 edge midpoints m01, m02, m03, m12, m13, m23
_MID_I = np.array([0, 0, 0, 1, 1, 2])
_MID_J = np.array([1, 2, 3, 2, 3, 3])
_CHILDREN = np.array(
    [[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3],  # corners
     [4, 5, 6, 8], [4, 5, 7, 8], [5, 6, 8, 9], [5, 7, 8, 9]]  # inner octahedron, cut along m02-m13
)


def _rule_batch(verts: np.ndarray) -> np.ndarray:
    """Fixed-order quadrature of the hyperbolic volume element over a batch
    of Euclidean tetrahedra, shape (m, 4, 3) -> (m,).

    A batch of 8k tetrahedra gives each one the bits of k batches of 8.
    """
    v0 = verts[:, 0, :]
    edges = verts[:, 1:, :, None] - v0[:, None, :, None]
    det = np.abs(np.linalg.det(edges[..., 0]))
    # points (m, 3, 64): the products are added as (b0 e0 + b1 e1) + b2 e2,
    # the order einsum("nk,mkd->mnd") accumulates in, written out because
    # einsum costs far more than the arithmetic at this size
    pts = v0[:, :, None] + ((edges[:, 0] * _B0 + edges[:, 1] * _B1) + edges[:, 2] * _B2)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    # (x x + y y) + z z is the order np.sum(pts**2, axis=-1) adds in
    r2 = (x * x + y * y) + z * z
    vals = 1.0 / (1.0 - r2) ** 2
    # BLAS gets the weights' dot products in blocks of 8 rows, one leaf's
    # children, because a BLAS may round a row differently in another block
    # size (with numpy's OpenBLAS a lone row can differ from a row of 8)
    return det * (vals.reshape(-1, min(len(vals), 8), _RULE_WTS.size) @ _RULE_WTS).ravel()


def _split8(v: np.ndarray) -> np.ndarray:
    """Red refinement of k tetrahedra into eight each, (k, 4, 3) -> (k, 8, 4, 3)."""
    points = np.concatenate([v, (v[:, _MID_I] + v[:, _MID_J]) / 2], axis=1)
    return points[:, _CHILDREN]


def _sum8(f: np.ndarray) -> np.ndarray:
    """Row sums of f, shape (k, 8), each equal bit for bit to f[i].sum()."""
    # numpy's pairwise summation adds 8 terms in exactly this order
    return ((f[:, 0] + f[:, 1]) + (f[:, 2] + f[:, 3])) + ((f[:, 4] + f[:, 5]) + (f[:, 6] + f[:, 7]))


def _refine(tets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children (k, 8, 4, 3), their rule values (k, 8) and each tetrahedron's
    sum over its children (k,)."""
    children = _split8(tets)
    fine = _rule_batch(children.reshape(-1, 4, 3)).reshape(-1, 8)
    return children, fine, _sum8(fine)


def _units(x: float) -> int:
    """A finite float as an exact integer multiple of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def volume_numeric(kt: KleinTetra, tol: float = 1e-6, max_refine: int = 60000) -> float:
    """Hyperbolic volume by deterministic adaptive subdivision quadrature.

    Each leaf tetrahedron carries the error estimate |coarse - sum(children)|;
    the worst leaf is split until the exact sum of the estimates (kept as an
    integer count of 2**-1074, with no rounding) is below tol/2.  Raises
    QuadratureError (with the achieved estimate, the leaf estimates summed
    in heap order) when the refinement budget runs out first.

    A popped leaf's eight children are refined in one batch, but the leaves,
    their order and every bit of the result are those of refining one child
    at a time.
    """
    if not 0 < tol < math.inf:
        raise GeometryDomainError("tol must be positive and finite")
    verts = np.asarray(kt.vertices, dtype=float)
    if not np.all(np.linalg.norm(verts, axis=1) < 1.0 - 1e-12):
        raise GeometryDomainError("vertices must lie strictly inside the unit ball")
    heap: list = []
    counter = 0
    exact = 0  # total leaf error in units of 2**-1074
    half = _units(tol / 2)
    children, fine, sums = _refine(verts[None])
    err = abs(float(_rule_batch(verts[None])[0]) - float(sums[0]))
    heapq.heappush(heap, (-err, counter, children[0], fine[0]))
    counter += 1
    exact += _units(err)
    while exact >= half:
        if counter >= max_refine:
            total_err = sum(-item[0] for item in heap)
            raise QuadratureError(
                f"volume quadrature: refinement budget exhausted, achieved {total_err:.3e}",
                achieved=total_err,
            )
        neg_err, _, children, fine = heapq.heappop(heap)
        exact -= _units(-neg_err)
        grand, grand_fine, sums = _refine(children)
        for j, err in enumerate(np.abs(fine - sums).tolist()):
            heapq.heappush(heap, (-err, counter, grand[j], grand_fine[j]))
            counter += 1
            exact += _units(err)
    return float(sum(_sum8(np.array([item[3] for item in heap])).tolist()))


# --- Schlafli differential check --------------------------------------------


def schlafli_residual(t: TetAngles, h: float = 1e-5) -> np.ndarray:
    """|central-difference dV/d(theta_i) + l_i / 2| for all six edges.

    The volume differential of a family of tetrahedra is -1/2 sum l_i
    d(theta_i); with the formula volume on one side and Gram-cofactor edge
    lengths on the other this couples every piece of the pipeline.  If a
    perturbation leaves the Finite class, h is shrunk once before failing.
    """
    if not 1e-7 <= h <= 1e-3:
        raise GeometryDomainError("h must lie in [1e-7, 1e-3]")
    require_kind(t, TetraKind.FINITE)

    def try_residuals(step: float) -> np.ndarray | None:
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
            deriv = (tet_volume(tu) - tet_volume(td)) / (2 * step)
            out[i] = abs(deriv + lengths[i] / 2)
        return out

    res = try_residuals(h)
    if res is None:
        res = try_residuals(h / 10)
    if res is None:
        raise GeometryDomainError("perturbation leaves the Finite class even after shrinking h")
    return res

