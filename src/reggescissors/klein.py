"""Coordinate oracle: Klein-model realization and direct volume quadrature.

Everything here is independent of the Lobachevsky-sum volume formulas.  A
tetrahedron is realized from its Gram matrix inside the projective ball
model, centred by one Lorentz boost so that its vertices keep away from the
sphere at infinity.  Its volume integrates dV = dx dy dz / (1 - |x|^2)^2
over the cones from the origin on its four faces: on the cone over face
(a, b, c), x = s y with s in [0, 1] has dx = s^2 det[a, b, c] ds dA, and the
integral over s is closed-form.  The cones are signed by det[a, b, c], so
the origin need not lie inside the tetrahedron.  A 12-point collapsed-square
Gauss-Legendre rule integrates each face triangle; the leaves start at the
four faces and are refined in passes, each splitting a batch of the worst
leaves at once.  The Schlafli check lives in octahedron; klein binds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryDomainError, QuadratureError
from .octahedron import SCHLAFLI_STEP, schlafli_max_relative, schlafli_residual
from .tetra import _FACES_OF, TetAngles, TetraKind, gram_matrix, require_kind

__all__ = [
    "KleinTetra",
    "dihedral_angles",
    "klein_vertices",
    "schlafli_max_relative",
    "schlafli_residual",
    "volume_numeric",
]

_MINK = np.diag([1.0, 1.0, 1.0, -1.0])
_ROUND_TRIP_TOL = 1e-8
# row k: the columns other than column k
_OTHERS = np.array([[j for j in range(4) if j != k] for k in range(4)])


@dataclass(frozen=True)
class KleinTetra:
    """Four Klein-ball vertex coordinates realizing a finite tetrahedron."""

    vertices: np.ndarray  # shape (4, 3), all |v| < 1

    def __post_init__(self):
        if np.shape(self.vertices) != (4, 3):
            raise GeometryDomainError(f"vertices must have shape (4, 3), got {np.shape(self.vertices)}")
        verts = np.array(self.vertices, dtype=float)  # a copy, read-only: checked once, it stays checked
        verts.flags.writeable = False
        if not np.all(np.linalg.norm(verts, axis=1) < 1.0 - 1e-12):
            raise GeometryDomainError("vertices must lie strictly inside the unit ball")
        object.__setattr__(self, "vertices", verts)


def _hyperboloid_lift(klein_pts: np.ndarray) -> np.ndarray:
    t = 1.0 / np.sqrt(1.0 - np.sum(klein_pts**2, axis=1))
    return np.hstack([klein_pts * t[:, None], t[:, None]])


def _minkowski_complements(columns: np.ndarray) -> np.ndarray:
    """Row k: a Euclidean unit vector Minkowski-orthogonal to the columns of
    the 4x4 `columns` other than column k, of either sign.

    The four 3x4 systems go to one stacked SVD, which runs LAPACK on each
    in turn, so each row has the bits of an SVD of its system alone."""
    return np.linalg.svd((_MINK @ columns)[:, _OTHERS].transpose(1, 2, 0))[2][:, -1]


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
    lift = _hyperboloid_lift(kt.vertices)
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

# the 12-point Gauss-Legendre rule, bit for bit numpy.polynomial.legendre.leggauss(12)
# (tests/test_klein.py checks it), so importing this module does not load
# numpy.polynomial; the rule is symmetric, so the literals are its positive half
_GL_HALF = [(float.fromhex(x), float.fromhex(w)) for x, w in (
    ("0x1.007a5f8f630e4p-3", "0x1.fe40ce6d4f022p-3"), ("0x1.78a8d20a8b19dp-2", "0x1.de3155c256aaep-3"),
    ("0x1.2cb4f05c077f9p-1", "0x1.a0163e6b1ab6bp-3"), ("0x1.8a30aeed88f36p-1", "0x1.47d7258f22d96p-3"),
    ("0x1.cee874ffb88b3p-1", "0x1.b60602bce61afp-4"), ("0x1.f68f1d8e42e81p-1", "0x1.8275d9dea6d53p-5"))]
_glx = np.array([-x for x, _ in _GL_HALF[::-1]] + [x for x, _ in _GL_HALF])
_glw = np.array([w for _, w in _GL_HALF[::-1]] + [w for _, w in _GL_HALF])
_U, _W = np.meshgrid((_glx + 1.0) / 2.0, (_glx + 1.0) / 2.0, indexing="ij")
# collapsed-square (Duffy) map of [0,1]^2 onto the unit triangle, weights summing to 1/2
_RULE_WTS = (np.outer(_glw, _glw) / 4.0 * (1 - _U)).ravel()
_B1, _B2 = _U.ravel(), (_W * (1 - _U)).ravel()
#: The most triangles one _rule_batch call takes, a multiple of 4: at 144
#: points each, a (triangles, points) temporary stays below 10 MB.
RULE_BATCH = 8192

# the faces as oriented triangles whose determinants sum to det[v1-v0, v2-v0, v3-v0]
_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
# a triangle's 4 children, in its orientation, as rows into its vertices and m01, m02, m12
_CHILDREN = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2], [4, 3, 5]])

_SERIES_BELOW = 0.0025
_SERIES = np.array([(k + 1) / (2 * k + 3) for k in range(7)][::-1])  # np.polyval order


def _rho(r2: np.ndarray) -> np.ndarray:
    """rho(R^2) = g(R) / R^3, g(R) = int_0^R r^2 / (1 - r^2)^2 dr = R / (2 (1 - R^2))
    - artanh(R) / 2; below _SERIES_BELOW, sum (k + 1) R^2k / (2k + 3), which
    is evaluated only on the points below (most batches have none)."""
    big = np.maximum(r2, _SERIES_BELOW)
    R = np.sqrt(big)
    out = (R / (2 * (1 - big)) - np.arctanh(R) / 2) / (big * R)
    low = r2 < _SERIES_BELOW
    if low.any():
        out[low] = np.polyval(_SERIES, r2[low])
    return out


def _rule_batch(tris: np.ndarray) -> np.ndarray:
    """Fixed-order quadrature of the signed cones from the origin over a batch
    of oriented triangles (a, b, c), (m, 3, 3) -> (m,): det[a, b, c] times the
    144-point face rule on rho(|y|^2).  A batch of 4k triangles gives each one
    the bits of k batches of 4.  Its temporaries hold m x 144 points, so
    callers pass at most RULE_BATCH triangles."""
    a = tris[:, 0, :, None]
    pts = a + ((tris[:, 1, :, None] - a) * _B1 + (tris[:, 2, :, None] - a) * _B2)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    vals = _rho((x * x + y * y) + z * z)
    # BLAS gets the weights' dot products in blocks of 4 rows, one leaf's
    # children, because a BLAS may round a row differently in another block
    # size (with numpy's OpenBLAS a lone row can differ from a row of 4)
    return np.linalg.det(tris) * (vals.reshape(-1, min(len(vals), 4), _RULE_WTS.size) @ _RULE_WTS).ravel()


def _split4(v: np.ndarray) -> np.ndarray:
    """Midpoint split of k triangles into four each, (k, 3, 3) -> (k, 4, 3, 3)."""
    points = np.concatenate([v, (v[:, [0, 0, 1]] + v[:, [1, 2, 2]]) / 2], axis=1)
    return points[:, _CHILDREN]


def _leaves(tris: np.ndarray, values: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children (k, 4, 3, 3) of k triangles with rule values `values`, their rule
    values (k, 4) and each triangle's error estimate |value - their sum| (k,).
    With `values` None, k must be a multiple of 4: the triangles and their
    children then go to the rule together.  The rule takes its triangles in
    batches of at most RULE_BATCH, a multiple of 4, so each one keeps its
    bits (see _rule_batch)."""
    children = _split4(tris)
    batch = children.reshape(-1, 3, 3) if values is not None else np.concatenate([tris, children.reshape(-1, 3, 3)])
    fine = np.concatenate([_rule_batch(batch[i:i + RULE_BATCH]) for i in range(0, len(batch), RULE_BATCH)])
    if values is None:
        values, fine = np.split(fine, [len(tris)])
    fine = fine.reshape(-1, 4)
    return children, fine, np.abs(values - fine.sum(axis=1))


#: The most leaves one volume_numeric call may make.
MAX_LEAVES = 60000


def volume_numeric(kt: KleinTetra, tol: float = 1e-6) -> float:
    """Hyperbolic volume by deterministic adaptive quadrature of the signed
    cones from the origin over the four faces.

    The leaves start as the four faces; their rule values and those of their
    16 children come from one rule batch, and on Klein-uniform tetrahedra of
    radius 0.9 that batch already meets tol 1e-6.  Each leaf carries the
    error estimate |its rule value - the sum over its 4 children|, and the
    leaves are refined in passes until the estimates sum below tol/2.  A
    pass splits, worst first, the fewest leaves whose estimates leave at most
    tol/4 on the others; a split leaf's first child takes its slot and the
    other three are appended.  The volume is the sum over the leaves'
    children, with the sign of det[v1 - v0, v2 - v0, v3 - v0].  A pass
    splits no more leaves than keep them within MAX_LEAVES; raises
    QuadratureError (with the achieved estimate) when not even one split fits.
    A call makes one rule batch per pass, plus the first, each of at most
    RULE_BATCH triangles (a pass that splits more leaves makes more).
    """
    if not 0 < tol < math.inf:
        raise GeometryDomainError("tol must be positive and finite")
    verts = kt.vertices
    kids, fine, errs = _leaves(verts[_FACES], None)
    while (total_err := float(errs.sum())) >= tol / 2:
        fits = (MAX_LEAVES - len(errs)) // 3
        if fits < 1:
            raise QuadratureError(
                f"volume quadrature: refinement budget exhausted, achieved {total_err:.3e}",
                achieved=total_err,
            )
        worst = np.argsort(-errs, kind="stable")
        # rest[m]: the estimates left on the other leaves when the worst m are split
        rest = np.cumsum(errs[worst[::-1]])[::-1]
        split = worst[:min(np.count_nonzero(rest > tol / 4), fits)]
        k, f, e = (a.reshape(len(split), 4, *a.shape[1:])
                   for a in _leaves(kids[split].reshape(-1, 3, 3), fine[split].ravel()))
        kids[split], fine[split], errs[split] = k[:, 0], f[:, 0], e[:, 0]
        kids, fine, errs = (np.concatenate([a, b[:, 1:].reshape(-1, *a.shape[1:])])
                            for a, b in ((kids, k), (fine, f), (errs, e)))
    return float(np.sign(np.linalg.det(verts[1:] - verts[0])) * fine.sum())
