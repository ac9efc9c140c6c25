"""Independent oracles that only the tests call.

Each computes a fact the package states some other way: the 3/4-ideal
tetrahedron volume by quadrature in the half-space model, the volume by the
Murakami-Yano dilogarithm formula, the class from the Gram eigenvalues and
inverse, the Gram matrix at 40 digits, Lorentz boosts and their action on a
Klein realization, the twelve dihedral angles of the octahedron, the angles
read back from a Gram matrix, the 24 relabeling symmetries, and the
Lobachevsky quadrature of one point at a time.  None of them is called by
the package, its commands or its scripts, so they live here and not in
`src/`.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from reggescissors.exceptions import GeometryDomainError, QuadratureError
from reggescissors.klein import _MINK, KleinTetra, _boost, _gram_vertices, _hyperboloid_lift
from reggescissors.lobachevsky import _PI, _PI_LO, _tanh_sinh_levels
from reggescissors.octahedron import OctAngles
from reggescissors.tetra import (
    _FACES_OF,
    EIGENVALUE_TOL,
    IDEAL_COFACTOR_TOL,
    GramMatrix,
    TetAngles,
    TetraKind,
    gram_matrix,
    prime_angles,
)

# sinh(350)^2 is about 3e303, so every entry of the boost and of L^T M L is finite
_MAX_RAPIDITY = 350.0


# --- lobachevsky -------------------------------------------------------------


def lobachevsky_quadrature_pointwise(theta: float, tol: float) -> float:
    """lobachevsky.lobachevsky_quadrature on one float, with its own level
    loop, as the package computed it before it integrated a whole array in
    one loop per piece count: the reference that every value of the array
    route must match bit for bit."""
    th = float(theta)
    if not math.isfinite(th):
        raise ValueError("lobachevsky_quadrature: argument must be finite")
    if not 0 < tol < math.inf:
        raise ValueError("lobachevsky_quadrature: tol must be positive and finite")
    sign = 1.0
    if th < 0:  # integrand is even, so the integral is odd
        sign, th = -1.0, -th
    if th == 0.0:
        return 0.0

    # n full pieces [k pi, (k+1) pi], then [n pi, th] of length `last`, which
    # ends `gap` short of (n+1) pi; both are taken against the true pi
    n, rem = divmod(th, _PI)  # rem = th - n * _PI exactly
    n = int(n)
    last, gap = rem - n * _PI_LO, (_PI - rem) + (n + 1) * _PI_LO
    if last < 0:  # th lies below n pi by less than n * _PI_LO
        n, last, gap = n - 1, _PI + last, -last
    pieces, gaps = np.full(n + 1, _PI), np.zeros(n + 1)
    pieces[-1], gaps[-1] = last, gap

    total = scale = 0.0
    for level, (x, xc, w) in enumerate(_tanh_sinh_levels()):
        # |sin u| is the sine of the distance from u to the nearer multiple of pi
        dist = np.minimum(pieces[:, None] * x, gaps[:, None] + pieces[:, None] * xc)
        terms = w * np.log(2.0 * np.sin(dist), out=np.zeros_like(dist), where=dist > 0)
        previous = total
        total = total / 2 - float(pieces @ terms.sum(axis=1))
        scale = scale / 2 + float(pieces @ np.abs(terms).sum(axis=1))
        err = max(abs(total - previous), 2.0**-52 * scale)
        if level and err <= tol / 2:
            return sign * total
    raise QuadratureError(
        f"lobachevsky_quadrature: achieved error {err:.3e} exceeds tol {tol:.3e}",
        achieved=err,
    )


# --- tetra ------------------------------------------------------------------


def angles_from_gram(G: GramMatrix) -> TetAngles:
    """Invert :func:`gram_matrix` (exact arccos round trip)."""
    return TetAngles(**{name: math.acos(float(np.clip(-G[k, l], -1.0, 1.0)))
                        for name, (k, l) in _FACES_OF.items()})


def tetra_symmetries() -> list[tuple[int, int, int, int]]:
    """All 24 vertex permutations, i.e. all relabeling symmetries."""
    return list(itertools.permutations(range(4)))


def classify_by_inverse(t: TetAngles) -> TetraKind:
    """The class read from the Gram matrix alone: the eigenvalue signature,
    then the edge and vertex cofactors as the adjugate det(G) * inv(G), or as
    signed 3x3 minors where inv refuses G.  Same tolerances and the same
    order of decision as tetra.classify, which reads the cofactors from
    closed forms in the angles instead."""
    G = gram_matrix(t)
    e0, e1, e2, e3 = np.linalg.eigvalsh(G).tolist()
    det = e0 * e1 * e2 * e3
    try:
        adj = det * np.linalg.inv(G)
    except np.linalg.LinAlgError:
        adj = np.array([[(-1) ** (i + j) * np.linalg.det(np.delete(np.delete(G, j, 0), i, 1))
                         for j in range(4)] for i in range(4)])
    cof = adj.diagonal().tolist()
    edges = [adj[i, j] for i, j in itertools.combinations(range(4), 2)]
    if not (t.in_range() and e0 < -EIGENVALUE_TOL and e1 > EIGENVALUE_TOL):
        return TetraKind.INVALID
    if min(edges) < -IDEAL_COFACTOR_TOL:
        return TetraKind.INVALID
    if all(c > IDEAL_COFACTOR_TOL for c in cof):
        return TetraKind.FINITE
    if any(c < -IDEAL_COFACTOR_TOL for c in cof):
        return TetraKind.HYPERIDEAL
    return TetraKind.IDEAL


# --- tetra: 40-digit references ---------------------------------------------

_DPS = 40


def gram_matrix_mp(t: TetAngles) -> mp.matrix:
    """gram_matrix(t) at the current mpmath precision, from the double angles."""
    G = mp.eye(4)
    for (k, l), x in zip(_FACES_OF.values(), t.as_tuple()):
        G[k, l] = G[l, k] = -mp.cos(mp.mpf(x))
    return G


# the 24 permutations of range(4), each with its sign
_SIGNED_PERMUTATIONS = tuple((p, (-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)))
                             for p in itertools.permutations(range(4)))


def gram_det_mp(t: TetAngles) -> mp.mpf:
    """det G at 40 digits, as the Leibniz sum over the 24 permutations (no
    expansion shared with tetra's Laplace det)."""
    with mp.workdps(_DPS):
        G = gram_matrix_mp(t).tolist()
        return mp.fsum(s * G[0][a] * G[1][b] * G[2][c] * G[3][d] for (a, b, c, d), s in _SIGNED_PERMUTATIONS)


def vertex_minors_mp(t: TetAngles) -> list[mp.mpf]:
    """The four 3x3 principal minors of G (vertex v deletes face v), at 40
    digits: 1 - p^2 - q^2 - r^2 + 2pqr over the off-diagonal entries p, q, r."""
    with mp.workdps(_DPS):
        G = gram_matrix_mp(t)
        minors = []
        for v in range(4):
            i, j, k = (m for m in range(4) if m != v)
            p, q, r = G[i, j], G[i, k], G[j, k]
            minors.append(1 - p * p - q * q - r * r + 2 * p * q * r)
        return minors


def murakami_yano_volume(t: TetAngles) -> float:
    """Volume of a Finite tetrahedron by the Murakami-Yano formula, at 40 digits.

    With a, b, c = exp(iA), exp(iB), exp(iC) (the angles at vertex 0) and
    d, e, f = exp(iA'), exp(iB'), exp(iC'):
        U(z) = [Li2(z) + Li2(abde z) + Li2(acdf z) + Li2(bcef z)
                - Li2(-abc z) - Li2(-aef z) - Li2(-bdf z) - Li2(-cde z)] / 2,
        z+- = -2 (sin A sin A' + sin B sin B' + sin C sin C' -+ sqrt(det G))
              / (ad + be + cf + abf + ace + bcd + def + abcdef),
    and V = Im(U(z+) - U(z-)) / 2, where sqrt(det G) = i sqrt(-det G) is
    mpmath's principal root (det G < 0 on a Finite tetrahedron).
    Independent of the octahedron construction and of the Lobachevsky
    series.  J. Murakami and M. Yano, Comm. Anal. Geom. 13 (2005).
    """
    with mp.workdps(_DPS):
        angles = [mp.mpf(x) for x in t.as_tuple()]
        a, b, c, d, e, f = (mp.expj(x) for x in angles)

        def U(z):
            return (mp.polylog(2, z) + mp.polylog(2, a * b * d * e * z)
                    + mp.polylog(2, a * c * d * f * z) + mp.polylog(2, b * c * e * f * z)
                    - mp.polylog(2, -a * b * c * z) - mp.polylog(2, -a * e * f * z)
                    - mp.polylog(2, -b * d * f * z) - mp.polylog(2, -c * d * e * z)) / 2

        root = mp.sqrt(mp.det(gram_matrix_mp(t)))
        sines = sum(mp.sin(angles[k]) * mp.sin(angles[k + 3]) for k in range(3))
        den = (a * d + b * e + c * f + a * b * f + a * c * e + b * c * d + d * e * f
               + a * b * c * d * e * f)
        z_plus = -2 * (sines - root) / den
        z_minus = -2 * (sines + root) / den
        return float(mp.im(U(z_plus) - U(z_minus)) / 2)


# --- octahedron -------------------------------------------------------------


def full_dihedral_angles(oct_angles: OctAngles) -> dict[str, float]:
    """The twelve dihedral angles of the (possibly virtual) octahedron.

    Keys: apex:{a..d} (edges to the top firepole end), ring:{e..h} (the
    equatorial edges), base:{a..d} (edges to the bottom firepole end).
    Corresponding entries of O and the dual sum to pi.
    """
    AB, BA, BC, CB, CD, DC, DA, AD = oct_angles.slots
    e, f, g, h = oct_angles.base[4:]
    return {
        "apex:a": AB + AD,
        "apex:b": BC + BA,
        "apex:c": CD + CB,
        "apex:d": DA + DC,
        "ring:e": e,
        "ring:f": f,
        "ring:g": g,
        "ring:h": h,
        "base:a": BA + DA,
        "base:b": AB + CB,
        "base:c": BC + DC,
        "base:d": CD + AD,
    }


# --- klein: isometries ------------------------------------------------------


def lorentz_boost(rapidity: float, axis: int = 0) -> np.ndarray:
    """Pure boost along a coordinate axis of the hyperboloid model."""
    if axis not in (0, 1, 2):
        raise GeometryDomainError("axis must be 0, 1 or 2")
    if not abs(rapidity) <= _MAX_RAPIDITY:
        raise GeometryDomainError(f"rapidity must be finite with magnitude at most {_MAX_RAPIDITY:g}")
    return _boost(math.sinh(rapidity) * np.eye(3)[axis])


def apply_isometry(kt: KleinTetra, L: np.ndarray) -> KleinTetra:
    """Apply a Lorentz matrix to the realization (volume must be invariant)."""
    L = np.asarray(L, dtype=float)
    if not (np.all(np.isfinite(L)) and np.max(np.abs(L.T @ _MINK @ L - _MINK)) <= 1e-9):
        raise GeometryDomainError("matrix is not a Lorentz isometry")
    lift = _hyperboloid_lift(np.asarray(kt.vertices, dtype=float)) @ L.T
    if np.any(lift[:, 3] <= 0):
        lift = -lift
    return KleinTetra(vertices=lift[:, :3] / lift[:, 3:4])


# --- klein: 3/4-ideal tetrahedron in the half-space model --------------------

_glx64, _glw64 = np.polynomial.legendre.leggauss(64)
_gx64 = (_glx64 + 1.0) / 2.0
_gw64 = _glw64 / 2.0


def _poincare(x: np.ndarray, ideal: bool) -> np.ndarray:
    if ideal:
        return x / np.linalg.norm(x)
    return x / (1.0 + math.sqrt(max(0.0, 1.0 - float(x @ x))))


def _rotation_to(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation matrix sending unit vector a to unit vector b."""
    v = np.cross(a, b)
    c = float(a @ b)
    if np.linalg.norm(v) < 1e-14:
        if c > 0:
            return np.eye(3)
        # pick any axis orthogonal to a
        axis = np.eye(3)[int(np.argmin(np.abs(a)))]
        axis = axis - (axis @ a) * a
        axis /= np.linalg.norm(axis)
        return 2 * np.outer(axis, axis) - np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1 + c)


def _duffy_column_integral(q_sing: np.ndarray, u: np.ndarray, w: np.ndarray,
                           center: np.ndarray, r2: float) -> float:
    """Integral of 1/(2 h^2) over the triangle (q_sing, u, w), h^2 the height
    of the hemisphere (center, r2).  The 1/h^2 blow-up at the rim corner
    q_sing cancels against the collapsed-square Jacobian."""
    S, T = np.meshgrid(_gx64, _gx64, indexing="ij")
    weights = np.outer(_gw64, _gw64)
    e1, e2 = u - q_sing, w - q_sing
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    direction = (1 - T)[..., None] * e1 + T[..., None] * e2
    pts = q_sing + S[..., None] * direction
    h2 = r2 - np.sum((pts - center) ** 2, axis=-1)
    return float(np.sum(weights * (jac * S) / (2.0 * h2)))


def three_quarter_volume_numeric(A: float, B: float, C: float) -> float:
    """Direct volume of the 3/4-ideal tetrahedron with apex angles (A, B, C).

    Realized from its Gram matrix, moved to the half-space model with one
    ideal vertex at infinity; the column over the shadow triangle integrates
    in closed form in the vertical coordinate, leaving a 2-d integral of
    1/(2 h^2) with rim singularities removed by collapsed-square maps.
    Independent of every Lobachevsky-sum formula.
    """
    if A + B + C <= math.pi:
        raise GeometryDomainError("3/4-ideal tetrahedron requires A + B + C > pi")
    t = TetAngles(A, B, C, *prime_angles(A, B, C))
    verts = []
    for k, v in enumerate(_gram_vertices(gram_matrix(t))):
        q = v @ _MINK @ v
        if k == 0:
            if q >= -1e-12:
                raise GeometryDomainError("apex vertex is not timelike")
            v = v / math.sqrt(-q)
        else:
            if abs(q) > 1e-7:
                raise ArithmeticError(f"ideal vertex not lightlike (q={q:.2e})")
            v = v / v[3]
        verts.append(v)
    verts = np.array(verts)
    klein = verts[:, :3] / verts[:, 3:4]
    ball = [_poincare(klein[0], False)] + [_poincare(klein[i], True) for i in (1, 2, 3)]
    # send the first ideal vertex to infinity (rotate to -e3, then invert)
    R = _rotation_to(ball[1], np.array([0.0, 0.0, -1.0]))
    e3 = np.array([0.0, 0.0, 1.0])

    def to_half_space(x: np.ndarray) -> np.ndarray:
        y = R @ x
        d = y + e3
        return 2 * d / (d @ d) - e3

    apex = to_half_space(ball[0])
    q1 = to_half_space(ball[2])
    q2 = to_half_space(ball[3])
    if apex[2] <= 0 or max(abs(q1[2]), abs(q2[2])) > 1e-8:
        raise ArithmeticError("half-space transfer failed")
    a2, b2 = q1[:2], q2[:2]
    pxy, height = apex[:2], apex[2]
    # hemisphere through both boundary vertices and the apex
    lhs = np.array([2 * (b2 - a2), 2 * (pxy - a2)])
    rhs = np.array([b2 @ b2 - a2 @ a2, pxy @ pxy + height * height - a2 @ a2])
    center = np.linalg.solve(lhs, rhs)
    r2 = float((a2 - center) @ (a2 - center))
    mid = (a2 + b2) / 2
    return _duffy_column_integral(a2, mid, pxy, center, r2) + _duffy_column_integral(
        b2, pxy, mid, center, r2
    )
