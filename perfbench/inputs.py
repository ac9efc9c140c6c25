"""Seeded benchmark inputs: tetrahedra with vertices uniform in the Klein ball.

Numpy only; nothing here imports the package under test, so a change to its
sampler or geometry code cannot change what the benchmark measures.

Labeling follows the package's convention: vertex pairs of the edges carrying
the angles (A, B, C, A', B', C') are {0,1}, {0,2}, {0,3}, {2,3}, {1,3}, {1,2},
and the angle on edge {i, j} sits between the faces opposite the two other
vertices.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

EDGES = ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
# faces (k, l) meeting along each edge, in angle order
FACE_PAIRS = tuple(tuple(m for m in range(4) if m not in e) for e in EDGES)
_MINK = np.array([1.0, 1.0, 1.0, -1.0])
_STRATA = 40  # tetrahedra per block, one from each stratum of `reach`
_POOL = 8  # candidates drawn per stratum


def _normals(verts: np.ndarray) -> np.ndarray:
    """Outward unit Minkowski normals, shape (n, 4, 4); row i faces vertex i."""
    lift = np.concatenate([verts, np.ones(verts.shape[:2] + (1,))], axis=2)
    lift /= np.sqrt(1.0 - np.sum(verts**2, axis=2))[:, :, None]
    out = np.empty_like(lift)
    for i in range(4):
        rows = lift[:, [j for j in range(4) if j != i], :]
        # signed 3x3 minors give w with w . v = 0 for the three lifted
        # vertices; the Minkowski normal is M w (M is its own inverse)
        w = np.stack(
            [(-1) ** c * np.linalg.det(np.delete(rows, c, axis=2)) for c in range(4)], axis=1
        )
        n = w * _MINK
        n /= np.sqrt(np.sum(n * n * _MINK, axis=1))[:, None]
        side = np.sum(n * lift[:, i, :] * _MINK, axis=1)
        out[:, i, :] = np.where(side[:, None] > 0, -n, n)
    return out


def dihedral_angles(verts: np.ndarray) -> np.ndarray:
    """Klein-ball vertices (n, 4, 3) -> dihedral angles (n, 6), A..C' order."""
    normals = _normals(verts)
    cols = [
        np.sum(normals[:, k, :] * normals[:, l, :] * _MINK, axis=1) for k, l in FACE_PAIRS
    ]
    return np.arccos(np.clip(-np.stack(cols, axis=1), -1.0, 1.0))


def gram(angles: np.ndarray) -> np.ndarray:
    """Face Gram matrices (n, 4, 4) with G[k, l] = -cos(angle on their edge)."""
    G = np.broadcast_to(np.eye(4), (len(angles), 4, 4)).copy()
    for col, (k, l) in enumerate(FACE_PAIRS):
        G[:, k, l] = G[:, l, k] = -np.cos(angles[:, col])
    return G


def finite_mask(angles: np.ndarray) -> np.ndarray:
    """True where the Gram matrix has signature (3, 1) and every vertex
    cofactor is positive, i.e. the angles describe a Finite tetrahedron.

    Strict signs only: the test carries no absolute threshold, so it keeps
    the near-ideal shapes whose cofactors are tiny but positive.
    """
    G = gram(angles)
    eig = np.linalg.eigvalsh(G)
    signature = (eig[:, 0] < 0) & (eig[:, 1] > 0)
    cof = np.stack(
        [np.linalg.det(np.delete(np.delete(G, i, axis=1), i, axis=2)) for i in range(4)],
        axis=1,
    )
    in_range = np.all((angles > 0) & (angles < np.pi), axis=1)
    return signature & np.all(cof > 0, axis=1) & in_range


def reach(verts: np.ndarray) -> np.ndarray:
    """Product of cosh(edge length) over the three edges at vertex 0.

    The package's Klein realization puts vertex 0 at the origin, so this
    says how far the other vertices reach toward the boundary, where the
    volume quadrature has to refine most.
    """
    v0 = verts[:, :1, :]
    dot = np.sum(v0 * verts[:, 1:, :], axis=2)
    norms = (1.0 - np.sum(v0**2, axis=2)) * (1.0 - np.sum(verts[:, 1:, :] ** 2, axis=2))
    return np.prod((1.0 - dot) / np.sqrt(norms), axis=1)


def _ball_points(rng: np.random.Generator, n: int, rmax: float) -> np.ndarray:
    direction = rng.normal(size=(n, 4, 3))
    direction /= np.linalg.norm(direction, axis=2, keepdims=True)
    radius = rmax * rng.uniform(size=(n, 4, 1)) ** (1.0 / 3.0)
    return direction * radius


class TetStream:
    """Endless seeded stream of Finite tetrahedra, vertices uniform in the
    ball of radius `rmax`.

    The stream comes in blocks of _STRATA tetrahedra.  For each block,
    _STRATA * _POOL candidates are drawn and split by `reach` into _STRATA
    equal strata.  One candidate is then taken at random from each stratum,
    and the block is shuffled.  Every tetrahedron still has the uniform
    distribution, but each block holds the same mix of cheap and costly
    shapes, which keeps the heavy quadrature tail from swinging between
    seeds.  A block with a candidate that fails `finite_mask` (numerically
    degenerate) is drawn again, and the count goes to `rejected`.  The
    sequence depends only on (seed, stream, rmax).
    """

    def __init__(self, seed: int, stream: int, rmax: float):
        self.rng = np.random.default_rng([seed, stream])
        self.rmax = rmax
        self.rejected = 0
        self._rows = self._blocks()

    def _blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            verts = _ball_points(self.rng, _STRATA * _POOL, self.rmax)
            angles = dihedral_angles(verts)
            bad = int(np.count_nonzero(~finite_mask(angles)))
            if bad:
                self.rejected += bad
                continue
            strata = np.argsort(reach(verts), kind="stable").reshape(_STRATA, _POOL)
            pick = self.rng.permutation(strata[np.arange(_STRATA), self.rng.integers(0, _POOL, _STRATA)])
            yield from zip(angles[pick], verts[pick])

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self._rows

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next `n` tetrahedra as (angles (n, 6), vertices (n, 4, 3))."""
        rows = [next(self._rows) for _ in range(n)]
        return np.array([a for a, _ in rows]), np.array([v for _, v in rows])


def digest(angles: np.ndarray) -> str:
    """sha256 of the angles rounded to 1e-12, stable across last-bit noise."""
    rounded = np.round(np.asarray(angles, dtype=np.float64), 12) + 0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()
