#!/usr/bin/env python3
"""Sweep equiangular tetrahedra across the finite window.

The equiangular family is Finite for dihedral angles between pi/3 (ideal
limit, maximal volume) and arccos(1/3) (Euclidean collapse, zero volume).
Prints the formula volume along the sweep and spot-checks a few points
against the Klein-model quadrature oracle.
"""

import argparse
import math

import numpy as np

from reggescissors import TetAngles, klein_vertices, tet_volume, volume_numeric
from reggescissors.exceptions import QuadratureError

IDEAL_LIMIT = math.pi / 3
COLLAPSE_LIMIT = math.acos(1 / 3)


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=positive_int, default=15)
    parser.add_argument("--oracle-every", type=positive_int, default=5,
                        help="run the quadrature oracle on every k-th point")
    args = parser.parse_args()

    # keep a margin from the ideal limit: the quadrature cost blows up as the
    # vertices approach the sphere at infinity
    thetas = np.linspace(IDEAL_LIMIT + 0.03, COLLAPSE_LIMIT - 1e-4, args.steps)
    print(f"equiangular window: ({IDEAL_LIMIT:.6f}, {COLLAPSE_LIMIT:.6f})")
    print(f"{'theta':>10s} {'volume':>14s} {'oracle':>14s} {'gap':>10s}")
    for k, theta in enumerate(thetas):
        t = TetAngles(*(float(theta),) * 6)
        v = tet_volume(t)
        if k % args.oracle_every == 0:
            try:
                vq = volume_numeric(klein_vertices(t), 1e-6)
                print(f"{theta:10.6f} {v:14.10f} {vq:14.10f} {abs(v - vq):10.2e}")
            except QuadratureError as exc:
                print(f"{theta:10.6f} {v:14.10f} {'budget':>14s} {exc.achieved:10.1e}")
        else:
            print(f"{theta:10.6f} {v:14.10f} {'-':>14s} {'-':>10s}")


if __name__ == "__main__":
    main()
