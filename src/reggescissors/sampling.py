"""Seeded generation of random finite tetrahedra by rejection sampling.

The sampler only draws: it keeps each box draw that `classify` calls Finite.
Each Regge move permutes the vertex-link forms, so the images of a Finite
draw are Finite; a caller classifies the images it builds, once, where it
uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryDomainError
from .tetra import TetAngles, TetraKind, classify

__all__ = ["BOX_CENTER", "BOX_HALF_WIDTH", "MAX_TRIES", "SampleStats", "sample_finite"]

#: The uniform box of draws, around the equiangular region: the Finite window for
#: equiangular tetrahedra is roughly (1.047, 1.231), so the box keeps the acceptance
#: rate high while still exercising generic shapes.
BOX_CENTER = 1.15
BOX_HALF_WIDTH = 0.12

#: Draws one sample_finite call may make before it gives up.
MAX_TRIES = 100000


@dataclass(frozen=True)
class SampleStats:
    requested: int
    drawn: int


def sample_finite(rng: np.random.Generator, count: int) -> tuple[list[TetAngles], SampleStats]:
    """Draw `count` finite tetrahedra from the box BOX_CENTER +- BOX_HALF_WIDTH and
    report how many draws that took."""
    lo, hi = BOX_CENTER - BOX_HALF_WIDTH, BOX_CENTER + BOX_HALF_WIDTH
    out: list[TetAngles] = []
    drawn = 0
    while len(out) < count:
        if drawn >= MAX_TRIES:
            raise GeometryDomainError("rejection sampling failed; box too wide?")
        t = TetAngles.of(rng.uniform(lo, hi, size=6))
        drawn += 1
        if classify(t).kind is TetraKind.FINITE:
            out.append(t)
    return out, SampleStats(requested=count, drawn=drawn)
