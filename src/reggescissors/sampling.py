"""Seeded generation of random finite tetrahedra by rejection sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryDomainError
from .scissors import regge
from .tetra import TetAngles, TetraKind, classify

__all__ = ["BOX_CENTER", "BOX_HALF_WIDTH", "SampleStats", "sample_finite"]

#: The uniform box of draws, around the equiangular region: the Finite window for
#: equiangular tetrahedra is roughly (1.047, 1.231), so the box keeps the acceptance
#: rate high while still exercising generic shapes.
BOX_CENTER = 1.15
BOX_HALF_WIDTH = 0.12


@dataclass(frozen=True)
class SampleStats:
    requested: int
    drawn: int


def _accept(t: TetAngles, require_finite_images: tuple[str, ...]) -> bool:
    if classify(t).kind is not TetraKind.FINITE:
        return False
    for which in require_finite_images:
        if classify(regge(t, which)).kind is not TetraKind.FINITE:
            return False
    return True


def sample_finite(rng: np.random.Generator, count: int,
                  require_finite_images: tuple[str, ...] = (),
                  max_tries: int = 100000) -> tuple[list[TetAngles], SampleStats]:
    """Draw `count` finite tetrahedra from the box BOX_CENTER +- BOX_HALF_WIDTH and
    report how many draws that took."""
    lo, hi = BOX_CENTER - BOX_HALF_WIDTH, BOX_CENTER + BOX_HALF_WIDTH
    out: list[TetAngles] = []
    drawn = 0
    while len(out) < count:
        if drawn >= max_tries:
            raise GeometryDomainError("rejection sampling failed; box too wide?")
        t = TetAngles.of(rng.uniform(lo, hi, size=6))
        drawn += 1
        if _accept(t, require_finite_images):
            out.append(t)
    return out, SampleStats(requested=count, drawn=drawn)
