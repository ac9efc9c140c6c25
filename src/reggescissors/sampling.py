"""Seeded generation of random finite tetrahedra by rejection sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryDomainError
from .scissors import regge
from .tetra import TetAngles, TetraKind, classify

__all__ = ["SampleBox", "SampleStats", "sample_finite"]


@dataclass(frozen=True)
class SampleBox:
    """Uniform box around the equiangular region; the Finite window for
    equiangular tetrahedra is roughly (1.047, 1.231), so the default box
    keeps the acceptance rate high while still exercising generic shapes."""

    center: float = 1.15
    half_width: float = 0.12


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


def sample_finite(rng: np.random.Generator, count: int, box: SampleBox = SampleBox(),
                  require_finite_images: tuple[str, ...] = (),
                  max_tries: int = 100000) -> tuple[list[TetAngles], SampleStats]:
    """Draw `count` finite tetrahedra and report how many draws that took."""
    lo, hi = box.center - box.half_width, box.center + box.half_width
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
