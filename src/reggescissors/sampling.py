"""Seeded generation of random finite tetrahedra by rejection sampling.

The sampler only draws: it keeps each box draw that `classify` calls Finite.
Its seeded draws come from SeededUniform, numpy's default generator written
out in plain Python, so drawing loads neither numpy.random nor OpenSSL.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Protocol

from .exceptions import GeometryDomainError
from .tetra import TetAngles, TetraKind, classify

__all__ = ["BOX_CENTER", "BOX_HALF_WIDTH", "MAX_TRIES", "SampleStats", "SeededUniform", "sample_finite"]

#: The uniform box of draws, around the equiangular region: the Finite window for
#: equiangular tetrahedra is roughly (1.047, 1.231), so the box keeps the acceptance
#: rate high while still exercising generic shapes.
BOX_CENTER = 1.15
BOX_HALF_WIDTH = 0.12

#: Draws one sample_finite call may make before it gives up.
MAX_TRIES = 100000


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """The entropy (an integer or a sequence of them) as numpy's SeedSequence
    reads it: each integer split into little-endian 32-bit words, 0 as [0]."""
    words = []
    for value in entropy if isinstance(entropy, (list, tuple)) else (entropy,):
        try:
            n = operator.index(value)
        except TypeError:
            raise ValueError(f"entropy must be non-negative integers, got {value!r}") from None
        if n < 0:
            raise ValueError(f"entropy must be non-negative integers, got {value!r}")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _seed_state(entropy) -> list[int]:
    """numpy's SeedSequence(entropy).generate_state(4, uint64): a pool of four
    32-bit words mixed from the entropy, hashed out to eight words and paired
    little-endian (all arithmetic mod 2^32)."""
    words = _entropy_words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class SeededUniform:
    """numpy's np.random.default_rng(entropy) for uniform draws, bit for bit:
    SeedSequence seeding of a PCG64 (XSL-RR output), and `uniform` as numpy's
    Generator.uniform with an integer size.  Entropy must be a non-negative
    integer or a sequence of them; anything else raises ValueError."""

    def __init__(self, entropy):
        u0, u1, u2, u3 = _seed_state(entropy)
        self._inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
        # PCG's seeding: one step from state 0 (which gives inc), add the
        # initial state, step again
        state = (self._inc + (u0 << 64 | u1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float, size: int) -> list[float]:
        """`size` floats uniform in [low, high): low + (high - low) * u, with
        u the top 53 bits of one 64-bit output over 2^53."""
        span = high - low
        state, inc = self._state, self._inc
        out = []
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            out.append(low + span * ((x >> 11) * 2.0**-53))
        self._state = state
        return out


class UniformSource(Protocol):
    def uniform(self, low: float, high: float, size: int): ...


@dataclass(frozen=True)
class SampleStats:
    requested: int
    drawn: int


def sample_finite(rng: UniformSource, count: int) -> tuple[list[TetAngles], SampleStats]:
    """Draw `count` finite tetrahedra from the box BOX_CENTER +- BOX_HALF_WIDTH and
    report how many draws that took.  `rng` is any generator with
    `uniform(low, high, size)`: a SeededUniform, or a numpy Generator."""
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
