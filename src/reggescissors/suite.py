"""The acceptance battery: every exit criterion as a seeded, deterministic check.

Each criterion returns a CriterionResult whose checks carry their values and
tolerances; run_suite aggregates them into a report whose JSON serialization
is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import klein
from .exceptions import GeometryDomainError
from .lobachevsky import LOBACHEVSKY_MAX_ARG, _sum_in_order, lobachevsky, lobachevsky_quadrature
from .octahedron import (
    DUAL_SIDE,
    O_SIDE,
    holonomy_polynomial,
    holonomy_residual,
    linear_residuals,
    octahedron_angles,
    octahedron_volume,
    solve_holonomy,
    tet_volume,
    u_volume,
)
from .sampling import BOX_CENTER, BOX_HALF_WIDTH, SeededUniform, sample_finite
from .scissors import decompose, permute_for_regge_b, regge, verify_scissors
from .tetra import (
    _VERTEX_ANGLES,
    SWAP_AB_PAIRS,
    SWAP_BC_PAIRS,
    TetAngles,
    ideal_volume,
    prism_volume,
    prism_volume_by_tetrahedra,
    relabel,
)

__all__ = ["Check", "CriterionResult", "SuiteConfig", "SuiteReport", "run_suite", "report_json"]

_PI = math.pi


@dataclass(frozen=True)
class Check:
    metric: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def to_payload(self) -> dict:
        return {
            "metric": self.metric,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    checks: tuple[Check, ...]
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_payload() for c in self.checks],
            "notes": self.notes,
        }


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    count: int = 100
    oracle_count: int = 25
    grid_points: int = 1000
    include_determinism: bool = True

    def __post_init__(self):
        # criterion 1 reads the grid spacing as grid[1] - grid[0]; the seed
        # is a SeededUniform's entropy, which takes non-negative integers only
        for name, least in (("seed", 0), ("count", 1), ("oracle_count", 1), ("grid_points", 2)):
            value = getattr(self, name)
            if value < least:
                raise GeometryDomainError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_payload(self) -> dict:
        return {
            "suite": "regge-scissors acceptance",
            "config": {
                "seed": self.config.seed,
                "count": self.config.count,
                "oracle_count": self.config.oracle_count,
                "grid_points": self.config.grid_points,
                "box_center": BOX_CENTER,
                "box_half_width": BOX_HALF_WIDTH,
            },
            "passed": self.passed,
            "criteria": [r.to_payload() for r in self.results],
        }


def report_json(report: SuiteReport) -> str:
    return json.dumps(report.to_payload(), sort_keys=True, indent=2)


def _rng(config: SuiteConfig, stream: int) -> SeededUniform:
    return SeededUniform([config.seed, stream])


def _tetra_batch(config: SuiteConfig, stream: int, count: int) -> Iterator[TetAngles]:
    """The draws of one stream, handed out one at a time and dropped after their
    iteration: a checked source, and the images regge keeps on it, go at once."""
    batch, _ = sample_finite(_rng(config, stream), count)
    batch.reverse()
    while batch:
        yield batch.pop()


def criterion_1(config: SuiteConfig) -> CriterionResult:
    """Lobachevsky function: series vs quadrature, symmetry, duplication, argmax."""
    grid = np.linspace(-2 * _PI, 2 * _PI, config.grid_points)
    series = lobachevsky(grid)
    quad = lobachevsky_quadrature(grid, 1e-12)
    cross = float(np.max(np.abs(series - quad)))
    odd = float(np.max(np.abs(lobachevsky(-grid) + series)))
    periodic = float(np.max(np.abs(lobachevsky(grid + _PI) - series)))
    dup = float(np.max(np.abs(lobachevsky(2 * grid) - 2 * series - 2 * lobachevsky(grid + _PI / 2))))
    # equivalent maxima sit at pi/6 + k*pi; measure the distance mod pi
    argmax_gap = abs(float(grid[int(np.argmax(series))]) % _PI - LOBACHEVSKY_MAX_ARG)
    resolution = float(grid[1] - grid[0])
    checks = (
        Check("max |series - quadrature| on grid", cross, 1e-10),
        Check("oddness deviation", odd, 1e-10),
        Check("pi-periodicity deviation", periodic, 1e-10),
        Check("duplication identity deviation", dup, 1e-10),
        Check("argmax distance from pi/6", argmax_gap, resolution),
    )
    return CriterionResult(1, "Lobachevsky series/quadrature cross-check", checks)


def criterion_2(config: SuiteConfig) -> CriterionResult:
    """Prism formula equals the three-tetrahedron sum (factor-2 resolution)."""
    rng = _rng(config, 2)
    worst = 0.0
    n = 0
    while n < config.count:
        abc = rng.uniform(0.05, 1.45, size=3)
        if sum(abc) >= _PI - 0.02:
            continue
        n += 1
        gap = abs(prism_volume(*abc) - prism_volume_by_tetrahedra(*abc))
        worst = max(worst, gap)
    checks = (Check("max |closed form - tetra sum|", worst, 1e-10),)
    return CriterionResult(2, "prism volume consistency", checks,
                           notes={"samples": config.count})


def criterion_3(config: SuiteConfig) -> CriterionResult:
    """Linear constraints, holonomy product, unit roots, vanishing end coefficients."""
    w_lin = w_hol = w_unit = w_ends = 0.0
    for t in _tetra_batch(config, 3, config.count):
        roots = solve_holonomy(t)
        for side in (O_SIDE, DUAL_SIDE):
            oa = octahedron_angles(t, side)
            w_lin = max(w_lin, *linear_residuals(oa))
            w_hol = max(w_hol, holonomy_residual(oa))
        w_unit = max(w_unit, roots.unit_defect)
        poly = holonomy_polynomial(roots.bars)
        w_ends = max(w_ends, abs(poly[0]), abs(poly[4]))
    checks = (
        Check("max linear-constraint residual", w_lin, 1e-10),
        Check("max |holonomy product - 1|", w_hol, 1e-10),
        Check("max ||z| - 1|", w_unit, 1e-9),
        Check("max |vanishing z^0/z^8 coefficient|", w_ends, 1e-12),
    )
    return CriterionResult(3, "octahedron angle system", checks,
                           notes={"samples": config.count})


def criterion_4(config: SuiteConfig) -> CriterionResult:
    """All volume routes agree; the plus root gives the negated volume."""
    w_routes = w_negation = 0.0
    for t in _tetra_batch(config, 4, config.count):
        v = tet_volume(t)
        per_octa = 0.5 * (
            octahedron_volume(octahedron_angles(t, O_SIDE))
            + octahedron_volume(octahedron_angles(t, DUAL_SIDE))
        )
        clean = 0.5 * decompose(t).total_volume()
        x = t.as_tuple()
        prisms = [prism_volume(x[i], x[j], x[k]) for i, j, k in _VERTEX_ANGLES]
        via_u = u_volume(t) - 0.5 * _sum_in_order(prisms)
        routes = [v, per_octa, clean, via_u]
        w_routes = max(w_routes, max(routes) - min(routes))
        w_negation = max(w_negation, abs(tet_volume(t, "plus") + v))
    checks = (
        Check("max pairwise route disagreement", w_routes, 1e-9),
        Check("max |V(plus root) + V|", w_negation, 1e-9),
    )
    return CriterionResult(4, "volume formula coherence", checks,
                           notes={"samples": config.count})


def criterion_5(config: SuiteConfig) -> CriterionResult:
    """Formula volume against Klein quadrature; Schlafli differential check."""
    w_quad = w_schlafli = 0.0
    for t in _tetra_batch(config, 5, config.oracle_count):
        kt = klein.klein_vertices(t)
        w_quad = max(w_quad, abs(tet_volume(t) - klein.volume_numeric(kt, 1e-6)))
        w_schlafli = max(w_schlafli, klein.schlafli_max_relative(t, klein.schlafli_residual(t, 1e-5)))
    checks = (
        Check("max |formula - quadrature| volume", w_quad, 1e-5),
        Check("max relative Schlafli residual (h=1e-5)", w_schlafli, 1e-3),
    )
    return CriterionResult(5, "coordinate oracle agreement", checks,
                           notes={"samples": config.oracle_count})


def criterion_6(config: SuiteConfig) -> CriterionResult:
    """Regge transforms: volume invariance, involution, conjugation identity."""
    w_vol = w_invol = w_conj = 0.0
    for t in _tetra_batch(config, 6, config.count):
        v = tet_volume(t)
        for which in ("a", "b", "c"):
            img = regge(t, which)
            w_vol = max(w_vol, abs(tet_volume(img) - v))
            back = regge(img, which)
            w_invol = max(
                w_invol, max(abs(x - y) for x, y in zip(back.as_tuple(), t.as_tuple()))
            )
        via_b_a = relabel(regge(relabel(t, SWAP_AB_PAIRS), "b"), SWAP_AB_PAIRS)
        via_b_c = relabel(regge(relabel(t, SWAP_BC_PAIRS), "b"), SWAP_BC_PAIRS)
        w_conj = max(
            w_conj,
            max(abs(x - y) for x, y in zip(via_b_a.as_tuple(), regge(t, "a").as_tuple())),
            max(abs(x - y) for x, y in zip(via_b_c.as_tuple(), regge(t, "c").as_tuple())),
        )
    checks = (
        Check("max |V(T) - V(R_x(T))|", w_vol, 1e-9),
        Check("max involution defect", w_invol, 1e-12),
        Check("max conjugation identity defect", w_conj, 0.0),
    )
    return CriterionResult(6, "Regge transform invariance", checks,
                           notes={"samples": config.count})


def criterion_7(config: SuiteConfig) -> CriterionResult:
    """Central scissors check: slot by slot via the BA/DC swap; halving."""
    w_slot = w_half = 0.0
    all_passed = True
    for t in _tetra_batch(config, 7, config.count):
        report = verify_scissors(t, "b")
        all_passed = all_passed and report.passed
        w_slot = max(w_slot, report.slot_gap)
        # each piece splits along its symmetry plane into two congruent
        # halves, and either family of 16 halves reassembles one copy of T
        d = decompose(t)
        v = tet_volume(t)
        w_half = max(w_half, abs(0.5 * d.total_volume() - v),
                     abs(0.5 * permute_for_regge_b(d).total_volume() - v))
    checks = (
        Check("max slot-aligned gap (BA/DC swap route)", w_slot, 1e-9),
        Check("max |halved sum - V|", w_half, 1e-10),
        Check("all verify reports passed", 0.0 if all_passed else 1.0, 0.5),
    )
    return CriterionResult(7, "scissors congruence of 2T and 2R_b(T)", checks,
                           notes={"samples": config.count})


def criterion_8(config: SuiteConfig) -> CriterionResult:
    """Spot values: regular ideal volume; the half-tetra piece identity."""
    regular = ideal_volume(_PI / 3, _PI / 3, _PI / 3)
    oracle = 3 * lobachevsky_quadrature(_PI / 3, 1e-12)
    gap_regular = abs(regular - oracle)
    thetas = np.linspace(0.05, _PI / 2 - 0.05, 40)
    w_piece = 0.0
    for theta in thetas:
        vol = ideal_volume(2 * theta, _PI / 2 - theta, _PI / 2 - theta)
        w_piece = max(w_piece, abs(vol - 2 * lobachevsky(theta)))
    checks = (
        Check("|regular ideal volume - quadrature oracle|", gap_regular, 1e-9),
        Check("max |V(L-piece doubling) - 2 lob(theta)|", w_piece, 1e-10),
    )
    return CriterionResult(8, "known-value spot checks", checks)


def criterion_9(config: SuiteConfig) -> CriterionResult:
    """Byte-identical reports for a fixed seed."""
    mini = SuiteConfig(seed=config.seed, count=4, oracle_count=2, grid_points=40,
                       include_determinism=False)
    first = report_json(run_suite(mini))
    second = report_json(run_suite(mini))
    identical = first == second
    checks = (Check("report byte difference count", 0.0 if identical else 1.0, 0.5),)
    return CriterionResult(9, "deterministic reports", checks,
                           notes={"bytes": len(first)})


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    config = config or SuiteConfig()
    results = []
    for fn in _CRITERIA:
        if fn is criterion_9 and not config.include_determinism:
            continue
        results.append(fn(config))
    return SuiteReport(config=config, results=tuple(results))
