"""One operation per workload, with the correctness gates that feed `failed`.

Each op returns None when every gate holds, or a one-line reason when one
misses.  A typed error raised by the package is caught and returned as the
reason; anything else propagates and stops the run.
"""

from __future__ import annotations

import math

import numpy as np

from reggescissors import klein, octahedron, scissors, tetra

VOLUME_TOL = 1e-9
QUADRATURE_TOL = 1e-5
SCHLAFLI_REL_TOL = 1e-3
_EXPECTED = (ArithmeticError, ValueError)  # the package's typed errors derive from these


def formula(angles: np.ndarray) -> str | None:
    """Both roots, the 16-piece decomposition, all three scissors checks and
    the Regge orbit of one tetrahedron."""
    t = tetra.TetAngles.of(angles)
    try:
        v = octahedron.tet_volume(t)
        if abs(octahedron.tet_volume(t, "plus") + v) > VOLUME_TOL:
            return "tet_volume(plus) != -V"
        if abs(scissors.decompose(t).total_volume() - 2 * v) > VOLUME_TOL:
            return "decompose total != 2V"
        for which in "abc":
            report = scissors.verify_scissors(t, which)
            if report.passed or (report.failure or "").startswith("transform image is"):
                continue
            return f"verify_scissors({which}): {report.failure or 'gap above tolerance'}"
        orbit = scissors.regge_orbit(t)
        for member_volume in orbit.volumes:
            if not math.isnan(member_volume) and abs(member_volume - v) > VOLUME_TOL:
                return "orbit member volume != V"
    except _EXPECTED as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def oracle(angles: np.ndarray) -> str | None:
    """Klein realization, volume quadrature, Schlafli residuals and the
    formula volume of one tetrahedron, checked against each other."""
    t = tetra.TetAngles.of(angles)
    try:
        kt = klein.klein_vertices(t)
        v_quad = klein.volume_numeric(kt, tol=1e-6)
        residuals = klein.schlafli_residual(t, h=1e-5)
        v_formula = octahedron.tet_volume(t)
        halves = np.array(tetra.edge_lengths(t)) / 2
    except _EXPECTED as exc:
        return f"{type(exc).__name__}: {exc}"
    if not abs(v_formula - v_quad) <= QUADRATURE_TOL:
        return f"|V_formula - V_quadrature| = {abs(v_formula - v_quad):.3e}"
    worst = float(np.max(residuals / halves))
    if not worst <= SCHLAFLI_REL_TOL:
        return f"relative Schlafli residual {worst:.3e}"
    return None


def known_defect(angles: np.ndarray, reason: str) -> str | None:
    """Name the known package defect behind a failed op, or None.

    Every input is Finite under the benchmark's own strict-sign check, so a
    non-Finite class from `classify` is its absolute cofactor threshold.  A
    quadrature gap is the error estimate of `volume_numeric` stopping the
    refinement early when a 10x tighter quadrature agrees with the formula.
    """
    t = tetra.TetAngles.of(angles)
    if tetra.classify(t).kind is not tetra.TetraKind.FINITE:
        return "classify: Finite input classified non-Finite"
    if reason.startswith("|V_formula - V_quadrature|"):
        try:
            tight = klein.volume_numeric(klein.klein_vertices(t), tol=1e-7)
        except _EXPECTED:
            return None
        if abs(tight - octahedron.tet_volume(t)) <= QUADRATURE_TOL:
            return "volume_numeric: refinement stopped early"
    return None
