"""Hyperbolic tetrahedron volumes via the ideal-octahedron construction,
16-piece scissors decompositions of 2T, and numerical verification that the
Regge symmetries are scissors congruences."""

from .exceptions import (
    DegenerateSystemError,
    GeometryDomainError,
    NonUnitRootError,
    QuadratureError,
)
from .lobachevsky import lobachevsky, lobachevsky_quadrature
from .tetra import (
    TetAngles,
    TetraClass,
    TetraKind,
    classify,
    edge_lengths,
    gram_matrix,
    ideal_volume,
    prime_angles,
    prism_volume,
    relabel,
)
from .octahedron import (
    HolonomyRoots,
    OctAngles,
    base_angles,
    bar_solution,
    octahedron_angles,
    octahedron_volume,
    solve_holonomy,
    tet_volume,
    u_volume,
)
from .scissors import (
    Decomposition,
    ScissorsReport,
    decompose,
    permute_for_regge_b,
    regge,
    regge_orbit,
    verify_scissors,
)

__version__ = "0.1.0"

# The Klein oracle and the suite need numpy, so they and their names are
# imported on first use: the angle commands never load numpy.
_LAZY = {
    "klein": ("KleinTetra", "dihedral_angles", "klein_vertices", "schlafli_residual", "volume_numeric"),
    "suite": ("SuiteConfig", "SuiteReport", "run_suite"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            import importlib

            found = importlib.import_module(f".{module}", __name__)
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
