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
from .klein import (
    KleinTetra,
    dihedral_angles,
    klein_vertices,
    schlafli_residual,
    volume_numeric,
)
from .suite import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
