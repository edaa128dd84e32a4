"""Two-level additive Schwarz preconditioned block Jacobi-Davidson eigensolver.

Computes interior multiple and clustered eigenvalues of the Dirichlet
Laplacian, discretized with P1 finite elements on structured triangulations
of square and L-shaped domains.
"""

from . import eigensolver, errors, fem, linalg, mesh, oracle, schwarz
from .eigensolver import ClusterSpec, SolverConfig, SolverReport, solve
from .fem import SparsePencil, assemble
from .mesh import (
    Decomposition,
    DomainShape,
    Mesh,
    MeshHierarchy,
    build_decomposition,
    build_hierarchy,
    build_mesh,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterSpec",
    "Decomposition",
    "DomainShape",
    "Mesh",
    "MeshHierarchy",
    "SolverConfig",
    "SolverReport",
    "SparsePencil",
    "assemble",
    "build_decomposition",
    "build_hierarchy",
    "build_mesh",
    "cli",
    "eigensolver",
    "errors",
    "fem",
    "linalg",
    "mesh",
    "oracle",
    "schwarz",
    "solve",
    "__version__",
]
