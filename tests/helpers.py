"""Shared dense reference constructions for the test suite."""

import numpy as np


def dense_preconditioner(pencil, decomp, coarse, shift):
    """Explicit assembly of the two-level preconditioner as a dense matrix."""
    n = pencil.n
    B = np.zeros((n, n))
    K = pencil.stiffness.toarray()
    M = pencil.mass.toarray()
    for dofs in decomp.subdomains:
        block = np.linalg.inv(K[np.ix_(dofs, dofs)] - shift * M[np.ix_(dofs, dofs)])
        B[np.ix_(dofs, dofs)] += block
    if coarse.deflated_dim > 0:
        P = coarse.prolongation.toarray()
        UR = coarse.vectors[:, coarse.cluster_cut:]
        D = np.diag(1.0 / (coarse.values[coarse.cluster_cut:] - shift))
        B += P @ (UR @ D @ UR.T) @ P.T
    return B
