"""Analytic reference spectrum of the square.

The solver never consults this module.  ``exact_square_eigenvalues`` gives
the continuous spectrum of the square, which the CLI writes beside the
computed values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, is_integer

__all__ = ["exact_square_eigenvalues"]


def exact_square_eigenvalues(count: int) -> np.ndarray:
    """First ``count`` Dirichlet Laplacian eigenvalues of (0, pi)^2: sorted {p^2 + q^2}, float64."""
    if not is_integer(count) or count < 1:
        raise InvalidArgumentError(f"count must be an integer >= 1, got {count!r}")
    count = int(count)
    # One pass suffices with B = bound.  Every pair with p^2 + q^2 <= B^2 has
    # p, q <= B, so it is enumerated, and every pair left out exceeds B^2.
    # The unit squares whose upper-right corners are those pairs cover the
    # quarter disk of radius B - sqrt(2), so at least pi (B - sqrt(2))^2 / 4
    # pairs lie within B^2.  B > 2 sqrt(count) + 1 makes that more than
    # count, so the first ``count`` values are all enumerated.
    bound = math.isqrt(4 * count) + 2
    p = np.arange(1, bound + 1)
    vals = np.sort((p[:, None] ** 2 + p[None, :] ** 2).ravel())
    return vals[:count].astype(np.float64)

