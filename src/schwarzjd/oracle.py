"""Analytic reference spectra and cluster gaps.

The solver never consults this module.  ``exact_square_eigenvalues`` gives
the continuous spectrum of the square, which the CLI writes beside the
computed values; ``cluster_gaps`` measures how well a cluster is separated
in any ascending spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, is_integer

__all__ = ["GapInfo", "exact_square_eigenvalues", "cluster_gaps"]


@dataclass(frozen=True)
class GapInfo:
    """Spectral gaps bracketing a cluster: (lambda_m - lambda_{m-1}, lambda_{M+1} - lambda_M)."""

    left: float
    right: float
    isolated: bool  # both gaps strictly positive


def exact_square_eigenvalues(count: int) -> np.ndarray:
    """First ``count`` Dirichlet Laplacian eigenvalues of (0, pi)^2: sorted {p^2 + q^2}, float64."""
    if not is_integer(count) or count < 1:
        raise InvalidArgumentError(f"count must be an integer >= 1, got {count!r}")
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


def cluster_gaps(values: np.ndarray, first: int, last: int) -> GapInfo:
    """Gaps around the 1-based cluster [first, last] in the ascending ``values``.

    Uses lambda_0 = 0 below the spectrum.  Zero (or negative) gaps mean the
    cluster cuts through a multiplet; ``isolated`` is False in that case.
    """
    if not (is_integer(first) and is_integer(last)) or not 1 <= first <= last:
        raise InvalidArgumentError(f"need integers 1 <= first <= last, got ({first!r}, {last!r})")
    if last + 1 > len(values):
        raise InvalidArgumentError(
            f"reference holds {len(values)} values, cluster ({first}, {last}) needs {last + 1}"
        )
    below = 0.0 if first == 1 else float(values[first - 2])
    left = float(values[first - 1]) - below
    right = float(values[last]) - float(values[last - 1])
    return GapInfo(left=left, right=right, isolated=left > 0.0 and right > 0.0)
