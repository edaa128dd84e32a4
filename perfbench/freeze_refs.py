"""Compute and freeze the reference cluster values of every workload.

    python3 perfbench/freeze_refs.py            # rewrite references.json
    python3 perfbench/freeze_refs.py --check    # recompute and compare only

The references come from shift-invert Lanczos (``scipy.sparse.linalg.eigsh``
at shift 0) on the same assembled pencil, a route that shares no code with
``schwarzjd.solve``.  On the square, each discrete value must also lie above
the analytic eigenvalue p^2 + q^2 of the same index, since conforming P1
eigenvalues are upper bounds of the continuous ones.  The cluster must be
separated from its neighbours, so that its indices are well defined.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import harness  # noqa: E402

# Smallest relative gap to the eigenvalue just outside either end of the cluster.
MIN_GAP = 1e-3


def analytic_square(count: int) -> np.ndarray:
    """First ``count`` Dirichlet eigenvalues of (0, pi)^2, sorted p^2 + q^2."""
    p = np.arange(1, count + 1)
    return np.sort((p[:, None] ** 2 + p[None, :] ** 2).ravel())[:count].astype(np.float64)


def compute_reference(w: harness.Workload) -> np.ndarray:
    """Cluster values first..last of the workload's pencil, checked as described above."""
    _, pencil, _ = harness.build_problem(w)
    values, _ = harness.eigsh_lowest(pencil, w.last + 1, np.random.default_rng(0))
    cluster = values[w.first - 1 : w.last]
    below = values[w.first - 2] if w.first > 1 else -np.inf
    above = values[w.last]
    scale = cluster.max()
    if cluster.min() - below < MIN_GAP * scale or above - cluster.max() < MIN_GAP * scale:
        raise ValueError(f"cluster {w.first}..{w.last} of {w} is not separated from its neighbours")
    if w.domain == "square":
        exact = analytic_square(w.last)[w.first - 1 :]
        if not np.all(cluster > exact):
            raise ValueError(f"discrete values of {w} not above the analytic p^2 + q^2")
    return cluster


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the frozen file")
    args = parser.parse_args()
    frozen = {}
    for name, w in harness.WORKLOADS.items():
        values = compute_reference(w)
        frozen[name] = {
            "domain": w.domain, "coarse": w.coarse, "fine": w.fine,
            "first": w.first, "last": w.last,
            "method": "scipy.sparse.linalg.eigsh, shift-invert at 0",
            "values": [float(v) for v in values],
        }
        if args.check:
            err = float(np.max(np.abs(values - harness.load_reference(name))))
            print(f"{name}: max |recomputed - frozen| = {err:.3e} (bound {harness.BOUND:.1e})")
            if not err <= harness.BOUND:
                return 1
    if not args.check:
        harness.REFERENCES.write_text(json.dumps(frozen, indent=1) + "\n")
        print(f"wrote {harness.REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
