"""Fingerprint the solver's full trace on eleven fixed cases, to prove bit-identity.

    python3 tools/trace_hashes.py
    python3 tools/trace_hashes.py --spread
    python3 tools/trace_hashes.py --perturb 8

Run it on two checkouts and compare the output: a refactor that claims not to
change the numerics must print the same lines.  Each line gives the case, the
iteration count, the number of trace rows with an exact stop norm and two
hashes, each the first 16 hex digits of a sha256:

  exact   the rows whose stop norm was computed exactly (not NaN);
  trace   the final cluster values, then each trace row's values and its
          stop norm (NaN on rows without an exact stop-norm solve);
  values  the final cluster values, each trace row's values and the
          iteration count, without stop norms.

All values are hashed as float64 bytes.  The values hash compares runs
whose stop norms are computed on different rows or rounded differently; a
change that moves only the exact stop norms keeps the iteration counts, the
exact-row counts and the values hashes, and changes only trace hashes.  BLAS runs on one thread
(set before NumPy loads), with overlap 0.25, so the reduction orders are
fixed.  The tolerance is 1e-8, except in the last two cases: at 1e-300 the
stop test never passes, so their basis fills all n columns, until the run
stagnates.

``--spread`` shows how far roundoff moves the iteration counts: it reruns
the tool in a subprocess at one and at two BLAS threads (passing the count
in ``TRACE_HASHES_THREADS``) and prints both iteration counts per case.

``--perturb N`` shows how far ulp noise in the startup moves them: it reruns
each case N times, with the startup eigenvectors scaled entrywise by
1 + 2.2e-16 * N(0, 1), drawn from a generator seeded by the case's index and
the run's, and prints each case's minimum, median and maximum iteration
count.  The scaling wraps ``schwarzjd.linalg.lowest_eigenpairs`` here only
(``perturbed_startup``); the library has no such hook.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = os.environ.get("TRACE_HASHES_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from schwarzjd import linalg  # noqa: E402
from schwarzjd.eigensolver import ClusterSpec, SolverConfig, solve  # noqa: E402
from schwarzjd.fem import assemble  # noqa: E402
from schwarzjd.mesh import DomainShape, build_decomposition, build_hierarchy  # noqa: E402

OVERLAP = 0.25
TOL = 1e-8
# Relative size of the entrywise noise that --perturb puts on the startup eigenvectors.
PERTURBATION = 2.2e-16

# (domain, coarse level, fine level, first, last, extra SolverConfig fields)
CASES = [
    ("square", 3, 6, 21, 26, {}),
    ("square", 3, 5, 99, 108, {}),
    ("lshape", 4, 6, 41, 43, {}),
    ("square", 2, 5, 10, 14, {}),
    ("lshape", 3, 5, 41, 47, {}),
    ("square", 2, 5, 2, 4, {}),
    ("square", 2, 4, 3, 5, {"restart_dim": 13}),
    ("square", 2, 7, 3, 5, {}),
    ("square", 2, 7, 13, 15, {}),
    ("square", 2, 4, 1, 5, {"tol": 1e-300, "max_iter": 60}),
    ("square", 1, 3, 1, 2, {"tol": 1e-300, "max_iter": 100}),
]


def case_name(case) -> str:
    domain, coarse, fine, first, last, extra = case
    options = " ".join(f"{k}={v}" for k, v in extra.items())
    return f"{domain} {coarse}/{fine} {first}..{last} {options}".rstrip()


def run_case(case):
    """The solver's report on one case."""
    domain, coarse, fine, first, last, extra = case
    hier = build_hierarchy(DomainShape(domain), coarse, fine)
    decomp = build_decomposition(hier, OVERLAP)
    return solve(hier, assemble(hier.fine), decomp, ClusterSpec(first, last),
                 SolverConfig(**{"tol": TOL, **extra}))


@contextlib.contextmanager
def perturbed_startup(rng):
    """While active, ``linalg.lowest_eigenpairs`` scales the eigenvectors it returns
    entrywise by 1 + PERTURBATION * N(0, 1), drawn from ``rng``; its values are kept."""
    exact = linalg.lowest_eigenpairs

    def lowest_eigenpairs(K, M, k):
        eig = exact(K, M, k)
        noise = 1.0 + PERTURBATION * rng.standard_normal(eig.vectors.shape)
        return linalg.EigenBasis(values=eig.values, vectors=eig.vectors * noise)

    linalg.lowest_eigenpairs = lowest_eigenpairs
    try:
        yield
    finally:
        linalg.lowest_eigenpairs = exact


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a count of at least 1, got {value}")
    return value


def trace_hash(report, with_stop_norms: bool = True) -> str:
    h = hashlib.sha256(np.asarray(report.values, dtype=np.float64).tobytes())
    for rec in report.trace:
        h.update(np.asarray(rec.values, dtype=np.float64).tobytes())
        if with_stop_norms:
            h.update(np.float64(rec.stop_norm).tobytes())
    if not with_stop_norms:
        h.update(np.int64(report.iterations).tobytes())
    return h.hexdigest()[:16]


def spread() -> None:
    """Each case's iteration count at one and at two BLAS threads, one subprocess each."""
    counts = {}
    for threads in (1, 2):
        out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                             check=True, env={**os.environ, "TRACE_HASHES_THREADS": str(threads)}
                             ).stdout
        for case, iterations in re.findall(r"^(.+?)  iterations=(\d+)", out, re.M):
            counts.setdefault(case, []).append(iterations)
    for case, (one, two) in counts.items():
        print(f"{case}  iterations at 1 thread={one}  at 2 threads={two}", flush=True)


def perturb(runs: int) -> None:
    """Each case's minimum, median and maximum iteration count over ``runs`` perturbed runs."""
    for index, case in enumerate(CASES):
        counts = []
        for run in range(runs):
            with perturbed_startup(np.random.default_rng([index, run])):
                counts.append(run_case(case).iterations)
        print(f"{case_name(case)}  iterations min={min(counts)}  median={np.median(counts):g}"
              f"  max={max(counts)}", flush=True)


def main() -> None:
    for case in CASES:
        report = run_case(case)
        print(case_name(case)
              + f"  iterations={report.iterations}"
              + f"  exact={sum(not np.isnan(rec.stop_norm) for rec in report.trace)}"
              + f"  trace={trace_hash(report)}"
              + f"  values={trace_hash(report, with_stop_norms=False)}", flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Fingerprint the solver's trace on eleven cases.")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--spread", action="store_true",
                       help="print each case's iteration count at one and at two BLAS threads")
    modes.add_argument("--perturb", type=positive_int, metavar="N",
                       help="rerun each case N times with ulp noise on the startup eigenvectors "
                            "and print the minimum, median and maximum iteration count")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if args.spread:
        spread()
    elif args.perturb:
        perturb(args.perturb)
    else:
        main()
