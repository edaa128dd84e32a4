"""Benchmark entry point: one workload, one run, one JSON line at the end.

    python3 perfbench/run.py --workload square-spd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see harness.py).  The
lines before the last one are for people: the environment record and each
metric with its unit.  Exit codes: 0 all answers correct, 1 a wrong answer
(result printed with "correct": false), 2 the run could not start.
"""

import os
import sys

# One single-threaded client.  On a shared 2-core machine, solves in one run
# took 5.4-7.0 s with two BLAS threads, and 8.5-9.0 s with one.  BLAS reads
# its thread count when it is loaded, so this precedes the numpy import.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    """What makes numbers from two machines incomparable."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = []
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if Path(line.split()[-1]).name.startswith("lib")
                           and any(k in line.lower() for k in ("blas", "mkl"))})
    except OSError:
        libs = []
    for lib in libs:
        threads = None
        try:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
        except OSError:
            pass
        blas.append({"library": Path(lib).name, "threads": threads})
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{build.get('name')} {build.get('version')}",
        "blas_loaded": blas,
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schwarzjd" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import schwarzjd

    if Path(schwarzjd.__file__).resolve().parent != SRC / "schwarzjd":
        print(f"schwarzjd imported from {schwarzjd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload == "all":
        # Every workload in a fresh process of its own, one after the other.
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in harness.WORKLOADS
        )
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(harness.WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("--seconds must be >= 0", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()), flush=True)
    w = harness.WORKLOADS[args.workload]
    reference = harness.load_reference(args.workload)
    measure = harness.per_layer if args.trace else harness.end_to_end
    result = measure(w, reference, args.seed, args.seconds)

    units = {**harness.END_TO_END, **harness.PER_LAYER}
    print(f"workload {args.workload} {w} seed {args.seed} trace {args.trace}")
    for note in result.notes:
        print(f"  note: {note.splitlines()[0]}")
    for name, value in result.metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  {'failed_share':<40} {result.failed / result.attempted:>16.6g} ratio"
          f" ({result.failed} of {result.attempted})")
    print(result.json_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
