"""Peak resident memory per solver phase, sampled from outside the library.

    python3 tools/rss_phases.py square 5 8 99 108 [restart_dim]

Wraps the set-up calls, the phases of ``eigensolver.solve``, the
Rayleigh-Ritz step ``_grow`` that startup, iterations and restarts share,
and the startup's heap release (``linalg.release_free_heap``) as module
attributes, as perfbench's tracer does, while a thread reads
/proc/self/statm every 2 ms.  Prints the process's RSS high-water mark
(``linalg.high_water_mark``) as the solve returned, and then each phase's
calls, the largest RSS sampled while one of its calls ran (a nested call
counts for every enclosing phase), which can miss a peak shorter than the
sampling period, such as ``dsyevd``'s workspace, and beside it the rise of
the high-water mark over its calls, with the mark its last rising call
reached (``to``; ``-`` when no call raised it).  The mark misses no peak
and only grows, up to the batching of the kernel's per-CPU RSS counters (a
few hundred KiB; a call's fall within it counts as no rise), so the phase
whose call raised it last set the process's peak.  Then the largest free
heap that glibc retained as one of its calls returned
(``mallinfo2().fordblks``: memory freed to malloc but not to the kernel;
``n/a`` where the C library has no ``mallinfo2``), and the RSS and free
heap as its last call started and returned (``last=``), which for the
release shows what it handed back.
"""

import ctypes
import os
import sys
import threading
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schwarzjd import eigensolver, fem, linalg, mesh, schwarz  # noqa: E402

PHASES = [(mesh, "build_hierarchy"), (mesh, "build_decomposition"), (fem, "assemble"),
          *[(schwarz, a) for a in ("build_coarse_piece", "LocalBlocks", "prepare")],
          *[(eigensolver, a) for a in ("initialize", "correction_step", "rayleigh_ritz", "_grow",
                                       "_thick_restart", "stop_bounds", "stop_norm")],
          (linalg, "release_free_heap")]
PAGE = os.sysconf("SC_PAGE_SIZE")
active, calls, peak, retained, last, rise, top = [], {}, {}, {}, {}, {}, {}


class Mallinfo2(ctypes.Structure):
    _fields_ = [(field, ctypes.c_size_t) for field in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
if mallinfo2 is not None:
    mallinfo2.restype = Mallinfo2


def sample(period=None):
    while True:
        with open("/proc/self/statm") as fh:
            rss = int(fh.read().split()[1]) * PAGE
        for name in list(active):
            peak[name] = max(peak.get(name, 0), rss)
        if period is None:
            return rss
        time.sleep(period)


def free_heap():
    return None if mallinfo2 is None else mallinfo2().fordblks


def mib(size):
    return "n/a" if size is None else f"{size / 2**20:.1f} MiB"


def wrap(owner, attr):
    original, name = getattr(owner, attr), f"{owner.__name__.split('.')[-1]}.{attr}"

    def traced(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        active.append(name)
        before, mark = (sample(), free_heap()), linalg.high_water_mark()
        try:
            return original(*args, **kwargs)
        finally:
            after, raised = (sample(), free_heap()), linalg.high_water_mark()
            active.remove(name)
            last[name] = before, after
            rise[name] = rise.get(name, 0) + max(raised - mark, 0)
            if raised > mark:
                top[name] = raised
            if after[1] is not None:
                retained[name] = max(retained.get(name, 0), after[1])

    setattr(owner, attr, traced)


def main(domain, coarse, fine, m, M, restart_dim=None):
    for owner, attr in PHASES:
        wrap(owner, attr)
    threading.Thread(target=sample, args=(0.002,), daemon=True).start()
    hier = mesh.build_hierarchy(mesh.DomainShape(domain), int(coarse), int(fine))
    pencil = fem.assemble(hier.fine)
    report = eigensolver.solve(hier, pencil, mesh.build_decomposition(hier, 0.25),
                               eigensolver.ClusterSpec(int(m), int(M)),
                               eigensolver.SolverConfig(restart_dim=restart_dim and int(restart_dim)))
    dim = report.trace[-1].basis_dim
    print(f"iterations={report.iterations}  basis {dim} columns {8 * pencil.n * dim / 2**20:.1f} MiB"
          f"  hwm={mib(linalg.high_water_mark())}")
    for name, count in calls.items():
        (rss_in, heap_in), (rss_out, heap_out) = last[name]
        reached = mib(top[name]) if name in top else "-"
        print(f"{name:28s} calls={count:<5d} peak_rss={peak[name] / 2**20:8.1f} MiB  "
              f"hwm_rise={rise[name] / 2**20:6.1f} MiB to {reached:>10s}  "
              f"retained_heap={mib(retained.get(name)):>10s}  last=rss {mib(rss_in)} -> "
              f"{mib(rss_out)}, heap {mib(heap_in)} -> {mib(heap_out)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
