"""Measurement and correctness checks for the schwarzjd benchmark.

A run solves one fixed eigenvalue cluster problem (a workload) in a closed
loop: one client, the next solve starts when the previous one returned.

Untraced runs report the end-to-end metrics: the median wall time of
``eigensolver.solve`` to ``TOL`` (``solve_s``), the median time of the
problem set-up ``build_hierarchy`` + ``assemble`` + ``build_decomposition``
(``setup_s``), the process's peak resident set size and the outer iteration
count.  Traced runs wrap the library's layer functions (see ``_TRACED``),
solve once more under the wrappers and report per-layer counts and times.

Every solve is checked against frozen reference eigenvalues computed by an
independent route (``freeze_refs.py``); a solve that raises, does not
converge, lands outside ``BOUND`` of the reference, or differs bit for bit
from the run's first solve counts as failed.

The problems are fixed, so the solver's inputs and iteration counts repeat
exactly; the seed drives the random probe of the correctness check and the
start vector of the ``eigsh`` baseline.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from schwarzjd import eigensolver, fem, linalg, mesh, schwarz
from tracer import Tracer

OVERLAP = 0.25
TOL = 1e-8
MAX_ITER = 200
# Set-ups before each solve; spreading them over the run, between the solves,
# samples the same machine conditions the solves see.
SETUPS_PER_SOLVE = 5
# Each Ritz value lies within its residual's M^-1-norm of an eigenvalue of the
# pencil, and the stop norm bounds every cluster residual's norm, so a
# converged cluster value is within TOL of its reference.
BOUND = TOL
# Largest entry of V' M V - I accepted for the returned cluster vectors.
ORTHO_TOL = 1e-8

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Workload:
    domain: str
    coarse: int
    fine: int
    first: int
    last: int


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "square-spd": Workload("square", 3, 6, 21, 26),
    "square-indefinite": Workload("square", 3, 5, 99, 108),
    "lshape-many-small": Workload("lshape", 4, 6, 41, 43),
}

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "iterations": "count",
}

PER_LAYER = {
    "mesh.build_hierarchy_s": "s",
    "mesh.build_decomposition_s": "s",
    "mesh.subdomains": "count",
    "mesh.max_subdomain_dofs": "count",
    "fem.assemble_s": "s",
    "fem.assemble.calls": "count",
    "linalg.factorize_shifted.calls": "count",
    "linalg.factorize_shifted_s": "s",
    "linalg.factor.spd_cholesky": "count",
    "linalg.factor.ldlt": "count",
    "linalg.factor.sparse_lu": "count",
    "linalg.ldlt_fallback_share": "ratio",
    "linalg.factor_solve.calls": "count",
    "linalg.factor_solve_s": "s",
    "schwarz.apply.calls": "count",
    "schwarz.apply_s": "s",
    "schwarz.apply_local_s": "s",
    "schwarz.apply_coarse_s": "s",
    "schwarz.prepare.calls": "count",
    "schwarz.prepare_s": "s",
    "schwarz.prepare_self_s": "s",
    "schwarz.build_coarse_piece_s": "s",
    "schwarz.coarse_deflated_dim": "count",
    "schwarz.local_operator_classes": "count",
    "schwarz.factorization_reuse_potential": "ratio",
    "linalg.b_orthonormalize.calls": "count",
    "linalg.b_orthonormalize_s": "s",
    "linalg.b_orthonormalize.cols_in": "count",
    "linalg.b_orthonormalize.cols_kept": "count",
    "eigensolver.rayleigh_ritz_s": "s",
    "eigensolver.rayleigh_ritz_self_s": "s",
    "eigensolver.final_basis_dim": "count",
    "eigensolver.initialize_s": "s",
    "linalg.dense_generalized_eig_s": "s",
    "eigensolver.correction_step_s": "s",
    "eigensolver.stop_norm_s": "s",
    "eigensolver.solve_self_s": "s",
    "trace.overhead_s": "s",
    "ref.eigsh_s": "s",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list = field(default_factory=list)

    def json_line(self) -> str:
        units = {**END_TO_END, **PER_LAYER}
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        })


def load_reference(name: str) -> np.ndarray:
    """Frozen cluster values of workload ``name``; the entry must match its definition."""
    entry = json.loads(REFERENCES.read_text())[name]
    w = WORKLOADS[name]
    frozen = Workload(entry["domain"], entry["coarse"], entry["fine"], entry["first"], entry["last"])
    if frozen != w:
        raise ValueError(f"reference for {name} was frozen for {frozen}, workload is {w}")
    return np.array(entry["values"], dtype=np.float64)


def build_problem(w: Workload):
    """Set-up measured as ``setup_s``; module attributes are looked up per call so tracing sees them."""
    hier = mesh.build_hierarchy(mesh.DomainShape(w.domain), w.coarse, w.fine)
    pencil = fem.assemble(hier.fine)
    decomp = mesh.build_decomposition(hier, OVERLAP)
    return hier, pencil, decomp


def _solve(w: Workload, problem):
    hier, pencil, decomp = problem
    return eigensolver.solve(
        hier, pencil, decomp,
        eigensolver.ClusterSpec(w.first, w.last),
        eigensolver.SolverConfig(tol=TOL, max_iter=MAX_ITER),
    )


def fingerprint(report) -> tuple:
    """What a rerun, traced or not, must reproduce bit for bit."""
    return (
        np.asarray(report.values, dtype=np.float64).tobytes(),
        report.iterations,
        np.array([r.stop_norm for r in report.trace], dtype=np.float64).tobytes(),
    )


def check_report(report, reference: np.ndarray, pencil, rng) -> list[str]:
    """Problems with one solve's answer; empty when it is correct."""
    if not report.converged:
        return [f"did not converge in {report.iterations} iterations (stop norm {report.stop_norm:.3e})"]
    values = np.asarray(report.values, dtype=np.float64)
    if values.shape != reference.shape:
        return [f"{values.size} cluster values returned, {reference.size} expected"]
    problems = []
    err = float(np.max(np.abs(values - reference)))
    if not err <= BOUND:
        problems.append(f"cluster values off the reference by {err:.3e} > {BOUND:.1e}")
    V = np.asarray(report.vectors, dtype=np.float64)
    MV = pencil.mass @ V
    ortho = float(np.max(np.abs(V.T @ MV - np.eye(V.shape[1]))))
    if not ortho <= ORTHO_TOL:
        problems.append(f"cluster vectors not mass-orthonormal ({ortho:.3e})")
    # A random combination of the cluster vectors has its Rayleigh quotient
    # inside the cluster's value range.
    v = V @ rng.standard_normal(V.shape[1])
    rq = float(v @ (pencil.stiffness @ v)) / float(v @ (pencil.mass @ v))
    if not reference.min() - BOUND <= rq <= reference.max() + BOUND:
        problems.append(f"Rayleigh quotient {rq:.10g} of a cluster combination outside the cluster")
    return problems


@dataclass
class _Loop:
    """Closed-loop untraced set-ups and solves, and the solves' failures."""

    times: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    problem: tuple | None = None
    iterations: list = field(default_factory=list)
    failed: int = 0
    first: tuple | None = None
    notes: list = field(default_factory=list)

    def attempt(self, w, reference, rng):
        t0 = time.perf_counter()
        try:
            report = _solve(w, self.problem)
        except Exception:  # a failed solve is counted, and the loop goes on
            self.times.append(time.perf_counter() - t0)
            self.fail("solve raised:\n" + traceback.format_exc())
            return
        self.times.append(time.perf_counter() - t0)
        self.iterations.append(report.iterations)
        problems = check_report(report, reference, self.problem[1], rng)
        fp = fingerprint(report)
        if self.first is None:
            self.first = fp
        elif fp != self.first:
            problems.append("rerun did not reproduce the first solve bit for bit")
        if problems:
            self.fail("; ".join(problems))

    def fail(self, message):
        self.failed += 1
        self.notes.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def run(self, w, reference, rng, seconds):
        """Set up, then solve the new problem, until ``seconds`` have passed; at least once."""
        deadline = time.perf_counter() + seconds
        while not self.times or time.perf_counter() < deadline:
            for _ in range(SETUPS_PER_SOLVE):
                t0 = time.perf_counter()
                self.problem = build_problem(w)
                self.setup_times.append(time.perf_counter() - t0)
            self.attempt(w, reference, rng)


def end_to_end(w: Workload, reference: np.ndarray, seed: int, seconds: float) -> Result:
    loop = _Loop()
    loop.run(w, reference, np.random.default_rng(seed), seconds)
    metrics = {
        "solve_s": statistics.median(loop.times),
        "setup_s": statistics.median(loop.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": statistics.median_low(loop.iterations) if loop.iterations else 0,
    }
    notes = [f"{len(loop.times)} solves (s): " + " ".join(f"{t:.4f}" for t in loop.times),
             f"{len(loop.setup_times)} set-ups, median {metrics['setup_s']:.5f} s"] + loop.notes
    return Result(loop.failed == 0, len(loop.times), loop.failed, metrics, notes)


def _count_kind(counts, args, kwargs, fact):
    counts["factor." + fact.kind] += 1


def _count_columns(counts, args, kwargs, basis):
    counts["ortho.cols_in"] += np.shape(args[0])[1]  # the solver passes (n, k) blocks
    counts["ortho.cols_kept"] += np.shape(basis)[1]


def _record_coarse(counts, args, kwargs, piece):
    counts["coarse.deflated_dim"] = piece.deflated_dim


# (owner, attribute, span name, result hook).  Span names are the layer names.
_TRACED = [
    (mesh, "build_hierarchy", "mesh.build_hierarchy", None),
    (mesh, "build_decomposition", "mesh.build_decomposition", None),
    (fem, "assemble", "fem.assemble", None),
    (linalg, "factorize_shifted", "linalg.factorize_shifted", _count_kind),
    (getattr(linalg, "Factorization", None), "solve", "linalg.factor_solve", None),
    (linalg, "dense_generalized_eig", "linalg.dense_generalized_eig", None),
    (linalg, "b_orthonormalize", "linalg.b_orthonormalize", _count_columns),
    (schwarz, "prepare", "schwarz.prepare", None),
    (schwarz, "build_coarse_piece", "schwarz.build_coarse_piece", _record_coarse),
    (getattr(schwarz, "SchwarzPreconditioner", None), "apply", "schwarz.apply", None),
    (getattr(schwarz, "SchwarzPreconditioner", None), "apply_local", "schwarz.apply_local", None),
    (getattr(schwarz, "SchwarzPreconditioner", None), "apply_coarse", "schwarz.apply_coarse", None),
    (eigensolver, "solve", "eigensolver.solve", None),
    (eigensolver, "initialize", "eigensolver.initialize", None),
    (eigensolver, "correction_step", "eigensolver.correction_step", None),
    (eigensolver, "rayleigh_ritz", "eigensolver.rayleigh_ritz", None),
    (eigensolver, "stop_norm", "eigensolver.stop_norm", None),
]

# SolverReport.timings key -> span around the same call.
_TIMED_PHASES = {
    "initialize": "eigensolver.initialize",
    "coarse_setup": "schwarz.build_coarse_piece",
    "prepare": "schwarz.prepare",
    "correction": "eigensolver.correction_step",
    "rayleigh_ritz": "eigensolver.rayleigh_ritz",
    "stop_norm": "eigensolver.stop_norm",
}


def _check_phase_timings(spans: dict, timings) -> str:
    """The solver's own phase clocks enclose the spans around the same calls."""
    if not isinstance(timings, dict):
        return "SolverReport.timings unavailable, phase cross-check skipped"
    for key, name in _TIMED_PHASES.items():
        if key not in timings or name not in spans:
            continue
        reported, spanned = timings[key], spans[name]["total_s"]
        if not (spanned <= reported + 1e-6 and reported - spanned <= 0.05 * reported + 0.02):
            raise RuntimeError(
                f"span {name} ({spanned:.6f} s) disagrees with SolverReport.timings"
                f"[{key!r}] ({reported:.6f} s)"
            )
    return "phase spans agree with SolverReport.timings"


def operator_classes(problem) -> int:
    """Number of distinct (K_l, M_l) subdomain blocks, by hashing their entries."""
    _, pencil, decomp = problem
    K, M = pencil.stiffness.tocsr(), pencil.mass.tocsr()
    keys = set()
    for dofs in decomp.subdomains:
        kb = K[dofs][:, dofs].toarray()
        mb = M[dofs][:, dofs].toarray()
        keys.add(hashlib.blake2b(np.int64(kb.shape[0]).tobytes() + kb.tobytes() + mb.tobytes()).digest())
    return len(keys)


def eigsh_lowest(pencil, count: int, rng):
    """Lowest ``count`` eigenpairs by shift-invert Lanczos; shares no code with the solver."""
    values, vectors = spla.eigsh(
        pencil.stiffness, k=count, M=pencil.mass, sigma=0.0, which="LM",
        v0=rng.standard_normal(pencil.n),
    )
    order = np.argsort(values)
    return values[order], vectors[:, order]


def per_layer(w: Workload, reference: np.ndarray, seed: int, seconds: float) -> Result:
    rng = np.random.default_rng(seed)
    loop = _Loop()
    # Half the run untraced: the reference for bit-identity and for the overhead.
    loop.run(w, reference, rng, seconds / 2)

    tracer = Tracer()
    for owner, attr, name, hook in _TRACED:
        tracer.wrap(owner, attr, name, hook)
    try:
        problem = build_problem(w)
        t0 = time.perf_counter()
        try:
            report = _solve(w, problem)
        except Exception:  # a failed solve is counted, and the run goes on
            report = None
            loop.fail("traced solve raised:\n" + traceback.format_exc())
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    untraced = len(loop.times)
    notes = [f"{untraced} untraced solves, 1 traced"]
    notes += [f"not traced: {name}" for name in tracer.missing]

    spans = tracer.summary()
    if report is not None:
        problems = check_report(report, reference, problem[1], rng)
        if fingerprint(report) != loop.first:
            problems.append("traced solve did not reproduce the untraced values, "
                            "iterations and stop-norm trace bit for bit")
        if problems:
            loop.fail("; ".join(problems))
        notes.append(_check_phase_timings(spans, getattr(report, "timings", None)))

    t0 = time.perf_counter()
    try:
        eig_values, _ = eigsh_lowest(problem[1], w.last, rng)
        err = float(np.max(np.abs(eig_values[w.first - 1:] - reference)))
        if not err <= BOUND:
            loop.fail(f"eigsh baseline off the reference by {err:.3e}")
    except Exception:  # the baseline's failure is counted like a solve's
        loop.fail("eigsh baseline raised:\n" + traceback.format_exc())
    eigsh_s = time.perf_counter() - t0

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    c = tracer.counts
    cholesky_attempts = c["factor.spd-cholesky"] + c["factor.symmetric-indefinite"]
    classes = operator_classes(problem)
    subdomains = problem[2].n_subdomains
    metrics = {
        "mesh.build_hierarchy_s": total("mesh.build_hierarchy"),
        "mesh.build_decomposition_s": total("mesh.build_decomposition"),
        "mesh.subdomains": subdomains,
        "mesh.max_subdomain_dofs": max(len(d) for d in problem[2].subdomains),
        "fem.assemble_s": total("fem.assemble"),
        "fem.assemble.calls": calls("fem.assemble"),
        "linalg.factorize_shifted.calls": calls("linalg.factorize_shifted"),
        "linalg.factorize_shifted_s": total("linalg.factorize_shifted"),
        "linalg.factor.spd_cholesky": c["factor.spd-cholesky"],
        "linalg.factor.ldlt": c["factor.symmetric-indefinite"],
        "linalg.factor.sparse_lu": c["factor.sparse-lu"],
        # Every dense shifted factorization starts with a Cholesky attempt;
        # those that end as LDL^T wasted it.
        "linalg.ldlt_fallback_share": (
            c["factor.symmetric-indefinite"] / cholesky_attempts if cholesky_attempts else 0.0
        ),
        "linalg.factor_solve.calls": calls("linalg.factor_solve"),
        "linalg.factor_solve_s": total("linalg.factor_solve"),
        "schwarz.apply.calls": calls("schwarz.apply"),
        "schwarz.apply_s": total("schwarz.apply"),
        "schwarz.apply_local_s": total("schwarz.apply_local"),
        "schwarz.apply_coarse_s": total("schwarz.apply_coarse"),
        "schwarz.prepare.calls": calls("schwarz.prepare"),
        "schwarz.prepare_s": total("schwarz.prepare"),
        "schwarz.prepare_self_s": self_time("schwarz.prepare"),
        "schwarz.build_coarse_piece_s": total("schwarz.build_coarse_piece"),
        "schwarz.coarse_deflated_dim": c["coarse.deflated_dim"],
        "schwarz.local_operator_classes": classes,
        "schwarz.factorization_reuse_potential": 1.0 - classes / subdomains,
        "linalg.b_orthonormalize.calls": calls("linalg.b_orthonormalize"),
        "linalg.b_orthonormalize_s": total("linalg.b_orthonormalize"),
        "linalg.b_orthonormalize.cols_in": c["ortho.cols_in"],
        "linalg.b_orthonormalize.cols_kept": c["ortho.cols_kept"],
        "eigensolver.rayleigh_ritz_s": total("eigensolver.rayleigh_ritz"),
        "eigensolver.rayleigh_ritz_self_s": self_time("eigensolver.rayleigh_ritz"),
        "eigensolver.final_basis_dim": report.trace[-1].basis_dim if report is not None else 0,
        "eigensolver.initialize_s": total("eigensolver.initialize"),
        "linalg.dense_generalized_eig_s": total("linalg.dense_generalized_eig"),
        "eigensolver.correction_step_s": total("eigensolver.correction_step"),
        "eigensolver.stop_norm_s": total("eigensolver.stop_norm"),
        "eigensolver.solve_self_s": self_time("eigensolver.solve"),
        "trace.overhead_s": traced_s - statistics.median(loop.times),
        "ref.eigsh_s": eigsh_s,
    }
    # Attempts: the untraced solves, the traced solve and the eigsh baseline.
    return Result(loop.failed == 0, untraced + 2, loop.failed, metrics, notes + loop.notes)
