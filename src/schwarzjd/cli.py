"""Experiment harness: configuration, single runs, and parameter sweeps.

A run writes three artifacts into the output directory:

  trace.csv    one column per ``TraceRecord`` field: k, cluster Ritz values
               lambda_m..lambda_M, stop norm (blank where not solved for),
               its lower and upper bounds, value drift, basis dimension,
               clamped shifts, LDL^T fallbacks, wall time
  final.csv    final eigenvalues with reference values where available
  summary.json effective configuration echo plus run statistics (with
               ``deflated_dim``, 0 and warned about when the preconditioner
               was one-level), set-up and solve phase timings, and the
               process's own peak RSS when the solve returned (in a sweep,
               the maximum over the runs so far)

``sweep`` repeats a run over a list of fine or coarse levels and aggregates
the reports the runs return side by side, one column per level, with
iteration count and final stop norm rows at the bottom.  Each column is
checked, solved and written as a run of its own, its output directory
included.

Each ``ExperimentConfig`` field is a flag of both commands, with the help
text its metadata holds.  The library checks its own arguments.  A run
builds ``ClusterSpec``, ``SolverConfig``, ``DomainShape``, the mesh
hierarchy and the decomposition, in that order, and ``solve`` checks the
restart dimension and the initialization mesh; the first
``InvalidArgumentError`` is reported as a configuration error (exit code
2).  A config-file value meets these checks as a flag value does: a flag's
text is read as an integer or a number where it reads as one and is
otherwise passed on as text, so that argparse rejects no value.  Only the
output format and the output directory's type and kind, which no library
object owns, are checked here, before any solve; an ``OSError`` while
writing the outputs is a configuration error too, except in a sweep, where
it is the error of the column that was writing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
import time
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import fem, linalg, oracle
from .eigensolver import ClusterSpec, SolverConfig, SolverReport, TraceRecord, solve
from .errors import InvalidArgumentError, SchwarzJDError
from .mesh import DomainShape, build_decomposition, build_hierarchy

__all__ = ["ExperimentConfig", "run", "sweep", "fit_gamma", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4


def _setting(default, text: str):
    """A field of ``ExperimentConfig`` whose flag's help is ``text``."""
    return field(default=default, metadata={"help": text})


@dataclass
class ExperimentConfig:
    domain: str = _setting("square", "square or lshape")
    coarse: int = _setting(3, "coarse mesh refinement level")
    fine: int = _setting(6, "fine mesh refinement level")
    overlap: float = _setting(0.25, "overlap width relative to subdomain size")
    m: int = _setting(1, "first targeted eigenvalue index (1-based)")
    M: int = _setting(1, "last targeted eigenvalue index (1-based)")
    tol: float = _setting(SolverConfig.tol, "stopping tolerance on the residual stop norm")
    max_iter: int = _setting(SolverConfig.max_iter, "largest number of outer iterations")
    restart_dim: int | None = _setting(SolverConfig.restart_dim, "restart past this basis size")
    output_dir: str = _setting(".", "directory the tables and summary are written to")
    format: str = _setting("csv", "output table format: csv or json")

    def settings(self) -> tuple[ClusterSpec, SolverConfig, DomainShape]:
        """The level-independent library objects; each one checks its own arguments.

        The output format and directory are the settings no library object
        owns, so they are checked here.
        """
        cluster = ClusterSpec(self.m, self.M)
        solver_config = SolverConfig(**{f.name: getattr(self, f.name)
                                        for f in dataclasses.fields(SolverConfig)})
        shape = DomainShape(self.domain)
        if self.format not in ("csv", "json"):
            raise InvalidArgumentError(f"format must be 'csv' or 'json', got {self.format!r}")
        out = self.output_dir
        if not isinstance(out, str) or "\0" in out:
            raise InvalidArgumentError(f"output directory must be a path string, got {out!r}")
        nearest = next(path for path in (Path(out), *Path(out).parents) if path.exists())
        if not nearest.is_dir():  # the directory itself, or one it would be made in
            raise InvalidArgumentError(f"output directory {out!r} is not a directory")
        return cluster, solver_config, shape


def fit_gamma(trace, reference) -> float | None:
    """Geometric-mean reduction factor of the total cluster eigenvalue error.

    The error of a trace row is the sum of its values less ``reference``,
    the cluster's reference values m..M.  Ratios are taken between
    consecutive total errors from the second iteration on, skipping
    iterations whose error has decayed into roundoff (below 1e-10 of the
    summed reference values), where ratios are noise.
    """
    lam_h = np.asarray(reference)
    errors = [float(np.sum(rec.values - lam_h)) for rec in trace]
    floor = 1e-10 * float(np.sum(np.abs(lam_h)))
    ratios = []
    for k in range(2, len(errors)):
        if errors[k - 1] > floor and errors[k] > 0.0:
            ratios.append(errors[k] / errors[k - 1])
    if not ratios:
        return None
    return float(math.exp(np.mean(np.log(ratios))))


# Largest fine pencil for which a run computes the discrete reference
# spectrum (for gamma and the L-shape's oracle_lambda column).
REFERENCE_DOF_LIMIT = 5000


def _reference_values(shape: DomainShape, pencil, count: int):
    """(analytic, discrete) reference spectra where feasible, else None.

    The discrete values come from ``linalg.lowest_eigenpairs`` on the fine
    pencil, a route the Jacobi-Davidson solver never takes there.
    """
    analytic = None
    if shape is DomainShape.SQUARE:
        analytic = oracle.exact_square_eigenvalues(count)
    discrete = None
    if pencil.n <= REFERENCE_DOF_LIMIT:
        discrete = linalg.lowest_eigenpairs(pencil.stiffness, pencil.mass, count).values
    return analytic, discrete


def _trace_rows(report: SolverReport):
    """A column per ``TraceRecord`` field, ``k`` and lambda_m..lambda_M for its first two;
    ints as written, floats ``.6e`` (values ``.9f``, ``wall_ms`` ``.3f``), NaN blank."""
    kinds = typing.get_type_hints(TraceRecord)
    spec = {name: {int: "", float: ".6e"}.get(kind, ".9f") for name, kind in kinds.items()}
    spec["wall_ms"] = ".3f"
    lambdas = [f"lambda_{i}" for i in range(report.cluster.first, report.cluster.last + 1)]
    head = [h for name in kinds for h in {"iteration": ["k"], "values": lambdas}.get(name, [name])]
    rows = [["" if np.isnan(v) else format(v, spec[name])
             for name in kinds for v in np.atleast_1d(getattr(rec, name))] for rec in report.trace]
    return head, rows


def _final_rows(report: SolverReport, reference):
    head = ["i", "lambda", "oracle_lambda", "abs_err"]
    rows = []
    for idx, i in enumerate(range(report.cluster.first, report.cluster.last + 1)):
        lam = report.values[idx]
        if reference is not None:
            ref = reference[i - 1]
            rows.append([str(i), f"{lam:.9f}", f"{ref:.9f}", f"{abs(lam - ref):.6e}"])
        else:
            rows.append([str(i), f"{lam:.9f}", "", ""])
    return head, rows


def _write_table(path: Path, head, rows, fmt: str) -> None:
    if fmt == "csv":
        with open(path.with_suffix(".csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(head)
            writer.writerows(rows)
    else:
        payload = [dict(zip(head, row)) for row in rows]
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status.

    Raises the InvalidArgumentError of the first library object that rejects
    the configuration; nothing is written then.
    """
    return _run(config)[0]


def _run(config: ExperimentConfig) -> tuple[int, SolverReport]:
    """``run``, also returning the report."""
    cluster, solver_config, shape = config.settings()
    start = time.perf_counter()
    hier = build_hierarchy(shape, config.coarse, config.fine)
    built = time.perf_counter()
    decomp = build_decomposition(hier, config.overlap)
    split = time.perf_counter()
    pencil = fem.assemble(hier.fine)
    setup_s = {"build_hierarchy": built - start, "build_decomposition": split - built,
               "assemble": time.perf_counter() - split}
    report = solve(hier, pencil, decomp, cluster, solver_config)
    peak_rss_mib = linalg.high_water_mark() / 2**20  # before the reference values, not the solver's
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    analytic, discrete = _reference_values(shape, pencil, config.M)
    reference = analytic if analytic is not None else discrete
    gamma = None if discrete is None else fit_gamma(report.trace, discrete[config.m - 1:])

    head, rows = _trace_rows(report)
    _write_table(out / "trace", head, rows, config.format)
    head, rows = _final_rows(report, reference)
    _write_table(out / "final", head, rows, config.format)

    summary = {
        "config": dataclasses.asdict(config),
        "dof_count": pencil.n,
        "subdomain_count": decomp.n_subdomains,
        "overlap_layers": decomp.overlap_layers,
        "iterations": report.iterations,
        "converged": report.converged,
        "stagnated": report.stagnated,
        "final_stop_norm": report.stop_norm,
        "exact_stop_solves": sum(not math.isnan(rec.stop_norm) for rec in report.trace),
        "gamma": gamma,
        "gamma_final": fit_gamma(report.trace, report.values),
        "coarse_dofs": hier.coarse.n_dofs,
        "deflated_dim": report.deflated_dim,
        "basis_dims": [rec.basis_dim for rec in report.trace],
        "clamped_shifts_total": sum(rec.clamped_shifts for rec in report.trace),
        "ldlt_fallbacks_total": sum(rec.ldlt_fallbacks for rec in report.trace),
        "setup_s": {k: round(v, 6) for k, v in setup_s.items()},
        "timings_s": {k: round(v, 6) for k, v in report.timings.items()},
        "peak_rss_mib": round(peak_rss_mib, 1),
    }
    text = json.dumps(summary, indent=1, default=_plain)  # whole, before the file opens
    (out / "summary.json").write_text(text + "\n")
    if report.deflated_dim == 0:
        print(f"warning: none of the {hier.coarse.n_dofs} coarse eigenvectors lies above the "
              f"cluster end {config.M}, so the preconditioner was one-level", file=sys.stderr)

    print(
        f"{shape.value} coarse={config.coarse} fine={config.fine} "
        f"cluster=({config.m},{config.M}): "
        f"{'converged' if report.converged else 'NOT converged'} "
        f"after {report.iterations} iterations, stop norm {report.stop_norm:.4e}"
    )
    return (EXIT_OK if report.converged else EXIT_NOT_CONVERGED), report


def _plain(value):
    """The JSON value of an enum or a NumPy scalar, the configuration echo's only
    values that JSON lacks (the library rejects any other type)."""
    return value.value if isinstance(value, Enum) else value.item()


def sweep(config: ExperimentConfig, vary_fine=None, vary_coarse=None) -> int:
    """Run one solve per varied level and aggregate the final columns side by side.

    A setting every column shares (cluster, solver, domain, format, the sweep's
    output directory) rejects the whole sweep, as do two levels of one label.
    Each column is then checked like a ``run``, its own directory included, and
    the first check it fails becomes that column's error, unsolved; so does an
    ``OSError`` while the column writes its outputs, after its solve.
    """
    if bool(vary_fine) == bool(vary_coarse):
        raise InvalidArgumentError("exactly one non-empty list of fine or coarse levels is required")
    param = "fine" if vary_fine else "coarse"
    values = list(vary_fine or vary_coarse)
    labels = [f"{param}={v}" for v in values]  # also the column directories
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError(f"swept {param} levels must be distinct, got {values}")
    config.settings()

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = [f"lambda_{i}" for i in range(config.m, config.M + 1)]
    columns, all_ok = [], True
    for v, label in zip(values, labels):
        sub = dataclasses.replace(config, **{param: v, "output_dir": str(out / label)})
        try:
            code, report = _run(sub)
            cells = [f"{lam:.9f}" for lam in report.values]
            columns.append([*cells, str(report.iterations), f"{report.stop_norm:.6e}"])
            all_ok = all_ok and code == EXIT_OK
        except (SchwarzJDError, OSError) as exc:
            error = f"cannot write the outputs: {exc}" if isinstance(exc, OSError) else str(exc)
            print(f"{label}: error: {error}", file=sys.stderr)
            columns.append([""] * len(index) + ["error", error])
            all_ok = False

    rows = zip(index + ["it.", "stop."], *columns)
    _write_table(out / "sweep", ["index"] + labels, rows, config.format)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def _reader(kind):
    """The argparse ``type`` of a setting of type ``kind``, which rejects nothing: an int
    (for an int setting) or a float where the text reads as one, otherwise the text."""
    kinds = {int: (int, float), float: (float,)}.get(next(iter(typing.get_args(kind)), kind), ())

    def read(text: str):
        for number in kinds:
            try:
                return number(text)
            except ValueError:
                pass
        return text
    return read


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    kinds = typing.get_type_hints(ExperimentConfig)
    for f in dataclasses.fields(ExperimentConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=_reader(kinds[f.name]),
                       help=f.metadata.get("help"))
    p.add_argument("--log-level", dest="log_level", default="warning",
                   choices=["debug", "info", "warning", "error"],
                   help="threshold of the log messages printed to stderr (default: warning)")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidArgumentError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InvalidArgumentError(
                f"config file must hold a JSON object, got {type(file_values).__name__}"
            )
        unknown = set(file_values) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise InvalidArgumentError(f"unknown config file keys: {sorted(unknown)}")
        merged.update(file_values)
    merged.update((f.name, getattr(args, f.name)) for f in dataclasses.fields(ExperimentConfig)
                  if getattr(args, f.name) is not None)
    return ExperimentConfig(**merged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schwarzjd",
        description="Interior clustered Laplacian eigenvalues by a two-level "
        "additive Schwarz preconditioned block Jacobi-Davidson iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="single experiment")
    _add_common_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="one run per varied mesh level")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--vary-fine", type=_reader(int), nargs="+", dest="vary_fine",
                         help="fine levels to sweep, one run each")
    sweep_p.add_argument("--vary-coarse", type=_reader(int), nargs="+", dest="vary_coarse",
                         help="coarse levels to sweep, one run each")

    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(), stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s", force=True)
    try:
        config = _build_config(args)
        if args.command == "run":
            return run(config)
        return sweep(config, vary_fine=args.vary_fine, vary_coarse=args.vary_coarse)
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchwarzJDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: cannot write the outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
