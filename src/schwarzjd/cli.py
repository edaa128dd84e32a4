"""Experiment harness: configuration, single runs, and parameter sweeps.

A run writes three artifacts into the output directory:

  trace.csv    per-iteration cluster Ritz values, stop norm, value drift,
               basis dimension, clamped shifts, wall time
  final.csv    final eigenvalues with reference values where available
  summary.json effective configuration echo plus run statistics

``sweep`` repeats a run over a list of fine or coarse levels and aggregates
the reports the runs return side by side, one column per level, with
iteration count and final stop norm rows at the bottom.

The library checks its own arguments.  A run builds ``ClusterSpec``,
``SolverConfig``, ``DomainShape``, the mesh hierarchy and the decomposition,
in that order, and ``solve`` checks the restart dimension and the
initialization mesh; the first ``InvalidArgumentError`` is reported as a
configuration error (exit code 2).  Only the output format, which no
library object owns, is checked here.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fem, oracle
from .eigensolver import ClusterSpec, SolverConfig, SolverReport, solve
from .errors import InvalidArgumentError, SchwarzJDError
from .mesh import DomainShape, build_decomposition, build_hierarchy

__all__ = ["ExperimentConfig", "run", "sweep", "fit_gamma", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4


@dataclass
class ExperimentConfig:
    domain: str = "square"
    coarse: int = 3
    fine: int = 6
    overlap: float = 0.25
    m: int = 1
    M: int = 1
    tol: float = 1e-8
    max_iter: int = 200
    restart_dim: int | None = None
    shared_shift: bool = False
    output_dir: str = "."
    format: str = "csv"

    def settings(self) -> tuple[ClusterSpec, SolverConfig, DomainShape]:
        """The level-independent library objects; each one checks its own arguments.

        The output format is the one setting no library object owns, so it
        is checked here.
        """
        cluster = ClusterSpec(self.m, self.M)
        solver_config = SolverConfig(
            tol=self.tol,
            max_iter=self.max_iter,
            restart_dim=self.restart_dim,
            shared_shift=self.shared_shift,
        )
        shape = DomainShape(self.domain)
        if self.format not in ("csv", "json"):
            raise InvalidArgumentError(f"format must be 'csv' or 'json', got {self.format!r}")
        return cluster, solver_config, shape


def fit_gamma(trace, discrete_values, first: int, last: int) -> float | None:
    """Geometric-mean reduction factor of the total cluster eigenvalue error.

    Ratios are taken between consecutive total errors from the second
    iteration on, skipping iterations whose error has decayed into roundoff
    (below 1e-10 of the summed reference values), where ratios are noise.
    """
    lam_h = np.asarray(discrete_values)[first - 1 : last]
    errors = [float(np.sum(rec.values - lam_h)) for rec in trace]
    floor = 1e-10 * float(np.sum(np.abs(lam_h)))
    ratios = []
    for k in range(2, len(errors)):
        if errors[k - 1] > floor and errors[k] > 0.0:
            ratios.append(errors[k] / errors[k - 1])
    if not ratios:
        return None
    return float(math.exp(np.mean(np.log(ratios))))


def _reference_values(config: ExperimentConfig, pencil, count: int):
    """(analytic, discrete) reference spectra where feasible, else None."""
    analytic = None
    if config.domain == "square":
        analytic = oracle.exact_square_eigenvalues(count).values
    discrete = None
    if pencil.n <= oracle.DENSE_DOF_LIMIT:
        discrete = oracle.dense_discrete_spectrum(pencil, count).values
    return analytic, discrete


def _trace_rows(report: SolverReport):
    head = ["k"] + [f"lambda_{i}" for i in range(report.cluster.first, report.cluster.last + 1)]
    head += ["stop_norm", "value_drift", "basis_dim", "clamped_shifts", "wall_ms"]
    rows = []
    for rec in report.trace:
        row = [str(rec.iteration)]
        row += [f"{v:.9f}" for v in rec.values]
        row += [f"{rec.stop_norm:.6e}", f"{rec.value_drift:.6e}", str(rec.basis_dim),
                str(rec.clamped_shifts), f"{rec.wall_ms:.3f}"]
        rows.append(row)
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
    return _run(config, config.settings())[0]


def _run(config: ExperimentConfig, settings) -> tuple[int, SolverReport]:
    """``run`` from prebuilt ``config.settings()``; also returns the report."""
    cluster, solver_config, shape = settings
    hier = build_hierarchy(shape, config.coarse, config.fine)
    decomp = build_decomposition(hier, config.overlap)
    pencil = fem.assemble(hier.fine)
    report = solve(hier, pencil, decomp, cluster, solver_config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    analytic, discrete = _reference_values(config, pencil, config.M)
    reference = analytic if analytic is not None else discrete
    gamma = None
    if discrete is not None:
        gamma = fit_gamma(report.trace, discrete, config.m, config.M)

    head, rows = _trace_rows(report)
    _write_table(out / "trace", head, rows, config.format)
    head, rows = _final_rows(report, reference)
    _write_table(out / "final", head, rows, config.format)

    summary = {
        "config": dataclasses.asdict(config),
        "dof_count": pencil.n,
        "subdomain_count": report.subdomain_count,
        "iterations": report.iterations,
        "converged": report.converged,
        "stagnated": report.stagnated,
        "final_stop_norm": report.stop_norm,
        "gamma": gamma,
        "basis_dims": [rec.basis_dim for rec in report.trace],
        "timings_s": {k: round(v, 6) for k, v in report.timings.items()},
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

    print(
        f"{config.domain} coarse={config.coarse} fine={config.fine} "
        f"cluster=({config.m},{config.M}): "
        f"{'converged' if report.converged else 'NOT converged'} "
        f"after {report.iterations} iterations, stop norm {report.stop_norm:.4e}"
    )
    return (EXIT_OK if report.converged else EXIT_NOT_CONVERGED), report


def sweep(config: ExperimentConfig, vary_fine=None, vary_coarse=None) -> int:
    """Run one solve per varied level and aggregate the final columns side by side.

    A setting every column shares (cluster, solver, domain, format) rejects
    the whole sweep; a level the library rejects becomes that column's error.
    """
    if bool(vary_fine) == bool(vary_coarse):
        raise InvalidArgumentError("exactly one non-empty list of fine or coarse levels is required")
    param = "fine" if vary_fine else "coarse"
    values = list(vary_fine or vary_coarse)
    settings = config.settings()

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    columns = {}
    all_ok = True
    for v in values:
        label = f"{param}={v}"
        sub = dataclasses.replace(config, **{param: v, "output_dir": str(out / label)})
        try:
            code, report = _run(sub, settings)
            columns[label] = {
                "lambdas": [row[1] for row in _final_rows(report, None)[1]],
                "it": str(report.iterations),
                "stop": f"{report.stop_norm:.6e}",
            }
            all_ok = all_ok and code == EXIT_OK
        except SchwarzJDError as exc:
            print(f"{label}: error: {exc}", file=sys.stderr)
            columns[label] = {"lambdas": None, "it": "error", "stop": str(exc)}
            all_ok = False

    labels = list(columns)
    head = ["index"] + labels
    rows = []
    for offset, i in enumerate(range(config.m, config.M + 1)):
        row = [f"lambda_{i}"]
        for label in labels:
            lams = columns[label]["lambdas"]
            row.append(lams[offset] if lams else "")
        rows.append(row)
    rows.append(["it."] + [columns[label]["it"] for label in labels])
    rows.append(["stop."] + [columns[label]["stop"] for label in labels])
    _write_table(out / "sweep", head, rows, config.format)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--domain", choices=["square", "lshape"])
    p.add_argument("--coarse", type=int, help="coarse mesh refinement level")
    p.add_argument("--fine", type=int, help="fine mesh refinement level")
    p.add_argument("--overlap", type=float, help="overlap width relative to subdomain size")
    p.add_argument("--m", type=int, help="first targeted eigenvalue index (1-based)")
    p.add_argument("--M", type=int, help="last targeted eigenvalue index (1-based)")
    p.add_argument("--tol", type=float, help="stopping tolerance on the residual stop norm")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--restart-dim", type=int, dest="restart_dim")
    p.add_argument("--shared-shift", action="store_const", const=True, dest="shared_shift",
                   help="use the single shift of the first cluster index for all corrections")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--log-level", dest="log_level", default="warning",
                   choices=["debug", "info", "warning", "error"],
                   help="threshold of the log messages printed to stderr (default: warning)")


# JSON value types accepted for each annotated ExperimentConfig type name.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
               "None": (type(None),)}


def _check_file_value(field: dataclasses.Field, value) -> None:
    """Reject a config file value whose JSON type does not fit ``field``'s annotation."""
    allowed = tuple(t for name in field.type.split(" | ") for t in _JSON_TYPES[name])
    # A JSON boolean is a Python int, but no number field takes one.
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise InvalidArgumentError(
            f"config file value {field.name!r} must be {field.type}, got {value!r}"
        )


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(file_values) - set(fields)
        if unknown:
            raise InvalidArgumentError(f"unknown config file keys: {sorted(unknown)}")
        for name, value in file_values.items():
            _check_file_value(fields[name], value)
        merged.update(file_values)
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
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
    sweep_p.add_argument("--vary-fine", type=int, nargs="+", dest="vary_fine")
    sweep_p.add_argument("--vary-coarse", type=int, nargs="+", dest="vary_coarse")

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


if __name__ == "__main__":
    sys.exit(main())
