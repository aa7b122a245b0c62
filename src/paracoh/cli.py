"""Command-line entry point.

Exit codes: 0 success; 2 invariant-suite failure; 3 obstruction detected
(not in kernel / not closed); 4 convergence failure; 1 configuration,
schema, gate, or usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import default_config, load_config, override
from .errors import (
    AssumptionGateError,
    ConfigError,
    NoConvergence,
    NotClosed,
    NotInKernel,
    ParacohError,
    SchemaError,
    SpectralGapError,
    TailNotConverged,
    ThetaNotVanishing,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_OBSTRUCTION = 3
EXIT_NO_CONVERGENCE = 4


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for invariant failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="report output directory")
    common.add_argument("--k-per-axis", type=int, dest="k_per_axis")
    common.add_argument("--t", help="comma-separated Sobolev orders, e.g. '1,2'")
    parser = _Parser(prog="paracoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, text in (
            ("verify-invariants", "run the invariant suites"),
            ("solve-top", "top-degree coboundary solves per component"),
            ("solve-form", "lower-degree primitive solves per component"),
            ("sweep-bounds", "bound sweeps and fitted exponents"),
            ("gen", "write random inputs for later solves"),
        )
    }
    p["solve-top"].add_argument("--input", action="append", help="tensor JSON per component")
    p["solve-form"].add_argument("--degree", type=int, required=True)
    p["solve-form"].add_argument("--input", action="append", help="form JSON per component")
    p["gen"].add_argument("--kind", choices=("tensor", "form"), default="tensor")
    p["gen"].add_argument("--degree", type=int, help="form degree (gen --kind form)")
    return parser


def _load_cfg(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config else default_config()
    t_list = None
    if args.t:
        try:
            t_list = tuple(float(x) for x in args.t.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --t value {args.t!r}: {exc}") from exc
    return override(
        cfg,
        seed=args.seed,
        k_per_axis=args.k_per_axis,
        t_list=t_list,
        out_dir=args.out,
    )


def _emit(report: experiments.Report, out_dir) -> None:
    paths = experiments.write_report(report, out_dir)
    for rows in report.tables.values():
        for row in rows:
            if row.get("pass") is False:
                print(f"FAIL {row['param']}: value={row['value']}", file=sys.stderr)
    status = "ok" if report.passed else "FAILED"
    print(f"{report.command}: {status}; report at {paths[0]}")
    for key, val in report.metadata.items():
        print(f"  {key}: {val}")


def _input_paths(paths):
    """The --input paths, each opened once here so that a missing or
    unreadable file fails before any work; each solve task reads its own."""
    if not paths:
        return None
    for path in paths:
        try:
            with open(path, "rb"):
                pass
        except OSError as exc:
            raise SchemaError(f"cannot read {path}: {exc}") from exc
    return paths


# command -> (run(cfg, args) giving its Report, exit code of a failing report)
REPORT_COMMANDS = {
    "verify-invariants": (lambda cfg, a: experiments.cmd_verify_invariants(cfg), EXIT_INVARIANT),
    "solve-top": (lambda cfg, a: experiments.cmd_solve_top(cfg, _input_paths(a.input)),
                  EXIT_NO_CONVERGENCE),
    "solve-form": (lambda cfg, a: experiments.cmd_solve_form(cfg, a.degree, _input_paths(a.input)),
                   EXIT_NO_CONVERGENCE),
    "sweep-bounds": (lambda cfg, a: experiments.cmd_sweep_bounds(cfg), EXIT_INVARIANT),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors, --help
        return int(exc.code or 0)
    try:
        cfg = _load_cfg(args)
        out_dir = experiments.check_out_dir(cfg.out_dir or "paracoh-out")
        if args.command == "gen":
            for path in experiments.cmd_gen(cfg, args.kind, args.degree, out_dir):
                print(path)
            return EXIT_OK
        run, fail_code = REPORT_COMMANDS[args.command]
        report = run(cfg, args)
        _emit(report, out_dir)
        return EXIT_OK if report.passed else fail_code
    except (NotInKernel, NotClosed) as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (NoConvergence, ThetaNotVanishing, TailNotConverged) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ConfigError, SchemaError, AssumptionGateError, SpectralGapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParacohError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
