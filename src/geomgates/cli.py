"""Command-line front end.

Subcommands reproduce the shipped experiment presets (``fig1a``,
``fig1b``, ``fig2b``, ``fig2c``, ``sweep``), run the verification suite
(``verify``), or synthesize a single echoed gate from a JSON description
(``gate``).  Exit status: 0 on success, 1 when an asserted check fails,
2 on configuration errors, when the integrator does not converge and
when it runs out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, experiments
from .config import ConfigError, load_config
from .evolve import NonConvergenceError

_SUBCOMMANDS = (
    ("fig1a", "conditional phases vs operation time, static z field"),
    ("fig1b", "conditional phases vs operation time, resonance-locked z field"),
    ("fig2b", "effective-field trace over one charge-qubit drive period"),
    ("fig2c", "exact vs adiabatic charge-qubit phase, with crossover summary"),
    ("verify", "run every invariant check and write the report"),
    ("sweep", "two-qubit detuning sweep: control fidelity and phase errors"),
)


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PATH",
        help="INI parameter file (defaults to the packaged configuration)",
    )
    p.add_argument(
        "--out",
        type=Path,
        default=Path("out"),
        metavar="DIR",
        help="output directory (created if missing; default ./out)",
    )
    p.add_argument(
        "--steps",
        type=int,
        default=None,
        metavar="N",
        help="override integrator steps per drive period",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="X",
        help="override integrator refinement tolerance (also sets the "
        "dynamical-phase bound to 10*X rad)",
    )
    return p


def _table_options() -> argparse.ArgumentParser:
    """The table format option of the subcommands that write tables."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        dest="fmt",
        help="table output format (default csv)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geomgates", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common, table = _common_options(), _table_options()
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS:
        sub.add_parser(name, help=help_text, parents=[common, table])
    # the gate report is always JSON, so ``gate`` takes no --format
    gate = sub.add_parser(
        "gate",
        help="synthesize one echoed double-loop gate from a JSON file",
        parents=[common],
    )
    gate.add_argument(
        "spec", type=Path, help="JSON file naming the platform and drive parameters"
    )
    return parser


def _print_report(report) -> None:
    for c in report.checks:
        status = "INFO" if c.kind == "report" else ("PASS" if c.passed else "FAIL")
        line = f"{status} {c.name}: measured = {c.measured:.6g}"
        if c.kind in ("le", "window"):
            line += f" (bound {c.bound:.6g})"
        elif c.kind == "ge":
            line += f" (at least {c.bound:.6g})"
        if c.detail:
            line += f" [{c.detail}]"
        print(line)
    print("overall:", "PASS" if report.passed else "FAIL")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config).with_numerics(steps=args.steps, tol=args.tol)
        if args.command in ("fig1a", "fig1b"):
            path = experiments.run_fig1(cfg, args.command[-1], args.out, args.fmt)
            print("wrote", path)
        elif args.command == "fig2b":
            path = experiments.run_fig2b(cfg, args.out, args.fmt)
            print("wrote", path)
        elif args.command == "fig2c":
            paths, report = experiments.run_fig2c(cfg, args.out, args.fmt)
            for path in paths:
                print("wrote", path)
            _print_report(report)
            return 0 if report.passed else 1
        elif args.command == "sweep":
            path = experiments.run_sweep(cfg, args.out, args.fmt)
            print("wrote", path)
        elif args.command == "verify":
            path, report = experiments.run_verify(cfg, args.out, args.fmt)
            _print_report(report)
            print("wrote", path)
            return 0 if report.passed else 1
        elif args.command == "gate":
            path, report = experiments.run_gate(cfg, args.spec, args.out)
            print("wrote", path)
            for key, value in sorted(report.flags.items()):
                print(f"{key}: {value}")
            ok = report.flags["dynamical_cancelled"] and report.flags["cyclic"]
            return 0 if ok else 1
    except ConfigError as exc:
        print(f"geomgates: config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"geomgates: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"geomgates: out of memory{detail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
