"""Command line entry point.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 the config could not be read, parsed or validated, or the report could
not be written.
"""

from __future__ import annotations

if __name__ == "__main__":
    # python -m framecheck.cli: hand over to the launcher before this file
    # imports numpy; it imports this module afresh as framecheck.cli
    from framecheck.__main__ import launch

    launch()

import argparse
import gc
import os
import sys
from dataclasses import replace
from typing import NoReturn

import numpy as np

from .config import ModelSpec, ParseError, SuiteConfig, ValidationError, parse_config
from .groups import CATALOG_SUMMARY
from .models import MODEL_FAMILIES
from .report import emit_report, run_suite


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError from its writes; one to stdout, the --help
    of a closed pipe, must reach entry(), which reports it."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framecheck",
        description="numerical invariance checks for heat conduction laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the check suite described by a config file")
    run.add_argument("config", help="path to an INI config file")
    run.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="report format (machine = stable JSON)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    sub.add_parser("catalog", help="list the built-in symmetry groups")
    sub.add_parser(
        "demo",
        help="contrast an anisotropic and an isotropic conductor under the checks",
    )
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(data)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # command line beats config; CheckConfig validates, and its messages
    # begin with the field's name, the flag's
    flags = {"seed": args.seed, "tol": args.tol}
    try:
        run = replace(cfg.run, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        print(f"error: --{exc}", file=sys.stderr)
        return 2
    report = run_suite(replace(cfg, run=run))
    sys.stdout.buffer.write(emit_report(report, args.format))
    return 0 if report.passed else 1


def _cmd_catalog() -> int:
    width = max(len(name) for name, _ in CATALOG_SUMMARY)
    print("symmetry groups:")
    for name, description in CATALOG_SUMMARY:
        print(f"  {name:<{width}}  {description}")
    print()
    print("model families:")
    fam_width = max(len(name) for name in MODEL_FAMILIES)
    for name, cls in MODEL_FAMILIES.items():
        print(f"  {name:<{fam_width}}  {cls.law}")
    return 0


def _cmd_demo() -> int:
    """Run frame indifference and isotropy on two conductors side by side.

    Both pass frame indifference; only the spherical one passes isotropy.
    Observer indifference constrains how the law transforms, not how the
    material responds to direction, so the two properties come apart."""
    checks = ("frame_indifference", "isotropy")
    cases = (
        ("anisotropic, kappa = diag(1, 2, 3)", (1.0, 2.0, 3.0)),
        ("isotropic,   kappa = 2.5 * identity", (2.5, 2.5, 2.5)),
    )
    outcomes = []
    for label, diagonal in cases:
        model = ModelSpec("linear_constant", kappa0=tuple(np.diag(diagonal).flat))
        report = run_suite(SuiteConfig(model, checks=checks))
        print(label)
        for name, result in report.records:
            outcomes.append(result.passed)
            print(
                f"  {name.replace('_', ' ') + ':':<20}{'PASS' if result.passed else 'FAIL'}"
                f"   (max residual {result.max_residual:.3g})"
            )
        print()
    print("both conductors are frame indifferent; only the spherical one is")
    print("isotropic. observer independence of the law does not constrain the")
    print("material's directional response.")
    return 0 if outcomes == [True, False, True, True] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "catalog":
        return _cmd_catalog()
    return _cmd_demo()


def entry(argv=None) -> NoReturn:
    """The process entry that every launcher (``python -m framecheck``, the
    ``framecheck`` console script and ``python -m framecheck.cli``) reaches
    through :func:`framecheck.__main__.launch`.

    Runs :func:`main`, then freezes the heap and exits.  Interpreter
    shutdown runs full garbage collections over every object left tracked,
    though nothing they could free is of use once the report is written;
    frozen objects are skipped.  The exit is still a normal one, so atexit
    handlers run.  ``main`` itself freezes nothing, so in-process callers
    keep a collectable heap."""
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits after --help or a usage error; its output is
            # flushed here too, so a closed pipe is reported as on any path
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader went away; point stdout at devnull so that the flush
        # at shutdown does not raise again (the idiom of the signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        code = 2
    gc.freeze()
    sys.exit(code)

