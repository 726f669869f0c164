"""Command line entry point.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 the config could not be read, parsed or validated, or the report could
not be written.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from typing import NoReturn

import numpy as np

from .config import ParseError, ValidationError, parse_config
from .groups import CATALOG_SUMMARY
from .models import MODEL_FAMILIES
from .report import emit_report, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    run.add_argument(
        "--tol", type=float, default=None, help="override the config base tolerance"
    )
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
    # command line beats config; per-check overrides still beat both
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            print("error: --seed must be in [0, 2**64)", file=sys.stderr)
            return 2
        cfg = replace(cfg, seed=args.seed)
    if args.tol is not None:
        if not (np.isfinite(args.tol) and args.tol > 0):
            print("error: --tol must be positive and finite", file=sys.stderr)
            return 2
        cfg = replace(cfg, tol=args.tol)
    report = run_suite(cfg)
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
    from .checks import CheckConfig, check_frame_indifference, check_isotropy
    from .groups import catalog_lookup
    from .models import LinearConstant
    from .tensors import random_observers

    cfg = CheckConfig()
    observers = random_observers(100, cfg.seed)
    trivial = catalog_lookup("trivial")
    cases = (
        ("anisotropic, kappa = diag(1, 2, 3)", np.diag([1.0, 2.0, 3.0])),
        ("isotropic,   kappa = 2.5 * identity", 2.5 * np.eye(3)),
    )
    outcomes = []
    for label, kappa in cases:
        model = LinearConstant(kappa)
        fi = check_frame_indifference(model, trivial, observers, cfg)
        iso = check_isotropy(model, cfg, sample_count=64)
        outcomes.extend([fi.passed, iso.passed])
        print(label)
        print(
            f"  frame indifference: {'PASS' if fi.passed else 'FAIL'}"
            f"   (max residual {fi.max_residual:.3g})"
        )
        print(
            f"  isotropy:           {'PASS' if iso.passed else 'FAIL'}"
            f"   (max residual {iso.max_residual:.3g})"
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
    """The process entry of every launcher: ``python -m framecheck``, the
    ``framecheck`` console script and ``python -m framecheck.cli``.

    Runs :func:`main`, then freezes the heap and exits.  Interpreter
    shutdown runs full garbage collections over every object the numpy and
    framecheck imports left tracked, though nothing they could free is of
    use once the report is written; frozen objects are skipped.  The exit
    is still a normal one, so atexit handlers run.  ``main`` itself
    freezes nothing, so in-process callers keep a collectable heap."""
    try:
        code = main(argv)
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


if __name__ == "__main__":
    entry()
