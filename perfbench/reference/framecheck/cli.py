"""Command line entry point.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 the config could not be read, parsed or validated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import ParseError, ValidationError, parse_config
from .groups import CATALOG_SUMMARY
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
        if not args.tol > 0:
            print("error: --tol must be positive", file=sys.stderr)
            return 2
        cfg = replace(cfg, tol=args.tol)
    report = run_suite(cfg)
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.buffer.flush()
    return 0 if report.passed else 1


_FAMILY_BLURBS = (
    ("linear_constant", "q = kappa0 @ g with a constant tensor kappa0"),
    ("linear_temperature", "q = p(theta) * kappa0 @ g, p polynomial"),
    ("nonlinear_isotropic", "q = (a + b*|g|^2) * g"),
    ("nonlinear_anisotropic", "q = (a_tensor + c * outer(g, g)) @ g"),
)


def _cmd_catalog() -> int:
    width = max(len(name) for name, _ in CATALOG_SUMMARY)
    print("symmetry groups:")
    for name, description in CATALOG_SUMMARY:
        print(f"  {name:<{width}}  {description}")
    print()
    print("model families:")
    fam_width = max(len(name) for name, _ in _FAMILY_BLURBS)
    for name, blurb in _FAMILY_BLURBS:
        print(f"  {name:<{fam_width}}  {blurb}")
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


if __name__ == "__main__":
    sys.exit(main())
