#!/usr/bin/env python
"""Sweep anisotropy strength and watch which checks notice.

For kappa(eps) = 1 + eps * diag(0, 1, 2) the frame indifference residual
stays at rounding level for every eps, while the isotropy residual is 2 eps
all the way down: it is decided on the cubic rotations, which conjugate
exactly, so no rounding noise hides it.  Observer
indifference is a property of how the law transforms; isotropy is a property
of the material.  One varies here, the other does not.
"""

import argparse
import os

# one OpenBLAS thread unless the user set a count, as the framecheck launcher
# pins it: numpy's import would start one per further core, which spins and
# never gets work from these 3x3 products
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from framecheck import (  # noqa: E402
    CheckConfig,
    LinearConstant,
    catalog_lookup,
    check_frame_indifference,
    check_isotropy,
    random_observers,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--observers", type=int, default=25)
    args = ap.parse_args()

    cfg = CheckConfig(seed=args.seed)
    observers = random_observers(args.observers, args.seed)
    trivial = catalog_lookup("trivial")

    print(f"{'eps':>10}   {'frame indifference':>18}   {'isotropy':>12}")
    fi_residuals = []
    for eps in [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0]:
        model = LinearConstant(np.eye(3) + eps * np.diag([0.0, 1.0, 2.0]))
        fi = check_frame_indifference(model, trivial, observers, cfg)
        iso = check_isotropy(model, cfg)
        fi_residuals.append(fi.max_residual)
        print(f"{eps:>10.1e}   {fi.max_residual:>18.3e}   {iso.max_residual:>12.3e}")

    print()
    worst = max(fi_residuals)
    print(f"largest frame indifference residual across the sweep: {worst:.3e}")
    print("the isotropy column scales with eps; the frame column does not.")
    return 0 if worst < 1e-10 else 1


if __name__ == "__main__":
    raise SystemExit(main())
