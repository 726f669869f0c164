#!/usr/bin/env python
"""Classify randomly oriented conductivities and reduce the spherical ones
to their scalar.

Draws symmetric tensors with known spectra in random orientations, labels
each with classify_linear_symmetry, and verifies that every label is the
spectrum's class and that schur_reduce recovers exactly the spherical ones,
with the right scalar.  Both read one isotropy test, on the 24 cubic
rotations, so they can disagree only through a bug.
"""

import argparse
import os
from collections import Counter

# one OpenBLAS thread unless the user set a count, as the framecheck launcher
# pins it: numpy's import would start one per further core, which spins and
# never gets work from these 3x3 products
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from framecheck import (  # noqa: E402
    CheckConfig,
    classify_linear_symmetry,
    random_orthogonal,
    schur_reduce,
)

SPECTRA = {
    "isotropic": (2.0, 2.0, 2.0),
    "transversely_isotropic": (1.0, 1.0, 4.0),
    "orthotropic": (1.0, 2.0, 3.0),
}


def classify_draws(seed: int, per_class: int) -> list[dict]:
    """One record per draw, spectrum by spectrum: the spectrum it was drawn
    with, the classifier's label and schur_reduce's three fields."""
    cfg = CheckConfig(seed=seed)
    draws = []
    for j, (expected, spectrum) in enumerate(SPECTRA.items()):
        for i in range(per_class):
            r = random_orthogonal(seed + 1000 * j + i, proper_only=True)
            k = r @ np.diag(spectrum) @ r.T
            k = 0.5 * (k + k.T)  # scrub rounding skew from the conjugation
            label = classify_linear_symmetry(k, cfg).value
            invariant, alpha, residual = schur_reduce(k, cfg)
            draws.append(
                {
                    "drawn_as": expected,
                    "label": label,
                    "invariant": invariant,
                    "alpha": alpha,
                    "residual": residual,
                }
            )
    return draws


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-class", type=int, default=20)
    args = ap.parse_args()

    draws = classify_draws(args.seed, args.per_class)
    tally = Counter()
    mismatches = 0
    for d in draws:
        expected, label = d["drawn_as"], d["label"]
        tally[(expected, label)] += 1
        if label != expected:
            mismatches += 1
        if d["invariant"] != (expected == "isotropic"):
            mismatches += 1
        if d["invariant"] and abs(d["alpha"] - SPECTRA[expected][0]) > 1e-12:
            mismatches += 1

    width = max(len(k) for k in SPECTRA)
    print(f"{'drawn as':<{width}}   {'classified as':<{width}}   count")
    for (expected, label), n in sorted(tally.items()):
        print(f"{expected:<{width}}   {label:<{width}}   {n}")
    print()
    if mismatches:
        print(f"{mismatches} disagreement(s) between classifier and reduction")
        return 1
    print("classifier and reduction agree on every draw")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
