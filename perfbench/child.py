"""Programs the benchmark runs in fresh processes.

    child.py setup [CONFIG]                  import framecheck, parse CONFIG
    child.py classify SEED                   the classify operation
    child.py trace SPANS cli ARGS...         framecheck's CLI, traced
    child.py trace SPANS classify SEED       the classify operation, traced
    child.py probe SEED SAMPLES GROUP...     layer probes, timed in process

Only the standard library is imported before ``import framecheck``, so the
import cost a user pays is what the import span sees.  The tracer records one
span around each call the hooks below intercept: the callers look these
names up in their module namespace at call time, so replacing the module
attribute routes the call through the tracer without touching the source.
Spans stay in memory and are written to SPANS once, when the process ends.

The tracer also counts, for each check, the samples it reports and its trips:
one trip is one pass of a check's loop over group elements and observers.
Each pass reduces its residual rows with one ``np.argmax``, so the tracer
gives ``framecheck.checks`` its own copy of the numpy namespace whose
``argmax`` counts a trip; zero_map's trips are its ``evaluate`` calls.  A
count goes to the outermost check span open at the time, so isotropy's inner
symmetry check counts as isotropy.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

# (module whose namespace the caller reads, attribute, span name).  The span
# name's first part is the layer that does the work; ``<span name>_s`` is the
# name of the span's inclusive time in the benchmark output.
HOOKS = (
    ("framecheck.cli", "parse_config", "config.parse"),
    ("framecheck.cli", "run_suite", "report.run_suite"),
    ("framecheck.cli", "emit_report", "report.emit"),
    ("framecheck.config", "catalog_lookup", "groups.catalog_lookup"),
    ("framecheck.report", "build_model", "models.build"),
    ("framecheck.report", "build_group", "groups.build"),
    ("framecheck.report", "build_observers", "report.build_observers"),
    ("framecheck.report", "catalog_lookup", "groups.catalog_lookup"),
    ("framecheck.report", "generate_closure", "groups.generate_closure"),
    ("framecheck.report", "random_observers", "tensors.observers"),
    ("framecheck.report", "check_symmetry", "checks.symmetry"),
    ("framecheck.report", "check_frame_indifference", "checks.frame_indifference"),
    ("framecheck.report", "check_observer_independence", "checks.observer_independence"),
    ("framecheck.report", "check_isotropy", "checks.isotropy"),
    ("framecheck.report", "check_zero_map", "checks.zero_map"),
    ("framecheck.checks", "check_symmetry", "checks.symmetry"),
    ("framecheck.checks", "catalog_lookup", "groups.catalog_lookup"),
    ("framecheck.checks", "orthogonal_check_set", "groups.orthogonal_check_set"),
    ("framecheck.checks", "evaluate", "models.evaluate"),
    ("framecheck.groups", "orthogonal_check_set", "groups.orthogonal_check_set"),
)

# Counts read off a hooked call's result: span name -> (count name, reader).
COUNTS = {
    "groups.build": ("groups.order", lambda g: len(g.elements or ())),
    "report.build_observers": ("tensors.observer_count", len),
    "report.emit": ("report.bytes", len),
}
CHECKS = {
    f"checks.{c}"
    for c in ("symmetry", "frame_indifference", "observer_independence", "isotropy", "zero_map")
}

# The classify batch: spectra per class, as in scripts/classify_conductivities.py.
SPECTRA = {
    "isotropic": (2.0, 2.0, 2.0),
    "transversely_isotropic": (1.0, 1.0, 4.0),
    "orthotropic": (1.0, 2.0, 3.0),
}
PER_CLASS = 20
PROBE_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def outer_check(self):
        """The outermost open check span, or None."""
        return next((self.spans[i][0] for i in self._open if self.spans[i][0] in CHECKS), None)

    def trip(self):
        check = self.outer_check()
        if check is not None:
            self.add(check + ".trips", 1)

    def call(self, name, fn, *args, **kwargs):
        if name == "models.evaluate":
            self.trip()
        outer = self.outer_check()
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()
        if name in COUNTS:
            key, read = COUNTS[name]
            self.add(key, read(result))
        if name in CHECKS and outer is None:
            self.add(name + ".samples", result.samples_used)
        return result

    def count_trips(self) -> bool:
        mod = importlib.import_module("framecheck.checks")
        real = getattr(mod, "np", None)
        if real is None:
            return False
        argmax = real.argmax
        np_copy = types.ModuleType(real.__name__)
        np_copy.__dict__.update(real.__dict__)

        def counted(*args, **kwargs):
            self.trip()
            return argmax(*args, **kwargs)

        np_copy.argmax = counted
        mod.np = np_copy
        return True

    def hook(self, module, attr, name) -> bool:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            return False
        setattr(mod, attr, lambda *a, **k: self.call(name, fn, *a, **k))
        return True


def classify_batch(fc, seed: int, call=lambda name, fn, *a: fn(*a)) -> dict:
    """Classify PER_CLASS randomly oriented conductivities of each spectrum
    and run the scalar reduction on each; ``call`` lets the tracer wrap the
    library calls."""
    import numpy as np

    cfg = fc.CheckConfig(seed=seed)
    draws = []
    for j, (expected, spectrum) in enumerate(SPECTRA.items()):
        for i in range(PER_CLASS):
            orient = (seed * 3 * PER_CLASS + j * PER_CLASS + i) % 2**64
            r = call("tensors.random_orthogonal", fc.random_orthogonal, orient, True)
            k = r @ np.diag(spectrum) @ r.T
            k = 0.5 * (k + k.T)
            label = call("checks.classify", fc.classify_linear_symmetry, k, cfg)
            invariant, alpha, residual = call("checks.schur_reduce", fc.schur_reduce, k, cfg)
            draws.append(
                {
                    "expected": expected,
                    "label": label.value,
                    "invariant": bool(invariant),
                    "alpha": alpha,
                    "residual": residual,
                    "kappa": k.tolist(),
                }
            )
    return {"tol": cfg.tol, "draws": draws}


def _setup(argv) -> int:
    import framecheck as fc

    if not argv:
        return 0
    with open(argv[0], "rb") as fh:
        data = fh.read()
    try:
        fc.parse_config(data)
    except (fc.ParseError, fc.ValidationError):
        return 2
    return 0


def _classify(argv) -> int:
    import framecheck as fc

    out = classify_batch(fc, int(argv[0]))
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


def _trace(argv) -> int:
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()

    def load():
        import framecheck
        import framecheck.cli

        return framecheck

    fc = tracer.call("cli.import", load)
    missing = [f"{mod}.{attr}" for mod, attr, name in HOOKS if not tracer.hook(mod, attr, name)]
    if not tracer.count_trips():
        missing.append("framecheck.checks.np")
    if mode == "cli":
        code = fc.cli.main(rest)
    else:
        out = classify_batch(fc, int(rest[0]), tracer.call)
        sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
        code = 0
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "missing": missing}, fh)
    return code


def _probe(argv) -> int:
    """Time, in one process, the layer calls that no operation pays cold:
    orthogonal_check_set with its cache cleared, and closure_defect of each
    named catalog group.  Prints the median of PROBE_REPEATS repetitions."""
    import framecheck as fc

    seed, samples, names = int(argv[0]), int(argv[1]), argv[2:]
    groups = [fc.catalog_lookup(n) for n in names]
    check_set, defect = [], []
    for _ in range(PROBE_REPEATS):
        fc.orthogonal_check_set.cache_clear()
        t0 = time.perf_counter()
        fc.orthogonal_check_set(seed, samples)
        t1 = time.perf_counter()
        for g in groups:
            g.closure_defect()
        t2 = time.perf_counter()
        check_set.append(t1 - t0)
        defect.append(t2 - t1)
    mid = PROBE_REPEATS // 2
    out = {
        "groups.check_set_s": sorted(check_set)[mid],
        "groups.closure_defect_s": sorted(defect)[mid],
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


MODES = {"setup": _setup, "classify": _classify, "trace": _trace, "probe": _probe}

if __name__ == "__main__":
    sys.exit(MODES[sys.argv[1]](sys.argv[2:]))
