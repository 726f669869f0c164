"""framecheck benchmark: end-to-end and per-layer timings with a correctness oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a framecheck checkout; the program runs from its source
in ``src/``.  One client drives the program in a closed loop, one operation
at a time, and every operation is a fresh process, so it pays for interpreter
start and ``import framecheck`` as a user does.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json, each
operation paired with the same operation on a frozen reference copy of
framecheck (see REFERENCE below).  ``--trace 1`` alternates traced and
untraced operations and reports per-layer metrics, from spans recorded
around calls into each module (see child.py).  The oracle (oracle.py)
checks every operation: a wrong exit code, verdict or witness, a report that
is not byte-identical to the first one of its config, a crash or a timeout
fails the operation.  Detail lines go first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from child import PER_CLASS, SPECTRA

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120.0
SETUP_RUNS = 11  # per source tree

# The machine the benchmark was defined on, a shared 2-core VM, has slow
# spells of several minutes in which every process runs up to 50% slower; no
# statistic of one run can average them out.  An untraced run therefore
# alternates each operation (and set-up run) with the same operation run by
# REFERENCE, a frozen copy of framecheck and its canned configs as they were
# when the benchmark was defined.  A slow spell slows both alike, so each
# timing is reported as the live-to-reference ratio; the detail lines print
# the raw seconds of both.  setup_s must be in seconds, so its ratio is
# scaled by SETUP_SCALE_S, the reference's set-up time on a 2-core x86-64 VM
# (Python 3.11.7, numpy 2.4.6; 0.14-0.15 s on every workload).
REFERENCE = HERE / "reference"
SETUP_SCALE_S = 0.145
MIN_OPS = 11  # the tail percentile needs ten operations beyond it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

T, F = True, False
CANNED = {
    "isotropic": dict(zip(oracle.CHECK_NAMES, (T, T, T, T, T))),
    "anisotropic": dict(zip(oracle.CHECK_NAMES, (T, T, F, F, T))),
    "malformed": None,  # must be rejected: exit 2, one error line
}

# ROADMAP's heavy config: array throughput of the checks (318 states).
HEAVY_INI = """\
[model]
family = nonlinear_anisotropic
a_tensor = 1 0 0 ; 0 2 0 ; 0 0 3
c = 0.5

[group]
name = cubic_rotations

[checks]
names = symmetry frame_indifference observer_independence isotropy zero_map

[run]
"""
HEAVY_EXPECT = dict(zip(oracle.CHECK_NAMES, (F, T, F, F, T)))

# Many small trips: 192 elements x 25 observers of 108 states each.
BIG_GROUP_INI = """\
[model]
family = linear_temperature
kappa0 = 1 0 0 ; 0 1 0 ; 0 0 3
theta_coeffs = 1 0.01

[group]
name = transverse_z_192

[checks]
names = symmetry frame_indifference observer_independence zero_map

[run]
observers = 25
"""
BIG_GROUP_EXPECT = {"symmetry": T, "frame_indifference": T, "observer_independence": F, "zero_map": T}


@dataclass
class Op:
    """One kind of operation: how to run it, set it up, trace it and check it."""

    key: str
    src: Path  # the framecheck source tree the operation runs
    argv: list[str]  # after the interpreter
    check: Callable[[int, bytes, bytes], list[str]]
    setup_argv: list[str]
    trace_argv: list[str]  # after "child.py trace SPANS"
    setup_code: int = 0


@dataclass
class Sample:
    key: str  # the operation's Op.key
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    spans: dict | None
    ok: bool


def cli_op(key: str, src: Path, path: Path, seed: int, expected: dict | None) -> Op:
    args = ["run", "--format", "machine", "--seed", str(seed), str(path)]
    if expected is None:
        check = oracle.check_rejected
    else:
        cfg = oracle.read_config(path.read_text(), seed)
        check = lambda code, out, err: oracle.check_report(cfg, expected, code, out, err)
    return Op(
        key=key,
        src=src,
        argv=["-m", "framecheck", *args],
        check=check,
        setup_argv=[str(HERE / "child.py"), "setup", str(path)],
        trace_argv=["cli", *args],
        setup_code=2 if expected is None else 0,
    )


def build_workload(name: str, seed: int, root: Path, out: Path, tag: str = "") -> tuple[list[Op], list[str]]:
    """The workload's operations on the tree ``root`` (the checkout, or the
    frozen reference), in the order they cycle, and the arguments of its
    layer probe.  Inputs are a pure function of the seed."""
    src = root / "src" if root.joinpath("src").is_dir() else root
    if name == "canned":
        ops = [cli_op(tag + k, src, root / "configs" / f"{k}.ini", seed, e) for k, e in CANNED.items()]
        return ops, [str(seed), "64", "cubic_rotations", "orthotropic"]
    if name in ("heavy", "big_group"):
        text, expected, group = {
            "heavy": (HEAVY_INI, HEAVY_EXPECT, "cubic_rotations"),
            "big_group": (BIG_GROUP_INI, BIG_GROUP_EXPECT, "transverse_z_192"),
        }[name]
        path = out / f"{name}-{seed}.ini"
        path.write_text(f"{text}seed = {seed}\n")
        return [cli_op(tag + name, src, path, seed, expected)], [str(seed), "256", group]
    op = Op(
        key=tag + "classify",
        src=src,
        argv=[str(HERE / "child.py"), "classify", str(seed)],
        check=lambda code, o, e: oracle.check_classify(SPECTRA, PER_CLASS, code, o),
        setup_argv=[str(HERE / "child.py"), "setup"],
        trace_argv=["classify", str(seed)],
    )
    return [op], [str(seed), "256", "transverse_z_8", "orthotropic"]


class Runner:
    """Runs one child at a time to completion, with rusage and a timeout."""

    def __init__(self, out: Path):
        self.out = out

    def spawn(self, argv: list[str], src: Path):
        """Run ``python argv`` with framecheck imported from ``src``; return
        (code, stdout, stderr, wall_s, cpu_s, rss_mb).  The wall time runs
        from spawn to exit; a negative code is a signal."""
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(src) + os.pathsep + old if old else str(src)
        out_path, err_path = self.out / "stdout", self.out / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        watchdog = threading.Timer(OP_TIMEOUT_S, os.kill, (pid, 9))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
        return (
            os.waitstatus_to_exitcode(status),
            out_path.read_bytes(),
            err_path.read_bytes(),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )


class Harness:
    """Runs operations, checks each with the oracle and counts failures."""

    def __init__(self, runner: Runner, spans_path: Path):
        self.runner = runner
        self.spans_path = spans_path
        self.det = oracle.Determinism()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors

    def setup(self, op: Op) -> float:
        code, _, err, wall, _, _ = self.runner.spawn(op.setup_argv, op.src)
        self.record([] if code == op.setup_code else [f"{op.key}: set-up exited {code}: {_tail(err)}"])
        return wall

    def op(self, op: Op, traced: bool = False) -> Sample:
        argv = [str(HERE / "child.py"), "trace", str(self.spans_path), *op.trace_argv] if traced else op.argv
        code, out, err, wall, cpu, rss = self.runner.spawn(argv, op.src)
        if code < 0:
            errors = [f"signal {-code} (timeout after {OP_TIMEOUT_S:g} s, or a crash)"]
        elif code not in (0, 1, 2):
            errors = [f"crashed with exit code {code}: {_tail(err)}"]
        else:
            errors = op.check(code, out, err) + self.det.check(op.key, out)
        spans = None
        if traced:
            try:
                spans = json.loads(self.spans_path.read_text())
                self.spans_path.unlink()
            except (OSError, ValueError):
                errors.append("traced operation wrote no spans")
        self.record([f"{op.key}: {e}" for e in errors])
        return Sample(op.key, wall, cpu, rss, out, spans, not errors)


@dataclass
class Series:
    """The operations of one source tree and the samples taken of them."""

    ops: list[Op]
    samples: list[Sample] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)


def paired_timings(live: Series, ref: Series) -> tuple[dict[str, tuple[float, float, float]], int]:
    """(live, reference, live-to-reference ratio) for each timing, and the
    percentile of the tail.

    Live and reference runs alternate, so the ratio of the medians is taken
    pair by pair: a median of per-pair ratios cancels what slows both runs
    of a pair alike.  The tail, a property of the whole distribution, is a
    ratio of the two tails at the same percentile."""
    lw, rw = [s.wall for s in live.samples], [s.wall for s in ref.samples]
    lc, rc = [s.cpu for s in live.samples], [s.cpu for s in ref.samples]

    def paired(a, b):
        return _median(a), _median(b), _median(x / y for x, y in zip(a, b))

    p = tail_percentile(min(len(lw), len(rw)))
    lt, rt = nearest_rank(lw, p), nearest_rank(rw, p)
    timings = {
        "op_p50": paired(lw, rw),
        "op_tail": (lt, rt, lt / rt),
        "setup": paired(live.setups, ref.setups),
        "cpu": paired(lc, rc),
    }
    return timings, p


def _tail(err: bytes) -> str:
    return err.decode("utf-8", "replace").strip()[-300:]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n values above its
    nearest rank (1 when n is eleven or less)."""
    p = 99
    while p > 1 and math.ceil(p * n / 100) > n - 10:
        p -= 1
    return p


def nearest_rank(values: list[float], p: int) -> float:
    xs = sorted(values)
    return xs[max(0, math.ceil(p * len(xs) / 100) - 1)]


def layer_figures(s: Sample) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures of one traced operation, and each span name's layer
    time (for the ranking).  ``<layer>.self_s`` is a layer's span time minus
    the time of the spans it called; ``<span>_s`` is a span's inclusive time;
    a span's layer time is its time minus that of the spans it called in
    other layers; ``cli.residual_s`` is the wall time no top-level span
    covers.  The counts come from the tracer (see child.py)."""
    rows = s.spans["spans"]
    inner = [0] * len(rows)
    other = [0] * len(rows)
    for name, start, end, parent in rows:
        if parent >= 0:
            inner[parent] += end - start
            if name.split(".")[0] != rows[parent][0].split(".")[0]:
                other[parent] += end - start
    fig: dict[str, float] = {}
    own: dict[str, float] = {}
    covered = 0
    for (name, start, end, parent), below, below_other in zip(rows, inner, other):
        layer = name.split(".")[0] + ".self_s"
        fig[layer] = fig.get(layer, 0.0) + (end - start - below) * 1e-9
        fig[name + "_s"] = fig.get(name + "_s", 0.0) + (end - start) * 1e-9
        own[name + "_s"] = own.get(name + "_s", 0.0) + (end - start - below_other) * 1e-9
        if parent < 0:
            covered += end - start
    fig["cli.residual_s"] = s.wall - covered * 1e-9
    fig["cli.self_s"] = fig.get("cli.self_s", 0.0) + fig["cli.residual_s"]
    fig.update({k: float(v) for k, v in s.spans["counts"].items()})
    return fig, own


def per_cycle(rows: list[tuple[str, dict[str, float]]]) -> dict[str, float]:
    """One figure per name for a cycle of the workload's operations: the
    median over the operations of each kind that have the figure, summed over
    the kinds.  A figure an operation kind does not produce (the malformed
    config has no checks) adds nothing, rather than a zero to a median."""
    by_kind: dict[str, dict[str, list[float]]] = {}
    for key, fig in rows:
        for name, value in fig.items():
            by_kind.setdefault(key, {}).setdefault(name, []).append(value)
    out: dict[str, float] = {}
    for figs in by_kind.values():
        for name, values in figs.items():
            out[name] = out.get(name, 0.0) + statistics.median(values)
    return out


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _median(values) -> float:
    """Median, or 0.0 when every operation that would give a value failed
    (the run then reports correct = false)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("canned", "heavy", "big_group", "classify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be in [0, 2**64)")

    root = Path.cwd()
    if not (root / "src" / "framecheck" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a framecheck checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    ops, probe_argv = build_workload(args.workload, args.seed, root, out)
    live = Series(ops)
    sides = [live]
    if not args.trace:
        ref = Series(build_workload(args.workload, args.seed, REFERENCE, out, "reference ")[0])
        sides.append(ref)
    runner = Runner(out)
    sess = Harness(runner, out / "spans.json")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    # warm-up, not measured: writes bytecode caches and fills the page cache
    for x in sides:
        for op in x.ops:
            sess.setup(op)
            sess.op(op)

    traced: list[tuple[Sample, Op]] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = (time.perf_counter() - start) / args.seconds
        enough = all(len(x.samples) >= MIN_OPS for x in sides) and len(traced) >= MIN_OPS * args.trace
        if elapsed >= 1.0 and enough:
            break
        # set-up runs are spread over the run, so that a slow spell of the
        # shared machine weighs on them as it does on the operations
        done = sum(len(x.setups) for x in sides)
        if not args.trace and done < SETUP_RUNS * len(sides) * min(elapsed, 1.0):
            x = sides[done % len(sides)]
            x.setups.append(sess.setup(x.ops[len(x.setups) % len(x.ops)]))
            continue
        if args.trace and i % 2:
            op = ops[(i // 2) % len(ops)]
            traced.append((sess.op(op, traced=True), op))
        else:
            x = sides[i % len(sides)] if not args.trace else live
            x.samples.append(sess.op(x.ops[(i // 2) % len(x.ops)]))
        i += 1
    while not args.trace and sum(len(x.setups) for x in sides) < SETUP_RUNS * len(sides):
        x = min(sides, key=lambda x: len(x.setups))
        x.setups.append(sess.setup(x.ops[len(x.setups) % len(x.ops)]))

    print(f"operations {len(live.samples)} untraced, {len(traced)} traced; set-up runs {len(live.setups)}")
    if args.trace:
        code, pout, perr, _, _, _ = runner.spawn([str(HERE / "child.py"), "probe", *probe_argv], root / "src")
        sess.record([] if code == 0 else [f"probe exited {code}: {_tail(perr)}"])
        ok = [(s, op) for s, op in traced if s.ok]
        missing = sorted({m for s, _ in ok for m in s.spans["missing"]})
        if missing:
            print("hooks missing (renamed or removed calls are not traced): " + " ".join(missing))
        per_op = [(op.key, layer_figures(s)) for s, op in ok]
        figures = per_cycle([(key, fig) for key, (fig, _) in per_op])
        figures.update(json.loads(pout) if code == 0 else {})
        # like the layer figures, per cycle: summed over the operation kinds
        figures["trace.overhead_s"] = 0.0
        for op in ops:
            traced_walls = [s.wall for s, o in ok if o.key == op.key]
            walls = [s.wall for s in live.samples if s.key == op.key and s.ok]
            if traced_walls and walls:
                figures["trace.overhead_s"] += statistics.median(traced_walls) - statistics.median(walls)
        own = per_cycle([(key, o) for key, (_, o) in per_op])
        ranked = sorted(own.items(), key=lambda kv: -kv[1])[:5]
        print("ranking (layer time per call) " + " > ".join(f"{k} {v:.4g}" for k, v in ranked))
        for k in sorted(figures):
            print(f"layer {k} {figures[k]:.6g}")
        with open(out / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            for op_id, (s, op) in enumerate(traced):
                fh.write(json.dumps({"op": op_id, "key": op.key, "wall_s": s.wall, **(s.spans or {})}) + "\n")
        wanted = spec["per_layer"]
    else:
        figures = {}
        timings, tail_p = paired_timings(live, ref)
        for k, (lv, rv, ratio) in timings.items():
            print(f"raw {k} {lv:.6g} s, reference {rv:.6g} s, ratio {ratio:.6g}")
            figures[k + "_ratio"] = ratio
        figures["setup_s"] = figures.pop("setup_ratio") * SETUP_SCALE_S
        figures["peak_rss_mb"] = _median(s.rss_mb for s in live.samples)
        n = min(len(live.samples), len(ref.samples))
        note = "" if tail_p >= 90 else "; below p90, so not a tail: p90 needs 100 operations per tree"
        print(f"op_tail_ratio compares p{tail_p} of {n} operations per tree{note}")
        wanted = spec["end_to_end"]
    figures["success_rate"] = 1.0 - sess.failed / sess.attempted
    print(f"error_rate {sess.failed / sess.attempted:.6g} ({sess.failed} of {sess.attempted})")
    for m in wanted:
        if m["name"] in figures:
            print(f"metric {m['name']} {figures[m['name']]:.6g} {m['unit']}")
        else:
            print(f"metric {m['name']} not measured (reported as 0)")
    for e in sess.errors[:20]:
        print("error " + e)
    result = {
        "correct": sess.failed == 0,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {m["name"]: {"value": figures.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result, sort_keys=True))
    return 0

if __name__ == "__main__":
    sys.exit(main())
