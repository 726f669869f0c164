"""INI configuration for check suites.

Grammar (configparser syntax, '#' comments):

    [model]
    family = linear_constant | linear_temperature | nonlinear_isotropic
             | nonlinear_anisotropic
    kappa0 = 9 numbers, row-major, ';' between rows optional
    theta_coeffs = polynomial coefficients, low order first
    a = scalar        b = scalar
    a_tensor = 9 numbers        c = scalar

    [group]               # optional, defaults to trivial
    name = catalog name   # or:
    generators = 9-number matrices separated by '|'
    max_order = closure size cap, generators only (default 192)

    [checks]              # optional, defaults to all five
    names = subset of: symmetry frame_indifference observer_independence
            isotropy zero_map
    <check>.tol = per-check tolerance override
    isotropy.sample_count = orthogonal draws for the isotropy check

    [run]                 # optional
    seed = 0              tol = 1e-9
    theta_samples = 0.5 1.0 300.0
    gradient_samples = 32
    sample_count = 256    # orthogonal draws for full_orthogonal groups
    observers = 100       # count, or explicit matrices separated by '|'

ParseError means the text is not well-formed INI; ValidationError means the
values are wrong and the message names the offending key.  Matrices supplied
through config files are accepted as orthogonal within 1e-6; library users
constructing objects directly get the stricter API tolerances.
"""

from __future__ import annotations

import configparser

import numpy as np
from dataclasses import dataclass, field, fields, make_dataclass

from .checks import CheckConfig
from .groups import DEFAULT_SAMPLE_COUNT, UnknownGroupName, resolve_group_name
# catalog_lookup is not called here; perfbench's tracer hooks this module's
# name for it, so it stays imported
from .groups import catalog_lookup  # noqa: F401
from .models import MODEL_FAMILIES
from .tensors import as_tensor2, is_orthogonal

CHECK_NAMES = (
    "symmetry",
    "frame_indifference",
    "observer_independence",
    "isotropy",
    "zero_map",
)

CONFIG_ORTH_TOL = 1e-6
_MAX_SEED = 2**64 - 1


class ParseError(ValueError):
    """Not well-formed INI text."""


class ValidationError(ValueError):
    """Well-formed INI with bad contents; the message names the key."""


@dataclass(frozen=True)
class GroupSpec:
    name: str | None = "trivial"
    generators: tuple[tuple[float, ...], ...] | None = None
    max_order: int = 192


@dataclass(frozen=True)
class CheckRequest:
    name: str
    tol: float | None = None
    sample_count: int | None = None


_ALL_CHECKS = tuple(CheckRequest(n) for n in CHECK_NAMES)


@dataclass(frozen=True)
class SuiteConfig:
    """Fully resolved run description.

    Plain data, tuples only, so two configs compare by value; construction
    through parse_config is validated, direct construction is not.
    """

    model: ModelSpec
    group: GroupSpec = GroupSpec()
    checks: tuple[CheckRequest, ...] = _ALL_CHECKS
    seed: int = CheckConfig.seed
    tol: float = CheckConfig.tol
    theta_samples: tuple[float, ...] = CheckConfig.theta_samples
    gradient_samples: int = CheckConfig.gradient_samples
    sample_count: int = DEFAULT_SAMPLE_COUNT
    observer_count: int = 100
    observer_matrices: tuple[tuple[float, ...], ...] | None = None

    def to_config_text(self) -> str:
        """Canonical INI text; parse_config(text) reproduces this config
        exactly (floats are emitted with repr, which round-trips)."""
        lines = ["[model]", f"family = {self.model.family}"]
        for key, (_, fmt, _) in _FAMILY_PARAMS[self.model.family].items():
            lines.append(f"{key} = {fmt(getattr(self.model, key))}")
        lines += ["", "[group]"]
        if self.group.generators is not None:
            gens = " | ".join(_fmt_matrix(g) for g in self.group.generators)
            lines.append(f"generators = {gens}")
            lines.append(f"max_order = {self.group.max_order}")
        else:
            lines.append(f"name = {self.group.name}")
        lines += ["", "[checks]"]
        lines.append("names = " + " ".join(c.name for c in self.checks))
        for c in self.checks:
            if c.tol is not None:
                lines.append(f"{c.name}.tol = {float(c.tol)!r}")
            if c.sample_count is not None:
                lines.append(f"{c.name}.sample_count = {c.sample_count}")
        lines += ["", "[run]"]
        lines.append(f"seed = {self.seed}")
        lines.append(f"tol = {float(self.tol)!r}")
        lines.append(f"theta_samples = {_fmt_floats(self.theta_samples)}")
        lines.append(f"gradient_samples = {self.gradient_samples}")
        lines.append(f"sample_count = {self.sample_count}")
        if self.observer_matrices is not None:
            obs = " | ".join(_fmt_matrix(m) for m in self.observer_matrices)
            lines.append(f"observers = {obs}")
        else:
            lines.append(f"observers = {self.observer_count}")
        lines.append("")
        return "\n".join(lines)


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _fmt_matrix(values) -> str:
    rows = (values[0:3], values[3:6], values[6:9])
    return " ; ".join(_fmt_floats(r) for r in rows)


def _floats(section: str, key: str, raw: str, count: int | None = None) -> tuple[float, ...]:
    tokens = raw.replace(";", " ").split()
    try:
        values = tuple(float(t) for t in tokens)
    except ValueError:
        raise ValidationError(f"{section}.{key}: could not parse {raw!r} as numbers") from None
    if not all(np.isfinite(v) for v in values):
        raise ValidationError(f"{section}.{key}: values must be finite")
    if count is not None and len(values) != count:
        raise ValidationError(f"{section}.{key}: expected {count} numbers, got {len(values)}")
    return values


def _scalar(section: str, key: str, raw: str) -> float:
    return _floats(section, key, raw, count=1)[0]


def _int(section: str, key: str, raw: str, minimum: int) -> int:
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise ValidationError(f"{section}.{key}: could not parse {raw!r} as an integer") from None
    if value < minimum:
        raise ValidationError(f"{section}.{key}: must be at least {minimum}")
    return value


def _coeffs(section: str, key: str, raw: str) -> tuple[float, ...]:
    values = _floats(section, key, raw)
    if not values:
        raise ValidationError(f"{section}.{key}: at least one coefficient required")
    return values


# How a model parameter is parsed, written back and typed in a ModelSpec, by
# the annotation of its field in the model class: a 3x3 tensor, a
# coefficient list or a scalar.
_PARAM_KINDS = {
    "np.ndarray": (lambda s, k, raw: _floats(s, k, raw, count=9), _fmt_matrix, "tuple[float, ...]"),
    "tuple[float, ...]": (_coeffs, _fmt_floats, "tuple[float, ...]"),
    "float": (_scalar, lambda v: repr(float(v)), "float"),
}

# family -> {parameter: (parse, emit, type)}, in the order of the class's fields
_FAMILY_PARAMS = {
    family: {f.name: _PARAM_KINDS[f.type] for f in fields(cls)}
    for family, cls in MODEL_FAMILIES.items()
}

# every family's parameters, each once, in the order of MODEL_FAMILIES and
# of each class's fields: parameter -> type.  ModelSpec has one field each.
_SPEC_PARAMS = {
    key: kind for params in _FAMILY_PARAMS.values() for key, (_, _, kind) in params.items()
}
_SPEC_DOC = """A model as the config names it: its family plus every family's
    parameters, of which only the family's own are set."""
ModelSpec = make_dataclass(
    "ModelSpec",
    [("family", "str")]
    + [(key, f"{kind} | None", field(default=None)) for key, kind in _SPEC_PARAMS.items()],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": _SPEC_DOC},
)


def _orthogonal_matrix(section: str, key: str, chunk: str) -> tuple[float, ...]:
    values = _floats(section, key, chunk, count=9)
    if not is_orthogonal(as_tensor2(values), CONFIG_ORTH_TOL):
        raise ValidationError(
            f"{section}.{key}: matrix is not orthogonal within {CONFIG_ORTH_TOL:g}"
        )
    return values


def _parse_model(sec) -> ModelSpec:
    if "family" not in sec:
        raise ValidationError("model.family is required")
    family = sec["family"].strip()
    if family not in _FAMILY_PARAMS:
        known = ", ".join(sorted(_FAMILY_PARAMS))
        raise ValidationError(f"model.family: unknown family {family!r} (known: {known})")
    wanted = _FAMILY_PARAMS[family]
    for key in sec:
        if key != "family" and key not in wanted:
            raise ValidationError(f"model.{key}: not a parameter of family {family}")
    kwargs = {}
    for key, (parse, _, _) in wanted.items():
        if key not in sec:
            raise ValidationError(f"model.{key} is required for family {family}")
        kwargs[key] = parse("model", key, sec[key])
    return ModelSpec(family, **kwargs)


def _parse_group(sec) -> GroupSpec:
    for key in sec:
        if key not in ("name", "generators", "max_order"):
            raise ValidationError(f"group.{key}: unknown key")
    if "name" in sec and "generators" in sec:
        raise ValidationError("group: give either name or generators, not both")
    if "generators" in sec:
        chunks = sec["generators"].split("|")
        generators = tuple(_orthogonal_matrix("group", "generators", c) for c in chunks)
        max_order = GroupSpec.max_order
        if "max_order" in sec:
            max_order = _int("group", "max_order", sec["max_order"], minimum=1)
        return GroupSpec(name=None, generators=generators, max_order=max_order)
    if "max_order" in sec:
        raise ValidationError("group.max_order: only valid with generators")
    name = sec["name"].strip() if "name" in sec else "trivial"
    try:
        resolve_group_name(name)
    except UnknownGroupName as exc:
        raise ValidationError(f"group.name: {exc}") from None
    return GroupSpec(name=name)


def _parse_checks(sec) -> tuple[CheckRequest, ...]:
    names = list(CHECK_NAMES)
    if "names" in sec:
        names = sec["names"].split()
        if not names:
            raise ValidationError("checks.names: at least one check required")
        for n in names:
            if n not in CHECK_NAMES:
                raise ValidationError(
                    f"checks.names: unknown check {n!r} (known: {', '.join(CHECK_NAMES)})"
                )
        if len(set(names)) != len(names):
            raise ValidationError("checks.names: duplicate check names")
    tols: dict[str, float] = {}
    counts: dict[str, int] = {}
    for key in sec:
        if key == "names":
            continue
        base, dot, attr = key.partition(".")
        if not dot or base not in CHECK_NAMES or attr not in ("tol", "sample_count"):
            raise ValidationError(f"checks.{key}: unknown key")
        if base not in names:
            raise ValidationError(f"checks.{key}: check {base!r} is not selected in names")
        if attr == "tol":
            tol = _scalar("checks", key, sec[key])
            if not tol > 0:
                raise ValidationError(f"checks.{key}: tolerance must be positive")
            tols[base] = tol
        else:
            if base != "isotropy":
                raise ValidationError(f"checks.{key}: sample_count only applies to isotropy")
            counts[base] = _int("checks", key, sec[key], minimum=1)
    return tuple(CheckRequest(n, tol=tols.get(n), sample_count=counts.get(n)) for n in names)


def _parse_run(sec) -> dict:
    known = ("seed", "tol", "theta_samples", "gradient_samples", "sample_count", "observers")
    for key in sec:
        if key not in known:
            raise ValidationError(f"run.{key}: unknown key")
    out: dict = {}
    if "seed" in sec:
        seed = _int("run", "seed", sec["seed"], minimum=0)
        if seed > _MAX_SEED:
            raise ValidationError(f"run.seed: must be below 2**64, got {seed}")
        out["seed"] = seed
    if "tol" in sec:
        tol = _scalar("run", "tol", sec["tol"])
        if not tol > 0:
            raise ValidationError("run.tol: must be positive")
        out["tol"] = tol
    if "theta_samples" in sec:
        thetas = _floats("run", "theta_samples", sec["theta_samples"])
        if not thetas:
            raise ValidationError("run.theta_samples: at least one temperature required")
        if not all(t > 0 for t in thetas):
            raise ValidationError("run.theta_samples: temperatures must be positive")
        out["theta_samples"] = thetas
    if "gradient_samples" in sec:
        out["gradient_samples"] = _int("run", "gradient_samples", sec["gradient_samples"], minimum=1)
    if "sample_count" in sec:
        out["sample_count"] = _int("run", "sample_count", sec["sample_count"], minimum=1)
    if "observers" in sec:
        raw = sec["observers"]
        if "|" not in raw and len(raw.split()) == 1 and ";" not in raw:
            out["observer_count"] = _int("run", "observers", raw, minimum=1)
        else:
            chunks = raw.split("|")
            matrices = tuple(_orthogonal_matrix("run", "observers", c) for c in chunks)
            out["observer_matrices"] = matrices
            out["observer_count"] = len(matrices)
    return out


def parse_config(data: str | bytes) -> SuiteConfig:
    """Parse and validate INI text (or UTF-8 bytes) into a SuiteConfig."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"config is not valid UTF-8: {exc}") from None
    else:
        text = data
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser messages carry line numbers; keep them
        raise ParseError(str(exc)) from None
    if parser.defaults():
        raise ValidationError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in ("model", "group", "checks", "run"):
            raise ValidationError(f"unknown section [{section}]")
    if not parser.has_section("model"):
        raise ValidationError("missing [model] section")
    model = _parse_model(parser["model"])
    group = _parse_group(parser["group"]) if parser.has_section("group") else GroupSpec()
    if parser.has_section("checks"):
        checks = _parse_checks(parser["checks"])
    else:
        checks = _ALL_CHECKS
    run_kwargs = _parse_run(parser["run"]) if parser.has_section("run") else {}
    return SuiteConfig(model=model, group=group, checks=checks, **run_kwargs)
