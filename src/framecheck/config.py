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

    [run]                 # optional
    seed = 0              tol = 1e-9
    theta_samples = 0.5 1.0 300.0
    gradient_samples = 32
    sample_count = 256    # Haar draws of the sampled full orthogonal group,
                          # for isotropy and a full_orthogonal [group]
    observers = 100       # count, or explicit matrices separated by '|'

ParseError means the text is not well-formed INI; ValidationError means the
values are wrong and the message names the offending key.  parse_config reads
the text; the type that holds a value judges it when built, with the same
message in code as for a file: GroupSpec [group], CheckConfig every [run]
key but observers, and SuiteConfig the rest.  A value in the wrong form, such
as a list for a tuple or a float for a count, is a TypeError naming the key.
Observer matrices are held to 1e-12 and generators to the closure's 1e-9.
"""

from __future__ import annotations

import configparser

import numpy as np
from dataclasses import dataclass, field, fields, make_dataclass

from .checks import CheckConfig, _is_number
from .groups import UnknownGroupName, resolve_group_name
# catalog_lookup is not called here; perfbench's tracer hooks this module's
# name for it, so it stays imported
from .groups import catalog_lookup  # noqa: F401
from .models import MODEL_FAMILIES
from .tensors import ELEMENT_ORTH_TOL, OBSERVER_ORTH_TOL, _orthogonal

CHECK_NAMES = (
    "symmetry",
    "frame_indifference",
    "observer_independence",
    "isotropy",
    "zero_map",
)

_DEFAULT_MAX_ORDER = 192


class ParseError(ValueError):
    """Not well-formed INI text."""


class ValidationError(ValueError):
    """Well-formed INI with bad contents; the message names the key."""


def _judge_floats(name: str, values, count: int | None = None) -> tuple:
    """``values``, each finite and ``count`` of them when a count is given."""
    if not all(map(_is_number, values)):
        raise TypeError(f"{name}: expected numbers")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name}: values must be finite")
    return _judge_length(name, values, count)


def _judge_length(name: str, values, count: int | None) -> tuple:
    """``values``, ``count`` of them when a count is given."""
    if count is not None and len(values) != count:
        raise ValidationError(f"{name}: expected {count} numbers, got {len(values)}")
    return values


def _judge_int(name: str, value, form: str = "an integer") -> None:
    """An int of at least 1; a TypeError for any other form, bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name}: expected {form}")
    if value < 1:
        raise ValidationError(f"{name}: must be at least 1")


def _judge_matrices(name: str, matrices, tol: float) -> None:
    """A tuple of 9-number tuples, at least one, each finite and orthogonal
    within tol; none is read as the one empty matrix of an empty value."""
    if not isinstance(matrices, tuple) or not all(isinstance(m, tuple) for m in matrices):
        raise TypeError(f"{name}: expected a tuple of 9-number tuples")
    for m in matrices or ((),):
        _judge_floats(name, m, 9)
    if not np.all(_orthogonal(np.reshape(matrices, (-1, 3, 3)), tol)):
        raise ValidationError(f"{name}: matrix is not orthogonal within {tol:g}")


@dataclass(frozen=True)
class GroupSpec:
    """A catalog name that resolves, or generators orthogonal within
    ELEMENT_ORTH_TOL whose closure max_order caps: an int of at least 1,
    which a catalog name takes at its default only."""

    source: str | tuple[tuple[float, ...], ...] = "trivial"
    max_order: int = _DEFAULT_MAX_ORDER

    def __post_init__(self):
        if isinstance(self.source, str):
            if self.max_order != _DEFAULT_MAX_ORDER:
                raise ValidationError("group.max_order: only valid with generators")
            try:
                resolve_group_name(self.source)
            except UnknownGroupName as exc:
                raise ValidationError(f"group.name: {exc}") from None
        else:
            _judge_matrices("group.generators", self.source, ELEMENT_ORTH_TOL)
        _judge_int("group.max_order", self.max_order)


@dataclass(frozen=True)
class SuiteConfig:
    """Fully resolved run description.

    Plain data, tuples only, so two configs compare by value.  ``run``, the
    parameters every check shares, and ``group`` validate themselves; the
    rest is judged here, in this order, with parse_config's messages:
    ``model`` by the rules of [model], ``observers`` (a count of at least 1
    of seeded draws, or matrices held to OBSERVER_ORTH_TOL), then
    ``checks``: a tuple of names, at least one, each in CHECK_NAMES and none
    twice.  Every check runs under ``run``.
    """

    model: ModelSpec
    group: GroupSpec = GroupSpec()
    checks: tuple[str, ...] = CHECK_NAMES
    run: CheckConfig = CheckConfig()
    observers: int | tuple[tuple[float, ...], ...] = 100

    def __post_init__(self):
        _judge_model(self.model)
        if isinstance(self.observers, tuple):
            _judge_matrices("run.observers", self.observers, OBSERVER_ORTH_TOL)
        else:
            _judge_int("run.observers", self.observers, "an integer or a tuple of 9-number tuples")
        names = self.checks
        if not isinstance(names, tuple) or not all(isinstance(n, str) for n in names):
            raise TypeError("checks: expected a tuple of check names")
        if not names:
            raise ValidationError("checks.names: at least one check required")
        for name in names:
            if name not in CHECK_NAMES:
                known = ", ".join(CHECK_NAMES)
                raise ValidationError(f"checks.names: unknown check {name!r} (known: {known})")
        if len(set(names)) != len(names):
            raise ValidationError("checks.names: duplicate check names")

    def to_config_text(self) -> str:
        """Canonical INI text; parse_config(text) reproduces this config
        exactly (floats are emitted with repr, which round-trips)."""
        lines = ["[model]", f"family = {self.model.family}"]
        for key, (_, fmt, _) in _FAMILY_PARAMS[self.model.family].items():
            lines.append(f"{key} = {fmt(getattr(self.model, key))}")
        lines += ["", "[group]"]
        if isinstance(self.group.source, str):
            lines.append(f"name = {self.group.source}")
        else:
            lines.append(f"generators = {' | '.join(map(_fmt_matrix, self.group.source))}")
            lines.append(f"max_order = {self.group.max_order}")
        lines += ["", "[checks]"]
        lines.append("names = " + " ".join(self.checks))
        lines += ["", "[run]"]
        for key, (_, fmt) in _RUN_PARAMS.items():
            lines.append(f"{key} = {fmt(getattr(self.run, key))}")
        obs = self.observers
        if isinstance(obs, tuple):
            obs = " | ".join(map(_fmt_matrix, obs))
        lines.append(f"observers = {obs}")
        lines.append("")
        return "\n".join(lines)


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _fmt_matrix(values) -> str:
    rows = (values[0:3], values[3:6], values[6:9])
    return " ; ".join(_fmt_floats(r) for r in rows)


def _numbers(name: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in raw.replace(";", " ").split())
    except ValueError:
        raise ValidationError(f"{name}: could not parse {raw!r} as numbers") from None


def _scalar(name: str, raw: str) -> float:
    """One number, whatever its value: CheckConfig alone judges a tol, and
    SuiteConfig a model's scalar."""
    return _judge_length(name, _numbers(name, raw), 1)[0]


def _int(name: str, raw: str) -> int:
    try:
        return int(raw.strip(), 10)
    except ValueError:
        raise ValidationError(f"{name}: could not parse {raw!r} as an integer") from None


def _coeffs(name: str, values) -> tuple[float, ...]:
    values = _judge_floats(name, values)
    if not values:
        raise ValidationError(f"{name}: at least one coefficient required")
    return values


# How a model parameter's numbers are judged, and the parameter written back
# and typed in a ModelSpec, by the annotation of its field in the model
# class: a 3x3 tensor, a coefficient list or a scalar.
_PARAM_KINDS = {
    "np.ndarray": (lambda n, v: _judge_floats(n, v, 9), _fmt_matrix, "tuple[float, ...]"),
    "tuple[float, ...]": (_coeffs, _fmt_floats, "tuple[float, ...]"),
    "float": (lambda n, v: _judge_floats(n, v, 1)[0], lambda v: repr(float(v)), "float"),
}

# family -> {parameter: (judge, emit, type)}, in the order of the class's fields
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


# [run] key -> (parse, emit) of each CheckConfig field, in to_config_text's
# order.  The parse reads a number; CheckConfig alone judges it.
_RUN_PARAMS = {
    "seed": (_int, str),
    "tol": (_scalar, lambda v: repr(float(v))),
    "theta_samples": (_numbers, _fmt_floats),
    "gradient_samples": (_int, str),
    "sample_count": (_int, str),
}


def _check_config(values: dict) -> CheckConfig:
    """``CheckConfig(**values)``; its ValueError, which begins with the
    field's name, becomes a ValidationError naming run.field."""
    try:
        return CheckConfig(**values)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ValidationError(f"run.{name}: {rule}") from None


def _judge_model(model: ModelSpec) -> None:
    """A known family, each of its parameters given and no other, each in
    its written form (_spec_numbers) and as many finite numbers as it takes."""
    family = model.family
    given = {k: v for k in _SPEC_PARAMS if (v := getattr(model, k)) is not None}
    if family not in _FAMILY_PARAMS:
        known = ", ".join(sorted(_FAMILY_PARAMS))
        raise ValidationError(f"model.family: unknown family {family!r} (known: {known})")
    wanted = _FAMILY_PARAMS[family]
    for key in given:
        if key not in wanted:
            raise ValidationError(f"model.{key}: not a parameter of family {family}")
    for key, (judge, _, _) in wanted.items():
        if key not in given:
            raise ValidationError(f"model.{key} is required for family {family}")
        judge(f"model.{key}", _spec_numbers(key, given[key]))


def _spec_numbers(key: str, value) -> tuple:
    """A ModelSpec value as numbers, given in the form to_config_text writes."""
    scalar = _SPEC_PARAMS[key] == "float"
    if isinstance(value, tuple) is scalar:
        raise TypeError(f"model.{key}: expected {'a number' if scalar else 'a tuple of numbers'}")
    return (value,) if scalar else value


def _parse_model(sec) -> ModelSpec:
    """The ModelSpec of a [model] section: each parameter read as numbers, a
    scalar as one number, whatever the family; SuiteConfig judges them."""
    if "family" not in sec:
        raise ValidationError("model.family is required")
    family = sec["family"].strip()
    values = {}
    for key in sec:
        if key == "family":
            continue
        if key not in _SPEC_PARAMS:
            raise ValidationError(f"model.{key}: not a parameter of family {family}")
        read = _scalar if _SPEC_PARAMS[key] == "float" else _numbers
        values[key] = read(f"model.{key}", sec[key])
    return ModelSpec(family, **values)


def _parse_group(sec) -> GroupSpec:
    for key in sec:
        if key not in ("name", "generators", "max_order"):
            raise ValidationError(f"group.{key}: unknown key")
    if "name" in sec and "generators" in sec:
        raise ValidationError("group: give either name or generators, not both")
    if "generators" not in sec:
        # the key, whatever its value: a GroupSpec cannot tell the default
        # given from none
        if "max_order" in sec:
            raise ValidationError("group.max_order: only valid with generators")
        return GroupSpec(sec.get("name", "trivial").strip())
    generators = tuple(_numbers("group.generators", m) for m in sec["generators"].split("|"))
    if "max_order" in sec:
        return GroupSpec(generators, _int("group.max_order", sec["max_order"]))
    return GroupSpec(generators)


def _parse_checks(sec) -> tuple[str, ...]:
    """The check names of a [checks] section, its one key."""
    for key in sec:
        if key != "names":
            raise ValidationError(f"checks.{key}: unknown key")
    return tuple(sec["names"].split()) if "names" in sec else CHECK_NAMES


def _parse_run(sec) -> dict:
    """SuiteConfig's fields from a [run] section, or from {} for none: every
    key read, then the run's shared parameters judged by CheckConfig."""
    for key in sec:
        if key not in (*_RUN_PARAMS, "observers"):
            raise ValidationError(f"run.{key}: unknown key")
    values = {k: parse(f"run.{k}", sec[k]) for k, (parse, _) in _RUN_PARAMS.items() if k in sec}
    out: dict = {}
    if "observers" in sec:
        raw = sec["observers"]
        if "|" not in raw and len(raw.split()) == 1 and ";" not in raw:
            out["observers"] = _int("run.observers", raw)
        else:
            out["observers"] = tuple(_numbers("run.observers", m) for m in raw.split("|"))
    out["run"] = _check_config(values)
    return out


def parse_config(data: str | bytes) -> SuiteConfig:
    """Parse INI text (or UTF-8 bytes, a byte order mark allowed) into a SuiteConfig.

    Here only what text alone can break is judged: the text and its
    sections, unknown keys, a key of a choice not made (name with generators,
    max_order without them) and numbers that do not parse, or a scalar that
    is not one number.  The first fault is reported, in this order: the
    text; [model], read; [group], read, then judged by GroupSpec; [run],
    read, then judged by CheckConfig; [checks], read; then SuiteConfig's
    rules, [model]'s first.  So a section's reading faults come before its
    value rules.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"config is not valid UTF-8: {exc}") from None
    else:
        text = data
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser messages carry line numbers; keep them, on one line
        raise ParseError(" ".join(line.strip() for line in str(exc).splitlines())) from None
    if parser.defaults():
        raise ValidationError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in ("model", "group", "checks", "run"):
            raise ValidationError(f"unknown section [{section}]")
    if not parser.has_section("model"):
        raise ValidationError("missing [model] section")
    # an absent section parses as {}
    group, checks, run = (parser[s] if s in parser else {} for s in ("group", "checks", "run"))
    model, group, run = _parse_model(parser["model"]), _parse_group(group), _parse_run(run)
    return SuiteConfig(model, group, _parse_checks(checks), **run)
