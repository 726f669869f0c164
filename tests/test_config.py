import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framecheck as fc

README = Path(__file__).resolve().parent.parent / "README.md"
MINIMAL = """\
[model]
family = linear_constant
kappa0 = 1 0 0 ; 0 1 0 ; 0 0 1
"""


def test_minimal_config_resolves_defaults():
    cfg = fc.parse_config(MINIMAL)
    assert cfg.model.family == "linear_constant"
    assert cfg.model.kappa0 == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert cfg.group == fc.GroupSpec("trivial")
    assert cfg.checks == fc.CHECK_NAMES
    assert cfg.run.tol == 1e-9
    assert cfg.run.seed == 0
    assert cfg.run.theta_samples == (0.5, 1.0, 300.0)
    assert cfg.run.gradient_samples == 32
    assert cfg.run.sample_count == 256
    assert cfg.observers == 100


def test_parse_accepts_bytes():
    assert fc.parse_config(MINIMAL.encode()) == fc.parse_config(MINIMAL)


def test_round_trip_through_canonical_text():
    texts = [
        MINIMAL,
        open("configs/isotropic.ini").read(),
        open("configs/anisotropic.ini").read(),
        # generators, explicit observers, a subset of the checks
        """\
[model]
family = nonlinear_anisotropic
a_tensor = 1 0 0 ; 0 2 0 ; 0 0 3
c = 0.25

[group]
generators = 0 -1 0 ; 1 0 0 ; 0 0 1
max_order = 16

[checks]
names = symmetry isotropy

[run]
seed = 7
tol = 1e-10
theta_samples = 0.5 2.0
gradient_samples = 8
sample_count = 64
observers = 1 0 0 ; 0 1 0 ; 0 0 1 | 0 -1 0 ; 1 0 0 ; 0 0 1
""",
    ]
    for text in texts:
        cfg = fc.parse_config(text)
        assert fc.parse_config(cfg.to_config_text()) == cfg


def test_all_families_parse():
    fams = {
        "linear_constant": "kappa0 = 1 0 0 ; 0 2 0 ; 0 0 3",
        "linear_temperature": "kappa0 = 1 0 0 ; 0 1 0 ; 0 0 1\ntheta_coeffs = 0 1",
        "nonlinear_isotropic": "a = 1.0\nb = 0.5",
        "nonlinear_anisotropic": "a_tensor = 1 0 0 ; 0 1 0 ; 0 0 1\nc = 0.5",
    }
    for family, params in fams.items():
        cfg = fc.parse_config(f"[model]\nfamily = {family}\n{params}\n")
        assert cfg.model.family == family
        model = fc.build_model(cfg.model)
        assert model.family == family


def test_kappa_arity_error_names_the_key():
    bad = MINIMAL.replace("kappa0 = 1 0 0 ; 0 1 0 ; 0 0 1", "kappa0 = 1 0 0 ; 0 1 0 ; 0 0")
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(bad)
    assert "kappa0" in str(err.value)
    assert "8" in str(err.value)


def test_validation_errors_name_the_offender():
    cases = [
        ("[model]\nfamily = maxwell\nkappa0 = 1 0 0 ; 0 1 0 ; 0 0 1\n", "family"),
        (MINIMAL + "[shape]\nx = 1\n", "shape"),
        (MINIMAL + "[group]\nname = nope\n", "group.name"),
        (MINIMAL + "[group]\nname = z4\nmax_order = 3\n", "max_order"),
        (MINIMAL + "[group]\nname = z4\ngenerators = 1 0 0 ; 0 1 0 ; 0 0 1\n", "group"),
        (MINIMAL + "[checks]\nnames = symmetry bogus\n", "bogus"),
        (MINIMAL + "[checks]\nnames = symmetry symmetry\n", "duplicate"),
        (MINIMAL + "[checks]\nnames =\n", "at least one"),
        (MINIMAL + "[checks]\nsymmetry.sample_count = 9\n", "sample_count"),
        (MINIMAL + "[checks]\nsymmetry.volume = 9\n", "unknown key"),
        (MINIMAL + "[run]\ntol = 0\n", "tol"),
        (MINIMAL + "[run]\ntol = -1e-9\n", "tol"),
        (MINIMAL + "[run]\nseed = -3\n", "seed"),
        (MINIMAL + "[run]\nseed = 18446744073709551616\n", "seed"),
        (MINIMAL + "[run]\ntheta_samples = 1.0 0.0\n", "positive"),
        (MINIMAL + "[run]\ngradient_samples = 0\n", "gradient_samples"),
        (MINIMAL + "[run]\nobservers = 0\n", "observers"),
        (MINIMAL + "[run]\nvolume = 2\n", "unknown key"),
        ("[model]\nfamily = linear_constant\n", "kappa0"),
        ("[model]\nfamily = linear_constant\nkappa0 = 1 0 0 ; 0 1 0 ; 0 0 1\nc = 2\n", "not a parameter"),
        ("[run]\nseed = 0\n", "model"),
        (MINIMAL + "[DEFAULT]\nx = 1\n", "DEFAULT"),
    ]
    for text, needle in cases:
        with pytest.raises(fc.ValidationError) as err:
            fc.parse_config(text)
        assert needle in str(err.value), (text, str(err.value))


@pytest.mark.parametrize(
    "sections, message",
    [
        # a section's reading faults come before its value rules
        ("[checks]\nnames = bogus\nsymmetry.volume = 9\n", "checks.symmetry.volume: unknown key"),
        ("[run]\ntol = 0\nobservers = abc\n",
         "run.observers: could not parse 'abc' as an integer"),
        ("[run]\nsample_count = 0\nobservers = 1.5\n",
         "run.observers: could not parse '1.5' as an integer"),
        ("[group]\ngenerators = nan 0 0 0 1 0 0 0 1\nmax_order = x\n",
         "group.max_order: could not parse 'x' as an integer"),
        # and every section is read before SuiteConfig's rules
        ("[run]\nobservers = 0\n[checks]\nsymmetry.volume = 9\n",
         "checks.symmetry.volume: unknown key"),
        # the sections go model, group, run, checks, whatever the text's order
        ("[checks]\nsymmetry.volume = 9\n[run]\nvolume = 1\n[group]\nname = nope\n",
         "group.name: nope"),
        ("[checks]\nnames = bogus\n[run]\ntol = 0\n", "run.tol: must be positive and finite"),
        # [run] is judged before [checks] is read, and then SuiteConfig's
        # own rules go observers, then the checks
        ("[checks]\nnames = bogus\n[run]\nobservers = 0\nsample_count = 0\n",
         "run.sample_count: must be at least 1"),
        ("[checks]\nnames = bogus\n[run]\nobservers = 0\n", "run.observers: must be at least 1"),
    ],
)
def test_the_first_of_two_faults_is_reported_in_parse_configs_order(sections, message):
    """parse_config reads each section and then the type built from it judges
    the values, so the order its docstring states decides which of two
    faults is reported."""
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(MINIMAL + sections)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # [model] is only read: its numbers that do not parse, a scalar that
        # is not one number and a key of no family come before its rules
        ("[model]\nfamily = nope\nkappa0 = x\n", "model.kappa0: could not parse 'x' as numbers"),
        ("[model]\nfamily = nope\nfoo = 1\n", "model.foo: not a parameter of family nope"),
        ("[model]\nfamily = linear_constant\nc = 1 2\n", "model.c: expected 1 numbers, got 2"),
        # and its rules are SuiteConfig's first, after every section is read
        ("[model]\nfamily = nope\n[group]\nname = nope\n", "group.name: nope"),
        ("[model]\nfamily = linear_constant\nkappa0 = 1 2\n[run]\ntol = 0\n",
         "run.tol: must be positive and finite"),
        ("[model]\nfamily = linear_constant\n[checks]\nsymmetry.volume = 9\n",
         "checks.symmetry.volume: unknown key"),
        ("[model]\nfamily = linear_constant\n[checks]\nnames = bogus\n",
         "model.kappa0 is required for family linear_constant"),
    ],
)
def test_model_values_are_judged_once_by_suite_config(text, message, monkeypatch):
    """parse_config reads [model] as it reads the other sections, and
    SuiteConfig judges it, once per parse."""
    calls = []
    judge = fc.config._judge_model
    monkeypatch.setattr(fc.config, "_judge_model", lambda model: calls.append(model) or judge(model))
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(text)
    assert str(err.value) == message
    assert len(calls) == (1 if message.startswith("model.kappa0 is") else 0)
    before = len(calls)
    fc.parse_config(MINIMAL)
    assert len(calls) == before + 1


def test_non_orthogonal_matrices_rejected_at_loose_tolerance():
    bad = MINIMAL + "[run]\nobservers = 1 0.001 0 ; 0 1 0 ; 0 0 1\n"
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(bad)
    assert "orthogonal" in str(err.value)
    # a perturbation of 1e-7 fails too: observers are held to 1e-12, while a
    # rotation written out at full precision passes
    with pytest.raises(fc.ValidationError, match="within 1e-12$"):
        fc.parse_config(MINIMAL + "[run]\nobservers = 1 0.0000001 0 ; 0 1 0 ; 0 0 1\n")
    rotation = " ".join(repr(float(x)) for x in fc.rotation_about((1, 2, 3), 0.7).flat)
    cfg = fc.parse_config(MINIMAL + f"[run]\nobservers = {rotation}\n")
    assert len(cfg.observers) == 1
    assert len(fc.build_observers(cfg)) == 1


def test_non_orthogonal_generator_rejected():
    bad = MINIMAL + "[group]\ngenerators = 1 0.001 0 ; 0 1 0 ; 0 0 1\n"
    with pytest.raises(fc.ValidationError):
        fc.parse_config(bad)


def test_generators_are_held_to_the_closure_tolerance():
    """A quarter turn with 1e-7 added to one entry is not orthogonal within
    the 1e-9 that generate_closure holds a generator to, so as a generator
    it is a config error, not a group check that could not run.  As an
    observer it is a config error too, at the observers' 1e-12."""
    matrix = "1e-7 -1 0 ; 1 0 0 ; 0 0 1"
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(MINIMAL + f"[group]\ngenerators = {matrix}\n")
    assert str(err.value) == "group.generators: matrix is not orthogonal within 1e-09"
    with pytest.raises(ValueError, match="^generator 0 is not orthogonal within 1e-09$"):
        fc.generate_closure([np.array(matrix.replace(";", " ").split(), float)], max_order=4)
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(MINIMAL + f"[run]\nobservers = {matrix}\n")
    assert str(err.value) == "run.observers: matrix is not orthogonal within 1e-12"


def test_parse_errors_carry_line_information():
    with pytest.raises(fc.ParseError) as err:
        fc.parse_config("family = linear_constant\n")
    assert "line" in str(err.value)
    with pytest.raises(fc.ParseError) as err:
        fc.parse_config("[model]\nfamily = a\nfamily = b\n")
    assert "line" in str(err.value)
    with pytest.raises(fc.ParseError):
        fc.parse_config(b"\xff\xfe[model]")


def test_generator_config_builds_cyclic_group():
    text = MINIMAL + "[group]\ngenerators = 0 -1 0 ; 1 0 0 ; 0 0 1\n"
    cfg = fc.parse_config(text)
    group = fc.build_group(cfg.group)
    assert group.order == 4


def test_explicit_observer_matrices_build():
    text = MINIMAL + "[run]\nobservers = 0 -1 0 ; 1 0 0 ; 0 0 1 | -1 0 0 ; 0 -1 0 ; 0 0 -1\n"
    cfg = fc.parse_config(text)
    assert len(cfg.observers) == 2
    observers = fc.build_observers(cfg)
    assert np.array_equal(observers, [fc.ROT_Z_90, fc.INVERSION])


def test_multiline_matrix_values():
    text = "[model]\nfamily = linear_constant\nkappa0 = 1 0 0\n    0 1 0\n    0 0 1\n"
    cfg = fc.parse_config(text)
    assert cfg.model.kappa0 == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_check_subset_survives():
    cfg = fc.parse_config(MINIMAL + "[checks]\nnames = isotropy zero_map\n")
    assert cfg.checks == ("isotropy", "zero_map")
    assert fc.parse_config(cfg.to_config_text()) == cfg


def test_model_spec_fields_are_the_union_of_the_family_fields():
    from dataclasses import fields

    spec_fields = {f.name for f in fields(fc.ModelSpec)} - {"family"}
    model_fields = {f.name for cls in fc.MODEL_FAMILIES.values() for f in fields(cls)}
    assert spec_fields == model_fields


def test_model_spec_keeps_its_signature_order_defaults_and_equality():
    import inspect

    assert str(inspect.signature(fc.ModelSpec)) == (
        "(family: 'str', kappa0: 'tuple[float, ...] | None' = None, "
        "theta_coeffs: 'tuple[float, ...] | None' = None, a: 'float | None' = None, "
        "b: 'float | None' = None, a_tensor: 'tuple[float, ...] | None' = None, "
        "c: 'float | None' = None) -> None"
    )
    spec = fc.ModelSpec("nonlinear_isotropic", None, None, 1.0, 2.0)
    assert spec == fc.ModelSpec("nonlinear_isotropic", a=1.0, b=2.0)
    assert hash(spec) == hash(fc.ModelSpec("nonlinear_isotropic", a=1.0, b=2.0))
    assert spec != fc.ModelSpec("nonlinear_isotropic", a=1.0, b=3.0)
    with pytest.raises(AttributeError):
        spec.a = 3.0


def test_suite_defaults_are_the_check_defaults():
    cfg = fc.parse_config(MINIMAL)
    assert cfg.run == fc.CheckConfig()
    assert fc.SuiteConfig(cfg.model) == cfg
    assert cfg.run.sample_count == fc.DEFAULT_SAMPLE_COUNT
    generated = fc.parse_config(MINIMAL + "[group]\ngenerators = 1 0 0 0 1 0 0 0 1\n")
    assert generated.group.max_order == fc.GroupSpec().max_order


def test_run_parameters_are_validated_on_direct_construction():
    """The parameters every check shares are one CheckConfig field, which
    validates them however a SuiteConfig is made; each message begins with
    the field's name, which the CLI's --seed and --tol errors rely on."""
    assert [f.name for f in dataclasses.fields(fc.SuiteConfig)] == [
        "model", "group", "checks", "run", "observers"
    ]
    model = fc.parse_config(MINIMAL).model
    for bad in ({"tol": 0.0}, {"seed": -1}, {"theta_samples": ()}, {"gradient_samples": 0},
                {"sample_count": 0}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
            fc.SuiteConfig(model, run=fc.CheckConfig(**bad))


@pytest.mark.parametrize(
    "section, message",
    [
        ("[run]\ntol = 0\n", "run.tol: must be positive and finite"),
        ("[run]\ntol = -1e-9\n", "run.tol: must be positive and finite"),
        ("[run]\nseed = -3\n", "run.seed: must fit in an unsigned 64-bit integer"),
        ("[run]\nseed = 18446744073709551616\n",
         "run.seed: must fit in an unsigned 64-bit integer"),
        ("[run]\ntheta_samples =\n", "run.theta_samples: must not be empty"),
        ("[run]\ntheta_samples = 1.0 0.0\n",
         "run.theta_samples: must be positive finite temperatures"),
        ("[run]\ngradient_samples = 0\n", "run.gradient_samples: must be a positive integer"),
        ("[run]\nsample_count = 0\n", "run.sample_count: must be at least 1"),
        ("[run]\nsample_count = -2\n", "run.sample_count: must be at least 1"),
        # inf and NaN are CheckConfig's to judge too, not the number reader's
        ("[run]\ntol = inf\n", "run.tol: must be positive and finite"),
        ("[run]\ntol = nan\n", "run.tol: must be positive and finite"),
        ("[run]\ntheta_samples = 1.0 inf\n",
         "run.theta_samples: must be positive finite temperatures"),
        ("[run]\ntheta_samples = nan\n",
         "run.theta_samples: must be positive finite temperatures"),
        # a tol is still one number
        ("[run]\ntol = inf 1\n", "run.tol: expected 1 numbers, got 2"),
    ],
)
def test_run_parameter_rules_are_the_check_configs(section, message):
    """parse_config reads the numbers and CheckConfig judges them; each
    message is the key, then CheckConfig's rule."""
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(MINIMAL + section)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["gradient_samples", "sample_count"])
def test_check_config_counts_are_ints_of_at_least_one(name):
    """Both counts follow one rule: an int of at least 1, numpy's integers
    included, kept as an int.  A float, a bool or a string is a TypeError
    naming the field, where 2.5 used to become 2, True 1 and "3" 3; below 1
    is a ValueError with parse_config's rule."""
    for value in (2.5, 3.0, np.float64(3.0), True, "3", None):
        with pytest.raises(TypeError) as err:
            fc.CheckConfig(**{name: value})
        assert str(err.value) == f"{name} must be an integer", value
    rule = {"gradient_samples": "a positive integer", "sample_count": "at least 1"}[name]
    for value in (0, -1, np.int64(0)):
        with pytest.raises(ValueError) as err:
            fc.CheckConfig(**{name: value})
        assert str(err.value) == f"{name} must be {rule}", value
    for value in (1, 7, np.int32(7), np.uint64(7)):
        count = getattr(fc.CheckConfig(**{name: value}), name)
        assert count == value and type(count) is int


def test_check_config_tol_is_a_number():
    """A tol in any other form is a TypeError naming the field, not numpy's
    ufunc error; numpy's numbers are numbers."""
    for value in ("1e-9", True, None, (1e-9,)):
        with pytest.raises(TypeError) as err:
            fc.CheckConfig(tol=value)
        assert str(err.value) == "tol must be a number", value
    for value in (1, 1e-9, np.float32(1e-6), np.int64(2)):
        assert fc.CheckConfig(tol=value).tol == value


@pytest.mark.parametrize("value", ["12", (True,), 300.0, ["a"]])
def test_check_config_theta_samples_are_numbers(value):
    """theta_samples is a sequence of numbers, no str and no bool: "12" used
    to become (1.0, 2.0) and (True,) (1.0,), while 300.0 and ["a"] raised
    errors that did not name the field."""
    with pytest.raises(TypeError) as err:
        fc.CheckConfig(theta_samples=value)
    assert str(err.value) == "theta_samples must be a sequence of numbers"


def test_check_config_theta_samples_of_numbers_are_floats():
    """A list, a numpy array and numpy's numbers are sequences of numbers,
    kept as a tuple of floats."""
    for value in ([300, 0.5], np.array([300.0, 0.5]), (np.int64(300), np.float32(0.5))):
        thetas = fc.CheckConfig(theta_samples=value).theta_samples
        assert thetas == (300.0, 0.5) and all(type(t) is float for t in thetas), value


def test_each_config_choice_is_one_field():
    """A group is a catalog name or generators, and the observers are a count
    or matrices: one field each, so no value holds both."""
    assert [f.name for f in dataclasses.fields(fc.GroupSpec)] == ["source", "max_order"]
    rz90, inversion = tuple(fc.ROT_Z_90.flat), tuple(fc.INVERSION.flat)
    model = fc.parse_config(MINIMAL).model
    cfg = fc.SuiteConfig(model, group=fc.GroupSpec((rz90,)), observers=(rz90, inversion))
    assert fc.build_group(cfg.group).order == 4
    assert fc.build_observers(cfg).tolist() == [fc.ROT_Z_90.tolist(), fc.INVERSION.tolist()]
    assert fc.parse_config(cfg.to_config_text()) == cfg
    counted = fc.SuiteConfig(model, group=fc.GroupSpec("z4"), observers=5)
    assert fc.build_group(counted.group).order == 4
    assert len(fc.build_observers(counted)) == 5
    assert fc.parse_config(counted.to_config_text()) == counted


def test_group_names_are_validated_without_building_the_group(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("parse_config built a group")

    monkeypatch.setattr(fc.groups, "generate_closure", no_closure)
    for name in ("transverse_z_192", "cubic_rotations", "z4", "full_orthogonal", "trivial"):
        cfg = fc.parse_config(MINIMAL + f"[group]\nname = {name}\n")
        assert cfg.group == fc.GroupSpec(name)
    # the messages are the ones catalog_lookup raises
    for name, message in (
        ("nope", "group.name: nope"),
        ("transverse_z_0", "group.name: transverse order must be >= 1, got 'transverse_z_0'"),
    ):
        with pytest.raises(fc.ValidationError) as err:
            fc.parse_config(MINIMAL + f"[group]\nname = {name}\n")
        assert str(err.value) == message


def _rejected_alike(build, section, message):
    """build() and parse_config of MINIMAL plus ``section`` each raise a
    ValidationError with ``message``: one message per rule, in code as in a
    file."""
    with pytest.raises(fc.ValidationError) as err:
        build()
    assert str(err.value) == message
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(MINIMAL + section)
    assert str(err.value) == message


def test_suite_config_validates_its_observers():
    """A count of observers is at least 1, and observer matrices are finite
    9-number tuples orthogonal within 1e-12, when a SuiteConfig is built, not
    deep in a run, with the message parse_config gives."""
    model = fc.parse_config(MINIMAL).model
    skewed = (1e-8, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    for kwargs, line, message in (
        ({"observers": 0}, "observers = 0", "run.observers: must be at least 1"),
        ({"observers": -3}, "observers = -3", "run.observers: must be at least 1"),
        ({"observers": ()}, "observers =", "run.observers: expected 9 numbers, got 0"),
        ({"observers": (skewed[:8],)}, "observers = 1e-8 -1 0 1 0 0 0 0",
         "run.observers: expected 9 numbers, got 8"),
        ({"observers": ((float("nan"),) + skewed[1:],)}, "observers = nan -1 0 1 0 0 0 0 1",
         "run.observers: values must be finite"),
        ({"observers": (skewed,)}, "observers = 1e-8 -1 0 ; 1 0 0 ; 0 0 1",
         "run.observers: matrix is not orthogonal within 1e-12"),
    ):
        _rejected_alike(lambda: fc.SuiteConfig(model, **kwargs), f"[run]\n{line}\n", message)


IDENTITY9 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
# (family, parameters, the message of the rule they break)
BAD_MODELS = {
    "unknown_family": ("nope", {}, "model.family: unknown family 'nope' (known: "
                       + ", ".join(sorted(fc.MODEL_FAMILIES)) + ")"),
    "foreign_parameter": ("linear_constant", {"kappa0": IDENTITY9, "a": 1.0},
                          "model.a: not a parameter of family linear_constant"),
    "missing_parameter": ("linear_constant", {},
                          "model.kappa0 is required for family linear_constant"),
    "tensor_count": ("linear_constant", {"kappa0": (1.0, 2.0)},
                     "model.kappa0: expected 9 numbers, got 2"),
    "no_coefficients": ("linear_temperature", {"kappa0": IDENTITY9, "theta_coeffs": ()},
                        "model.theta_coeffs: at least one coefficient required"),
    "tensor_not_finite": ("linear_constant", {"kappa0": (float("inf"),) + IDENTITY9[1:]},
                          "model.kappa0: values must be finite"),
    "scalar_not_finite": ("nonlinear_anisotropic", {"a_tensor": IDENTITY9, "c": float("nan")},
                          "model.c: values must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_suite_config_validates_its_model(case):
    """A SuiteConfig built in code holds its model to parse_config's rules
    when it is built, with parse_config's message for the same values as
    text.  Before, a model of the wrong size raised numpy's reshape error
    deep in run_suite, an unknown family a KeyError, and a foreign parameter
    ran and was dropped from the config text, which then did not parse back
    to the config."""
    family, params, message = BAD_MODELS[case]
    with pytest.raises(ValueError) as err:
        fc.SuiteConfig(fc.ModelSpec(family, **params))
    assert str(err.value) == message
    lines = [f"family = {family}"]
    for key, value in params.items():
        numbers = value if isinstance(value, tuple) else (value,)
        lines.append(f"{key} = {' '.join(map(str, numbers))}")
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config("[model]\n" + "\n".join(lines) + "\n")
    assert str(err.value) == message


def test_suite_config_takes_each_model_parameter_in_its_written_form():
    """A tensor or coefficient list is a tuple of numbers and a scalar a
    number, as to_config_text writes them: anything else is a TypeError
    naming the key, not a config that fails to write or parse back."""
    for family, params, message in (
        ("linear_constant", {"kappa0": list(IDENTITY9)},
         "model.kappa0: expected a tuple of numbers"),
        ("linear_constant", {"kappa0": np.eye(3)}, "model.kappa0: expected a tuple of numbers"),
        ("linear_constant", {"kappa0": ("1",) * 9}, "model.kappa0: expected numbers"),
        ("linear_temperature", {"kappa0": IDENTITY9, "theta_coeffs": 2.0},
         "model.theta_coeffs: expected a tuple of numbers"),
        ("nonlinear_isotropic", {"a": (1.0,), "b": 1.0}, "model.a: expected a number"),
        # bool is not a number, where True used to be kept as 1
        ("linear_constant", {"kappa0": (True, 0.0, 0.0, 0.0, True, 0.0, 0.0, 0.0, True)},
         "model.kappa0: expected numbers"),
        ("nonlinear_isotropic", {"a": True, "b": 0.0}, "model.a: expected numbers"),
    ):
        with pytest.raises(TypeError) as err:
            fc.SuiteConfig(fc.ModelSpec(family, **params))
        assert str(err.value) == message


FLOAT_TUPLES = st.lists(st.floats()).map(tuple)
# each parameter absent or in its written form: a number or a tuple of them,
# in ModelSpec's field order
MODEL_VALUES = {
    f.name: st.none() | (st.floats() if f.type == "float | None" else FLOAT_TUPLES)
    for f in dataclasses.fields(fc.ModelSpec)[1:]
}


@given(
    family=st.sampled_from(sorted(fc.MODEL_FAMILIES) + ["nope"]),
    params=st.fixed_dictionaries(MODEL_VALUES),
)
def test_every_model_a_suite_config_accepts_round_trips(family, params):
    """A model that SuiteConfig accepts is the one its config text parses
    back to; one it rejects, parse_config rejects with the same message,
    given the same values in ModelSpec's field order."""
    spec = fc.ModelSpec(family, **params)
    try:
        cfg = fc.SuiteConfig(spec)
    except ValueError as exc:
        lines = [f"family = {family}"]
        for key in MODEL_VALUES:
            value = params[key]
            if value is None:
                continue
            numbers = value if isinstance(value, tuple) else (value,)
            lines.append(f"{key} = {' '.join(map(repr, numbers))}")
        with pytest.raises(fc.ValidationError) as err:
            fc.parse_config("[model]\n" + "\n".join(lines) + "\n")
        assert str(err.value) == str(exc)
        return
    assert fc.parse_config(cfg.to_config_text()) == cfg


def test_suite_config_validates_its_checks():
    """A SuiteConfig built in code names at least one check, each known and
    none twice, when it is built, with the message parse_config gives;
    run_suite used to pass a suite of no checks and raise from deep inside
    the run on the others."""
    model = fc.parse_config(MINIMAL).model
    for checks, section, message in (
        ((), "names =", "checks.names: at least one check required"),
        (("nope",), "names = nope",
         "checks.names: unknown check 'nope' (known: " + ", ".join(fc.CHECK_NAMES) + ")"),
        (("symmetry", "symmetry"), "names = symmetry symmetry",
         "checks.names: duplicate check names"),
    ):
        _rejected_alike(lambda: fc.SuiteConfig(model, checks=checks), f"[checks]\n{section}\n",
                        message)


@given(names=st.lists(st.sampled_from(fc.CHECK_NAMES + ("nope",)), max_size=6).map(tuple))
def test_every_check_list_round_trips_through_its_config_text(names):
    """Every tuple of check names a SuiteConfig accepts is the one its config
    text parses back to, and one it rejects breaks a rule parse_config
    holds."""
    model = fc.parse_config(MINIMAL).model
    try:
        cfg = fc.SuiteConfig(model, checks=names)
    except ValueError:
        assert not names or len(set(names)) != len(names) or "nope" in names
        return
    assert fc.parse_config(cfg.to_config_text()) == cfg


def test_group_spec_rejects_a_max_order_that_means_nothing():
    """A closure cap is at least 1, and a catalog name takes none: the
    default it is given is the only value, which to_config_text can drop.
    Each rule has parse_config's message."""
    rz90 = tuple(fc.ROT_Z_90.flat)
    for source, max_order, section, message in (
        ("z4", 5, "name = z4\nmax_order = 5", "group.max_order: only valid with generators"),
        ("trivial", 0, "name = trivial\nmax_order = 0",
         "group.max_order: only valid with generators"),
        ((rz90,), 0, "generators = 0 -1 0 1 0 0 0 0 1\nmax_order = 0",
         "group.max_order: must be at least 1"),
    ):
        _rejected_alike(lambda: fc.GroupSpec(source, max_order), f"[group]\n{section}\n",
                        message)
    assert fc.GroupSpec("z4", fc.GroupSpec().max_order) == fc.GroupSpec("z4")
    assert fc.GroupSpec((rz90,), 1).max_order == 1


def test_group_spec_validates_its_source():
    """A GroupSpec built in code holds its name and generators to the rules
    parse_config holds [group] to, with its message, when it is built: a name
    resolves, without building the group, and generators are at least one
    matrix of 9 finite numbers, orthogonal within the closure's 1e-9.  Before,
    each of these built and gave a could-not-run group check or, for the
    empty tuple, a silent trivial group."""
    off = "1e-7 -1 0 1 0 0 0 0 1"
    for source, section, message in (
        ("nope", "name = nope", "group.name: nope"),
        ("transverse_z_0", "name = transverse_z_0",
         "group.name: transverse order must be >= 1, got 'transverse_z_0'"),
        ((), "generators =", "group.generators: expected 9 numbers, got 0"),
        (((1.0,) * 8,), "generators = 1 1 1 1 1 1 1 1",
         "group.generators: expected 9 numbers, got 8"),
        (((float("nan"),) + (0.0,) * 8,), "generators = nan 0 0 0 0 0 0 0 0",
         "group.generators: values must be finite"),
        ((tuple(map(float, off.split())),), f"generators = {off}",
         "group.generators: matrix is not orthogonal within 1e-09"),
    ):
        _rejected_alike(lambda: fc.GroupSpec(source), f"[group]\n{section}\n", message)


def test_config_values_in_the_wrong_form_are_type_errors_naming_the_key():
    """A value built in code takes the form to_config_text writes: a tuple of
    9-number tuples for matrices, an int for a count.  A list, a float or a
    bool is a TypeError naming the key, where it used to build and crash
    run_suite, or build a config whose text does not parse back to it."""
    model = fc.parse_config(MINIMAL).model
    rz90 = tuple(fc.ROT_Z_90.flat)
    matrices = "expected a tuple of 9-number tuples"
    observers = "run.observers: expected an integer or a tuple of 9-number tuples"
    for build, message in (
        (lambda: fc.GroupSpec([rz90]), f"group.generators: {matrices}"),
        (lambda: fc.GroupSpec((list(rz90),)), f"group.generators: {matrices}"),
        (lambda: fc.GroupSpec((("1",) * 9,)), "group.generators: expected numbers"),
        (lambda: fc.GroupSpec((rz90,), 8.5), "group.max_order: expected an integer"),
        (lambda: fc.GroupSpec((rz90,), True), "group.max_order: expected an integer"),
        (lambda: fc.GroupSpec("z4", 192.0), "group.max_order: expected an integer"),
        (lambda: fc.SuiteConfig(model, observers=5.0), observers),
        (lambda: fc.SuiteConfig(model, observers=True), observers),
        (lambda: fc.SuiteConfig(model, observers=[rz90]), observers),
        (lambda: fc.SuiteConfig(model, observers=((None,) * 9,)),
         "run.observers: expected numbers"),
        (lambda: fc.SuiteConfig(model, checks=["symmetry"]),
         "checks: expected a tuple of check names"),
        (lambda: fc.SuiteConfig(model, checks="symmetry"),
         "checks: expected a tuple of check names"),
        (lambda: fc.SuiteConfig(model, checks=(fc.CHECK_NAMES,)),
         "checks: expected a tuple of check names"),
    ):
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == message
    # numpy's integers are integers
    counted = fc.SuiteConfig(model, run=fc.CheckConfig(sample_count=np.int32(64)),
                             observers=np.int64(5))
    assert fc.parse_config(counted.to_config_text()) == counted


CATALOG_NAMES = ("trivial", "z4", "orthotropic", "cubic_rotations", "full_orthogonal",
                 "transverse_z_1", "transverse_z_7", "transverse_z_192")
ROTATIONS = st.builds(
    lambda axis, angle: tuple(float(x) for x in fc.rotation_about(axis, angle).flat),
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
    st.floats(-7.0, 7.0),
)


# a generator or observer matrix that breaks a rule: 8 numbers, 1e-7 off
# orthogonal, a NaN entry; no ROTATIONS draw breaks one
BAD = [
    (1.0,) * 8,
    (1e-7, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    (float("nan"),) + IDENTITY9[1:],
]
GOOD_MATRICES = st.lists(ROTATIONS, min_size=1, max_size=3).map(tuple)
MATRICES = st.lists(ROTATIONS | st.sampled_from(BAD), max_size=3)
# check lists that break no rule, drawn on their own so that a rule that
# rejects a valid list shows
GOOD_NAMES = st.lists(st.sampled_from(fc.CHECK_NAMES), min_size=1, max_size=5, unique=True)
NAMES = st.lists(st.sampled_from(fc.CHECK_NAMES + ("nope",)), max_size=6)


def _matrices_text(matrices):
    """Matrices as to_config_text writes them, with ';' between rows."""
    return " | ".join(
        " ; ".join(" ".join(map(repr, m[i : i + 3])) for i in (0, 3, 6)) for m in matrices
    )


def _bad_matrices(matrices):
    """No matrix, or one drawn from BAD (the NaN one is found by identity:
    sampled_from hands out BAD's own tuples)."""
    return not matrices or any(m in BAD for m in matrices)


def _built_or_rejected_alike(build, section, wrong_form, rejected):
    """build() raises exactly when the drawn values break a rule
    (``rejected``) or are in the wrong form, and otherwise makes a config
    that its config text parses back to.  A broken rule raises the
    ValidationError parse_config raises for MINIMAL plus ``section``, the
    same values as text; a value in the wrong form, and only that, may be a
    TypeError naming the key instead."""
    try:
        built = build()
    except TypeError as exc:
        assert wrong_form, exc
        # CheckConfig's messages begin with the field's own name
        assert re.match(r"(group|run|checks)[.:]|sample_count ", str(exc)), exc
        return
    except ValueError as exc:
        assert isinstance(exc, fc.ValidationError), exc
        assert rejected, exc
        if not wrong_form:
            with pytest.raises(fc.ValidationError) as err:
                fc.parse_config(MINIMAL + section)
            assert str(err.value) == str(exc)
        return
    assert not (wrong_form or rejected)
    model = fc.parse_config(MINIMAL).model
    cfg = built if isinstance(built, fc.SuiteConfig) else fc.SuiteConfig(model, group=built)
    assert fc.parse_config(cfg.to_config_text()) == cfg


@given(
    source=st.one_of(
        st.sampled_from(CATALOG_NAMES + ("nope", "transverse_z_0")),
        GOOD_MATRICES,
        MATRICES.map(tuple),
        MATRICES,
    ),
    max_order=st.integers(-2, 400) | st.sampled_from([8.5, True, 192.0]),
)
def test_every_group_spec_round_trips_through_its_config_text(source, max_order):
    """Every GroupSpec of a catalog name or of orthogonal generators, with a
    cap of at least 1 that a name takes only at its default, builds and is
    the one its config text parses back to.  Any other is rejected with
    parse_config's message for the same values as text.  A list of
    generators, or a max_order that is not an int, is the wrong form: it
    never builds."""
    if isinstance(source, str):
        # a name's default cap is not written, as to_config_text does not
        cap = f"max_order = {max_order}\n" if max_order != 192 else ""
        section = f"[group]\nname = {source}\n{cap}"
        rejected = source in ("nope", "transverse_z_0") or max_order != 192
    else:
        section = f"[group]\ngenerators = {_matrices_text(source)}\nmax_order = {max_order}\n"
        rejected = _bad_matrices(source)
    rejected = rejected or max_order < 1
    wrong_form = isinstance(source, list) or type(max_order) is not int
    _built_or_rejected_alike(
        lambda: fc.GroupSpec(source, max_order), section, wrong_form, rejected
    )


def _suite_built_or_rejected_alike(observers, sample_count, checks):
    """A SuiteConfig with counts of at least 1, orthogonal observer matrices
    and a check list that breaks no rule builds and is the one its config
    text parses back to.  Any other is rejected with parse_config's message
    for the same values as text: its run's CheckConfig is built as
    parse_config builds it (config._check_config), so a rule it breaks gives
    that message.  A count that is not an int, or a list of observer
    matrices or of check names, is the wrong form: it never builds."""
    obs = _matrices_text(observers) if isinstance(observers, (tuple, list)) else observers
    section = (
        f"[checks]\nnames = {' '.join(checks)}\n"
        f"[run]\nsample_count = {sample_count}\nobservers = {obs}\n"
    )
    wrong_form = (
        not (type(observers) is int or isinstance(observers, tuple))
        or type(sample_count) is not int
        or not isinstance(checks, tuple)
    )
    rejected = (
        sample_count < 1
        or (_bad_matrices(observers) if isinstance(observers, (tuple, list)) else observers < 1)
        or not checks
        or len(set(checks)) != len(checks)
        or "nope" in checks
    )
    model = fc.parse_config(MINIMAL).model
    _built_or_rejected_alike(
        lambda: fc.SuiteConfig(
            model, checks=checks, run=fc.config._check_config({"sample_count": sample_count}),
            observers=observers,
        ),
        section, wrong_form, rejected,
    )


@given(
    observers=st.one_of(
        st.integers(-2, 30), GOOD_MATRICES, MATRICES.map(tuple), MATRICES,
        st.sampled_from([5.0, True]),
    ),
    sample_count=st.integers(-2, 300) | st.just(64.0),
    checks=GOOD_NAMES.map(tuple) | NAMES.map(tuple) | NAMES,
)
def test_every_suite_config_round_trips_through_its_config_text(observers, sample_count, checks):
    """Every SuiteConfig that can be built is the one its config text parses
    back to, and exactly the values that break a rule or are in the wrong
    form are rejected, a broken rule with parse_config's message."""
    _suite_built_or_rejected_alike(observers, sample_count, checks)


@given(
    observers=st.integers(1, 400) | GOOD_MATRICES,
    sample_count=st.integers(1, 400),
    checks=GOOD_NAMES.map(tuple),
)
def test_every_suite_config_of_valid_values_builds(observers, sample_count, checks):
    """Values that break no rule, drawn on their own so that a rule rejecting
    any of them shows: each SuiteConfig builds and round-trips."""
    _suite_built_or_rejected_alike(observers, sample_count, checks)


def test_every_ini_block_in_the_readme_parses():
    """A user copies the README's configs: each ```ini block is one that
    parse_config takes, comments included."""
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        fc.parse_config(block)
