import numpy as np
import pytest

import framecheck as fc

MINIMAL = """\
[model]
family = linear_constant
kappa0 = 1 0 0 ; 0 1 0 ; 0 0 1
"""


def test_minimal_config_resolves_defaults():
    cfg = fc.parse_config(MINIMAL)
    assert cfg.model.family == "linear_constant"
    assert cfg.model.kappa0 == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert cfg.group == fc.GroupSpec(name="trivial")
    assert tuple(c.name for c in cfg.checks) == fc.CHECK_NAMES
    assert cfg.tol == 1e-9
    assert cfg.seed == 0
    assert cfg.theta_samples == (0.5, 1.0, 300.0)
    assert cfg.gradient_samples == 32
    assert cfg.sample_count == 256
    assert cfg.observer_count == 100
    assert cfg.observer_matrices is None


def test_parse_accepts_bytes():
    assert fc.parse_config(MINIMAL.encode()) == fc.parse_config(MINIMAL)


def test_round_trip_through_canonical_text():
    texts = [
        MINIMAL,
        open("configs/isotropic.ini").read(),
        open("configs/anisotropic.ini").read(),
        # generators, explicit observers, per-check overrides
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
symmetry.tol = 1e-8
isotropy.sample_count = 32

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
        (MINIMAL + "[checks]\nnames = zero_map\nsymmetry.tol = 1e-8\n", "not selected"),
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


def test_non_orthogonal_matrices_rejected_at_loose_tolerance():
    bad = MINIMAL + "[run]\nobservers = 1 0.001 0 ; 0 1 0 ; 0 0 1\n"
    with pytest.raises(fc.ValidationError) as err:
        fc.parse_config(bad)
    assert "orthogonal" in str(err.value)
    # small perturbations below 1e-6 pass config validation
    ok = MINIMAL + "[run]\nobservers = 1 0.0000001 0 ; 0 1 0 ; 0 0 1\n"
    cfg = fc.parse_config(ok)
    assert cfg.observer_count == 1
    assert len(fc.build_observers(cfg)) == 1


def test_non_orthogonal_generator_rejected():
    bad = MINIMAL + "[group]\ngenerators = 1 0.001 0 ; 0 1 0 ; 0 0 1\n"
    with pytest.raises(fc.ValidationError):
        fc.parse_config(bad)


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
    group = fc.build_group(cfg.group, cfg.sample_count)
    assert group.order == 4


def test_explicit_observer_matrices_build():
    text = MINIMAL + "[run]\nobservers = 0 -1 0 ; 1 0 0 ; 0 0 1 | -1 0 0 ; 0 -1 0 ; 0 0 -1\n"
    cfg = fc.parse_config(text)
    assert cfg.observer_count == 2
    observers = fc.build_observers(cfg)
    assert np.array_equal(observers[0].q_matrix, fc.ROT_Z_90)
    assert np.array_equal(observers[1].q_matrix, fc.INVERSION)


def test_multiline_matrix_values():
    text = "[model]\nfamily = linear_constant\nkappa0 = 1 0 0\n    0 1 0\n    0 0 1\n"
    cfg = fc.parse_config(text)
    assert cfg.model.kappa0 == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_check_subset_and_overrides_survive():
    text = MINIMAL + "[checks]\nnames = isotropy zero_map\nisotropy.tol = 1e-7\n"
    cfg = fc.parse_config(text)
    assert tuple(c.name for c in cfg.checks) == ("isotropy", "zero_map")
    assert cfg.checks[0].tol == 1e-7
    assert cfg.checks[1].tol is None


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
    check = fc.CheckConfig()
    assert (cfg.seed, cfg.tol, cfg.theta_samples, cfg.gradient_samples) == (
        check.seed,
        check.tol,
        check.theta_samples,
        check.gradient_samples,
    )
    assert cfg.sample_count == fc.catalog_lookup("full_orthogonal").sample_count
    generated = fc.parse_config(MINIMAL + "[group]\ngenerators = 1 0 0 0 1 0 0 0 1\n")
    assert generated.group.max_order == fc.GroupSpec().max_order


def test_group_names_are_validated_without_building_the_group(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("parse_config built a group")

    monkeypatch.setattr(fc.groups, "generate_closure", no_closure)
    for name in ("transverse_z_192", "cubic_rotations", "z4", "full_orthogonal", "trivial"):
        cfg = fc.parse_config(MINIMAL + f"[group]\nname = {name}\n")
        assert cfg.group == fc.GroupSpec(name=name)
    # the messages are the ones catalog_lookup raises
    for name, message in (
        ("nope", "group.name: nope"),
        ("transverse_z_0", "group.name: transverse order must be >= 1, got 'transverse_z_0'"),
    ):
        with pytest.raises(fc.ValidationError) as err:
            fc.parse_config(MINIMAL + f"[group]\nname = {name}\n")
        assert str(err.value) == message
