import types

import framecheck as fc


def test_all_names_resolve_and_list_no_submodules():
    assert len(fc.__all__) == len(set(fc.__all__))
    for name in fc.__all__:
        value = getattr(fc, name)
        assert not isinstance(value, types.ModuleType), name
    assert "__version__" in fc.__all__
    for module in ("checks", "config", "groups", "models", "report", "tensors", "cli"):
        assert module not in fc.__all__
