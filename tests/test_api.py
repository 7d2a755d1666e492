"""The package's public names."""

import types

import crfactor


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(crfactor.__all__)) == len(crfactor.__all__)
    for name in crfactor.__all__:
        assert not isinstance(getattr(crfactor, name), types.ModuleType), name
    public = {n for n in dir(crfactor) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(crfactor, n), types.ModuleType)}
    assert set(crfactor.__all__) == public - modules
