"""The package root exports."""

import types

import psifoc


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(psifoc.__all__)) == len(psifoc.__all__)
    for name in psifoc.__all__:
        assert not isinstance(getattr(psifoc, name), types.ModuleType), name
