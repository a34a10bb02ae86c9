"""The package's public surface."""

import types

import orthoglide


def test_all_lists_exactly_the_public_names():
    names = orthoglide.__all__
    assert names == sorted(set(names))
    public = {
        name
        for name, value in vars(orthoglide).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
