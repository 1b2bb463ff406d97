"""The package's export list matches what ``ckdv/__init__.py`` imports."""

import types

import ckdv


def test_all_names_every_public_export_once():
    bound = {
        name
        for name, value in vars(ckdv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(ckdv.__all__) == len(set(ckdv.__all__))
    assert set(ckdv.__all__) - {"__version__"} == bound
