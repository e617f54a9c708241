"""Every exported name resolves.

Only ``from hyperblock... import *`` reads the ``__all__`` lists, so a name
left there after its definition is deleted fails nowhere else.
"""

import importlib
import pkgutil

import pytest

import hyperblock

MODULES = ["hyperblock"] + [
    f"hyperblock.{info.name}" for info in pkgutil.iter_modules(hyperblock.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
