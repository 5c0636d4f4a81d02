"""Every name a fedbft module exports must exist."""
import importlib
import pkgutil

import pytest

import fedbft

MODULES = ["fedbft"] + sorted(
    m.name for m in pkgutil.iter_modules(fedbft.__path__, "fedbft."))


def test_every_module_is_listed():
    assert {"fedbft.cli", "fedbft.domain", "fedbft.sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
