import importlib
import pkgutil

import pytest

import monopann

MODULES = sorted(info.name for info in pkgutil.iter_modules(monopann.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"monopann.{name}")
    exports = getattr(module, "__all__", [])
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(set(exports)) == len(exports)
