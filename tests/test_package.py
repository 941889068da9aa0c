import importlib
import pkgutil

import numpy as np
import pytest

import monopann

MODULES = sorted(info.name for info in pkgutil.iter_modules(monopann.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"monopann.{name}")
    exports = getattr(module, "__all__", [])
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(set(exports)) == len(exports)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_array_above_fourth_order(name):
    module = importlib.import_module(f"monopann.{name}")
    assert {k: v.shape for k, v in vars(module).items()
            if isinstance(v, np.ndarray) and v.ndim > 4} == {}
