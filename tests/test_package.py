import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_names_are_public_functions():
    # bench/run.py wraps these layer functions by name and the microbench
    # calls init_adam; deleting or renaming one breaks the benchmark
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    public = set(run.public_functions(run._import_package()))
    names = [f"{layer}.{fn}" for layer, fns in run.TIMED_SPANS.items() for fn in fns]
    assert [n for n in names + ["calibration.init_adam"] if n not in public] == []
