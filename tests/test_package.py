import ast
import importlib
import importlib.util
import inspect
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


BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def harness_attributes(layers) -> set:
    """``(layer, attr)`` of every attribute that bench/run.py reads off a
    layer module, as ``pkg["layer"].attr`` or as ``alias.attr`` after
    ``alias = pkg["layer"]``, from its source."""
    tree = ast.parse(BENCH_RUN.read_text())

    def layer_of(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and node.slice.value in layers):
            return node.slice.value
        return None

    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name) and layer_of(value):
                    aliases[name.id] = layer_of(value)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            layer = layer_of(value) or (isinstance(value, ast.Name) and aliases.get(value.id))
            if layer:
                reads.add((layer, node.attr))
    return reads


def test_benchmark_names_are_public_functions():
    # bench/run.py traces these layer functions by name, the microbench calls
    # init_adam, and its metrics read the spans of the named constants; it
    # also reads attributes off the layer modules directly (classes among
    # them).  Deleting or renaming any of them breaks the benchmark
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    modules = run._import_package()
    public = set(run.public_functions(modules))
    names = [f"{layer}.{fn}" for layer, fns in run.TIMED_SPANS.items() for fn in fns]
    names += [*run.WRITE_SPANS, *run.LOAD_SPANS, run.CALIBRATE, run.SCAN, run.VJP,
              "calibration.init_adam"]

    def is_public_function(name):
        # public_functions counts the CLI writers whether they exist or not
        layer, attr = name.split(".")
        return name in public and inspect.isfunction(getattr(modules[layer], attr, None))

    assert [n for n in names if not is_public_function(n)] == []
    reads = harness_attributes(run.LAYERS)
    assert {("calibration", "split_by_parameter"), ("networks", "build_model"),
            ("cli", "main")} <= reads
    assert sorted(f"{layer}.{attr}" for layer, attr in reads
                  if not hasattr(modules[layer], attr)) == []
