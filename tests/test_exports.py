"""The public surface: every name a module exports resolves."""

import importlib
import importlib.util
import pathlib
import pkgutil

import guesslab


def test_every_exported_name_resolves():
    modules = [guesslab] + [
        importlib.import_module(f"guesslab.{info.name}") for info in pkgutil.iter_modules(guesslab.__path__)
    ]
    exported = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    assert len(exported) > 100
    missing = [f"{module.__name__}.{name}" for module, name in exported if not hasattr(module, name)]
    assert not missing, f"stale exports: {missing}"


def test_every_function_the_benchmark_traces_resolves():
    # the benchmark's tracer wraps guesslab functions by name, so a rename shows here first
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, targets in spans.LAYERS.items():
        for module_name, attr_path in targets:
            owner = importlib.import_module(module_name)
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                found = attr in vars(getattr(owner, cls_name, object))
            else:
                found = callable(getattr(owner, attr_path, None))
            if not found:
                missing.append(f"{layer}: {module_name}.{attr_path}")
    assert not missing, f"traced functions gone: {missing}"
    wrapped = {attr_path for targets in spans.LAYERS.values() for _, attr_path in targets}
    assert set(spans.COUNTERS) <= wrapped, f"counters on no traced function: {set(spans.COUNTERS) - wrapped}"
