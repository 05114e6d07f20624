"""The public surface: every name a module exports resolves."""

import importlib
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
