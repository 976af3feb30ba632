"""The package's public surface: the union of its modules' declarations."""

from __future__ import annotations

import importlib

import relmean


def test_package_exports_the_modules_lists():
    names = ("psi", "estimator", "sources", "harness", "counting")
    modules = [importlib.import_module(f"relmean.{name}") for name in names]
    assert relmean.__all__ == ["__version__"] + [name for module in modules for name in module.__all__]
    assert all(getattr(relmean, name) is getattr(module, name) for module in modules for name in module.__all__)
    # `from .psi import *` rebinds relmean.psi; it must stay the function
    assert relmean.psi is modules[0].psi and callable(relmean.psi)
