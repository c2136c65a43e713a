"""Every name a ``repro`` module exports in ``__all__`` must resolve.

A deletion that leaves a stale export behind fails here instead of at
import time for a user.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == []


def test_every_subpackage_is_checked():
    packages = [info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg]
    assert packages and all(f"repro.{p}" in MODULES for p in packages)
