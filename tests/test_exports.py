"""Every name a ``repro`` module lists in ``__all__`` resolves.

A function deleted from a module but left in a package's ``__all__`` (or
its re-export list) breaks ``from repro.x import *`` only when someone
runs it; this imports every package and module and checks each name.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


def test_every_subpackage_is_walked():
    packages = {name.split(".")[1] for name in MODULES if name.count(".") == 1}
    assert {"core", "flowspace", "net", "obs", "analysis"} <= packages


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
