"""Export lists: every name in a package's ``__all__`` resolves, so a name
left behind after its import is deleted fails here, not in a user's
``from crat import *``."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["crat", "crat.agents"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if getattr(module, name, None) is None] == []
