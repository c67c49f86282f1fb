"""Every name the package and its modules export exists."""

import importlib

import pytest

MODULES = ["drifttrack"] + [f"drifttrack.{name}" for name in (
    "bounds", "core", "experiments", "gains", "kalman", "linalg", "models",
    "schedules")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
