"""The CI gate table, read by the runner's own parser (.github/gates.py)."""

import importlib.util
import os

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))

_spec = importlib.util.spec_from_file_location(
    "gates", os.path.join(ROOT, ".github", "gates.py"))
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)
