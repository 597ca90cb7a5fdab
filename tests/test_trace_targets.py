"""The per-layer benchmark tracer wraps polyabc functions by name.

``perfbench/tracing.py`` names them in ``SPANS`` and ``COEFF_OPS``; a rename
or deletion in polyabc would otherwise only show up as a failing traced
benchmark run.  This test reads ``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_traced_names_resolve():
    for mod_name in tracing.MODULES:
        importlib.import_module(f"polyabc.{mod_name}")
    for mod_name, names in tracing.SPANS.items():
        mod = importlib.import_module(f"polyabc.{mod_name}")
        for name in names:
            owner = mod
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{mod_name}.{name}"
    coeff = importlib.import_module("polyabc.fields").Coeff
    for meth in tracing.COEFF_OPS:
        assert callable(getattr(coeff, meth)), f"Coeff.{meth}"
