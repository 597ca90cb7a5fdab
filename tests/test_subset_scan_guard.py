"""Subsets of the functions are enumerated in two places only.

The meet-in-the-middle scan for vanishing subsums (``abcengine._vanishing``)
and the circuit walk (``abcengine._circuits``) are the only subset
enumerations; every subset-gcd question -- k-wise coprimality, the first bad
k-subset, the gcd of a vanishing subsum -- is a lookup on the tuple's
``radicals.coprime_base``.  This test reads the source of every module and
checks that none of them uses ``itertools.combinations``, the tool of the
per-subset gcd scans that the base replaced.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "polyabc")
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


def _uses_combinations(source: str) -> list:
    """The line numbers at which source imports or reads itertools.combinations."""
    nodes = list(ast.walk(ast.parse(source)))
    modules = {alias.asname or alias.name for node in nodes if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "itertools"}
    return sorted(
        [node.lineno for node in nodes if isinstance(node, ast.ImportFrom)
         and node.module == "itertools"
         and any(alias.name in ("combinations", "*") for alias in node.names)]
        + [node.lineno for node in nodes if isinstance(node, ast.Attribute)
           and node.attr == "combinations" and isinstance(node.value, ast.Name)
           and node.value.id in modules])


@pytest.mark.parametrize("module", MODULES)
def test_module_enumerates_no_subsets(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        lines = _uses_combinations(fh.read())
    assert not lines, f"{module}.py uses itertools.combinations at lines {lines}"


def test_guard_sees_combinations():
    assert {"abcengine", "instances", "radicals", "wronskian"} <= set(MODULES)
    for source in ("from itertools import combinations",
                   "from itertools import (chain,\n    combinations)",
                   "from itertools import *",
                   "import itertools as it\nsubs = it.combinations(range(4), 2)",
                   "import itertools\nfor sub in itertools.combinations(idxs, k):\n    pass"):
        assert _uses_combinations(source)
    for source in ("from itertools import chain", "combinations = 3",
                   "import math\nx = math.combinations", "from .wronskian import combinations"):
        assert not _uses_combinations(source)
