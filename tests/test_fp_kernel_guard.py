"""The level-1 kernels live behind ``fields.Ring``.

The F_p[t] kernels (``_fpt_*``) and the dense univariate product, division
and gcd (``_dense_conv``, ``_dense_divmod``, ``_dense_gcd``) return at once
on unit and constant operands.  This test reads the source of every other
module and checks that none of them names a kernel, so every caller reaches
them through ``Ring.conv``, ``Ring.divmod``, ``Ring.gcd`` and the payload
arithmetic, and gets those fast paths.
"""

import os
import re

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "polyabc")
MODULES = sorted(name[:-3] for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "fields.py")
KERNEL_NAMES = re.compile(r"\b_fpt_\w+|\b_dense_(gcd|divmod|conv)\b")


@pytest.mark.parametrize("module", MODULES)
def test_module_names_no_level1_kernel(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        lines = fh.read().splitlines()
    for no, line in enumerate(lines, 1):
        assert not KERNEL_NAMES.search(line), f"{module}.py:{no} names a kernel: {line.strip()}"


def test_guard_sees_a_kernel_name():
    assert {"abcengine", "cli", "mvpoly", "radicals", "wronskian"} <= set(MODULES)
    for line in ("from .fields import _fpt_mul", "q = fields._dense_divmod(a, b)",
                 "g = _dense_gcd(a, b, ring)", "conv = _dense_conv(add, mul, is_zero, zero)"):
        assert KERNEL_NAMES.search(line)
    # the trim helper and the ring members are not kernels
    for line in ("from .fields import _dense_trim", "ring.conv(a, b)", "spec.ring.gcd(a, b)"):
        assert not KERNEL_NAMES.search(line)
