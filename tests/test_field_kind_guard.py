"""The field kind and payload format live in ``polyabc.fields``.

Every per-kind choice -- arithmetic, valuation, roots, text, parsing and
cleared rows -- is a member of ``fields.Ring``, made once per field.  This
test reads the source of the modules that compute on coefficients and
checks that none of them names a field kind or compares one, so a new kind
of field is a change to ``fields`` alone.
"""

import os
import re

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "polyabc")
KIND_FREE = ("abcengine", "wronskian", "mvpoly", "hasse", "radicals", "nevanlinna", "cli")
KIND_NAMES = re.compile(r"RATIONAL_P_ADIC|PRIME_FIELD|RATFUNC_T_ADIC|FIELD_KINDS"
                        r"|rational_p_adic|prime_field|ratfunc_t_adic")
KIND_TEST = re.compile(r"\.kind\b\s*(==|!=|\bin\b|\bnot\b)|(==|!=)\s*[\w.]*\.kind\b")


@pytest.mark.parametrize("module", KIND_FREE)
def test_module_names_no_field_kind(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        lines = fh.read().splitlines()
    for no, line in enumerate(lines, 1):
        assert not KIND_NAMES.search(line), f"{module}.py:{no} names a field kind: {line.strip()}"
        assert not KIND_TEST.search(line), f"{module}.py:{no} compares a field kind: {line.strip()}"


def test_guard_sees_a_kind_test():
    # the patterns match the spellings the modules used before
    for line in ("    if spec.kind == RATFUNC_T_ADIC:", "if f.spec.kind != x:",
                 "if RATFUNC_T_ADIC == spec.kind:", "from .fields import PRIME_FIELD"):
        assert KIND_NAMES.search(line) or KIND_TEST.search(line)
    assert not KIND_TEST.search("kinds = spec.kindly") and not KIND_NAMES.search("kind_of = 1")
