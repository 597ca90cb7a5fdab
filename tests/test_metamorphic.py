"""Metamorphic tests: transformations under which the paper's statements are
invariant, each predicting exactly how a report changes.

Permutation of the f_j.  The sum-zero theorems are stated for a vanishing sum
f_0 + ... + f_n = 0 and read only symmetric data of it: max_j log|f_j|, the
product F = prod f_j and its truncated counting functions, and constants
that depend on the sum's linear structure, not on its order.  So permuting
the f_j keeps the verdict, the constants, the degree checks and the margins
of the product-form check; only witnesses, which name indices, move.  The
three-function theorem is symmetric in f0 and f1, since f2 = f0 + f1 is.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from polyabc.abcengine import verify_abc_second, verify_basic_abc
from polyabc.errors import CasError
from polyabc.instances import CorpusSpec, field_spec_from_code, generate_corpus

# (field, m, n, degree bound, mode, corpus seed): Q_p, F_p and F_p(t) tuples
# with one or several blocks, pairwise or only k-wise coprime
CORPORA = [("q2", 1, 3, 4, "pairwise", 1), ("q3", 2, 3, 4, "kwise", 2),
           ("q5", 1, 4, 3, "pairwise", 3), ("f2", 2, 3, 4, "pairwise", 1),
           ("f3", 2, 3, 5, "kwise", 2), ("f5", 1, 3, 4, "pairwise", 3),
           ("f2t", 2, 2, 4, "pairwise", 2), ("f3t", 2, 2, 4, "pairwise", 3),
           ("f3t", 1, 3, 4, "kwise", 1)]


@cache
def _tuples():
    out = []
    for code, m, n, deg, mode, seed in CORPORA:
        cs = CorpusSpec(seed=seed, count=3, field=field_spec_from_code(code), m=m, n=n,
                        degree_bound=deg, coprimality=mode)
        out += [inst.polys for inst in generate_corpus(cs)]
    return out


def _report(verify, *args):
    try:
        return verify(*args).as_dict()
    except CasError as exc:
        return exc.code


def _invariant(report):
    """The report without its index-naming parts: hypothesis witnesses,
    certificates, blocks and notes."""
    if isinstance(report, str):
        return report
    return {"verdict": report["verdict"], "constants": report["constants"],
            "degree_checks": report["degree_checks"], "margins": report["margins"],
            "margin_tables": report["margin_tables"],
            "hypotheses": [(h["name"], h["ok"]) for h in report["hypotheses"]]}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permuting_the_functions_keeps_the_product_form_report(data):
    fs = data.draw(st.sampled_from(_tuples()))
    order = data.draw(st.permutations(range(len(fs))))
    before = _report(verify_abc_second, fs)
    after = _report(verify_abc_second, [fs[i] for i in order])
    assert _invariant(after) == _invariant(before)


def test_swapping_f0_and_f1_keeps_the_basic_report():
    for fs in _tuples():
        assert _report(verify_basic_abc, fs[1], fs[0]) == _report(verify_basic_abc, fs[0], fs[1])
