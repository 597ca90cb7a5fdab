"""Tests of the benchmark itself: the checker and the tracer.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import polyabc.abcengine as abcengine  # noqa: E402
import polyabc.cli as cli  # noqa: E402
import polyabc.mvpoly as mvpoly  # noqa: E402
import workloads  # noqa: E402
from check import check_op  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(op, workdir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.cli_args(str(workdir)))
    return buf.getvalue(), code


def _ops(workdir, name, seed, pick):
    wl = workloads.build(name, seed, str(workdir))
    ops = [op for op in wl.ops if pick(op)]
    return [(workloads.op_to_json(op), wl.docs[op.doc], *_run(op, workdir)) for op in ops]


@pytest.fixture(scope="module")
def charp(tmp_path_factory):
    """Small char-p and F_p(t) reports, including the known NOT_A_POWER failures."""
    workdir = tmp_path_factory.mktemp("charp")
    keep = ("f2t-m2-n2-d6-pairwise-1-", "f2t-m2-n2-d6-pairwise-11-",
            "f3-m2-n3-d8-pairwise-7-0000", "f2-m2-n4-d6-kwise-7-000")
    return _ops(workdir, "charp_corpus", 2, lambda op: op.doc.startswith(keep))


@pytest.fixture(scope="module")
def qp(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("qp")
    return _ops(workdir, "qp_wide", 3,
                lambda op: op.doc.split("-shift")[0].endswith(("-0000", "-0001")))


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("ladder")
    return _ops(workdir, "radical_ladder", 4, lambda op: op.doc.endswith(("-00.json", "-01.json")))


def test_checker_accepts_correct_reports(charp, qp, ladder):
    outcomes = set()
    for op, doc, out, code in charp + qp + ladder:
        failed, problems = check_op(op, doc, out, code)
        assert problems == [], (op, problems)
        outcomes.add((op["argv"][0], code, failed))
    assert ("verify-abc1", 1, True) in outcomes       # the known NOT_A_POWER failure
    assert ("corollaries", 0, False) in outcomes
    assert ("sqfree", 0, False) in outcomes


def test_known_failure_is_not_a_power(charp):
    failing = [(op, out) for op, _, out, code in charp if code == 1]
    assert failing and all(json.loads(out)["error"] == "NOT_A_POWER" for _, out in failing)
    assert all(op["expect_error"] == "NOT_A_POWER" for op, _ in failing)


def _tampered(items, mutate):
    """Apply mutate(report) to each report it accepts; yield the altered outputs."""
    for op, doc, out, code in items:
        report = json.loads(out)
        if "error" not in report and mutate(report):
            yield op, doc, json.dumps(report), code


def _flip_gate(report):
    if not report.get("hypotheses"):
        return False
    report["hypotheses"][-1]["ok"] = not report["hypotheses"][-1]["ok"]
    return True


def _shift_slack(report):
    for dc in report.get("degree_checks", {}).values():
        dc["slack"] += 1
        return True
    return False


def _change_determinant(report):
    for cert in report.get("certificates", []):
        if len(cert["gammas"]) > 1:
            cert["determinant"] = cert["determinant"] + " + 1 * z1^9"
            return True
    return False


def _change_square_free_part(report):
    if report.get("command") != "sqfree":
        return False
    entry = report["entries"][0]
    entry["square_free_part"] = entry["chain"][0][1]
    return entry["chain"][0][1] != entry["chain"][-1][1]


def _change_truncated_slope(report):
    if report.get("command") != "counting":
        return False
    integ = report["entries"][0]["truncated"]["integrated"]
    integ["final_slope"] = str(int(integ["final_slope"]) + 1)
    return True


@pytest.mark.parametrize("mutate", [_flip_gate, _shift_slack, _change_determinant],
                         ids=["gate", "slack", "determinant"])
def test_checker_rejects_tampered_abc_reports(charp, qp, mutate):
    tampered = list(_tampered(charp + qp, mutate))
    assert tampered
    for op, doc, out, code in tampered:
        assert check_op(op, doc, out, code)[1], op


@pytest.mark.parametrize("mutate", [_change_square_free_part, _change_truncated_slope],
                         ids=["square_free_part", "truncated_slope"])
def test_checker_rejects_tampered_ladder_reports(ladder, mutate):
    tampered = list(_tampered(ladder, mutate))
    assert tampered
    for op, doc, out, code in tampered:
        assert check_op(op, doc, out, code)[1], op


def test_unexpected_error_is_a_problem(charp):
    op, doc, out, code = next(item for item in charp if item[3] == 1)
    failed, problems = check_op(dict(op, expect_error=None), doc, out, code)
    assert failed and problems


def test_traced_reports_are_byte_identical(tmp_path):
    wl = workloads.build("charp_corpus", 5, str(tmp_path))
    ops = wl.ops[::12]
    plain = [_run(op, tmp_path) for op in ops]
    original_gcd = mvpoly.poly_gcd
    tracer = Tracer()
    tracer.install()
    try:
        workloads.build("charp_corpus", 5, str(tmp_path))
        tracer.end_setup()
        assert tracer.setup["gcd_calls"] > 0
        assert abcengine.poly_gcd is mvpoly.poly_gcd is not original_gcd
        traced = []
        for op in ops:
            traced.append(_run(op, tmp_path))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert mvpoly.poly_gcd is original_gcd and abcengine.poly_gcd is original_gcd
    assert traced == plain
    layers = tracer.metrics(rounds=1)
    assert layers["mvpoly.poly_gcd.calls"][0] > 0
    assert layers["cli.main.self_s"][0] > 0
    assert 0 < layers["mvpoly.poly_gcd.distinct_input_ratio"][0] <= 1
