import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from polyabc import cli
from polyabc.cli import main


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_verify_basic_holds():
    code, out = _run(["verify-basic", "--instance", "instances/basic_char0.json",
                      "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "HOLDS"
    assert doc["degree_checks"]["basic"]["slack"] == 0
    assert doc["id"] == "basic-z2-2z"


def test_verify_basic_fermat_exit_2():
    code, out = _run(["verify-basic", "--instance", "instances/fermat_f5.json"])
    assert code == 2
    assert "HYPOTHESIS_VIOLATED" in out


def test_unknown_command_exit_1():
    code, _ = _run(["frobnicate"])
    assert code == 1


def test_help_lists_every_command_and_a_commands_flags():
    code, out = _run(["--help"])
    assert code == 0
    assert all(name in out for name in cli.COMMANDS) and len(cli.COMMANDS) == 12
    code, out = _run(["corpus-run", "--help"])
    assert code == 0
    words = set(out.replace(",", " ").split())
    assert {"--instance", "--rho", "--ell", "--s", "--k", "--seed", "--format",
            "--oracle-degree-cap", "--count", "--field", "--m", "--n", "--deg", "--mode",
            "--check"} <= words


def test_repeated_invocations_print_the_same_bytes():
    # one parser serves every call in a process, so parsing must not change it
    doc = "instances/sum_char0.json"
    invocations = [[], ["--help"], ["frobnicate"], ["norm", "-h"], ["corpus-run", "--help"],
                   ["norm", "--bogus"], ["norm", "--instance"],
                   ["radical", "--instance", doc, "--s", "x"],
                   ["norm", "--instance", doc, "--format", "machine"], ["norm", "--instance", doc],
                   ["verify-abc2", "--instance", doc, "--k", "3"],
                   ["norm", "--instance", doc, "extra"]]

    def run_all():
        results = []
        for argv in invocations:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    first = run_all()
    assert run_all() == first
    assert [code for code, _, _ in first] == [1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 2, 1]
    assert first[8][1].startswith("{") and first[9][1].startswith("id: ")


def test_missing_instance_is_error():
    code, out = _run(["norm"])
    assert code == 1
    assert "VALIDATION_ERROR" in out


def test_norm_and_counting_commands():
    for cmd in ("norm", "counting", "radical", "sqfree"):
        code, out = _run([cmd, "--instance", "instances/sum_char0.json",
                          "--format", "machine"])
        assert code == 0, (cmd, out)
        doc = json.loads(out)
        assert doc["command"] == cmd


def test_counting_with_truncation():
    code, out = _run(["counting", "--instance", "instances/sum_char0.json",
                      "--ell", "1", "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert all("truncated" in e for e in doc["entries"])


def test_counting_reads_one_norm_profile_per_polynomial(monkeypatch):
    # the counting data and the Poisson constant of f share one envelope
    import polyabc.nevanlinna
    from helpers import poisson_constant

    calls = []
    norm_profile = polyabc.nevanlinna.norm_profile

    def counted(f):
        calls.append(f)
        return norm_profile(f)

    monkeypatch.setattr(polyabc.nevanlinna, "norm_profile", counted)
    code, out = _run(["counting", "--instance", "instances/sum_char0.json",
                      "--format", "machine"])
    entries = json.loads(out)["entries"]
    assert code == 0 and len(calls) == len(entries) == 3
    monkeypatch.undo()
    assert [e["poisson_constant"] for e in entries] == [str(poisson_constant(f)) for f in calls]


def test_wronskian_rejects_a_dependent_tuple_before_its_index(monkeypatch):
    # power_sum_f2 is dependent over F_2 with collection index 3
    import polyabc.abcengine

    def index(fs):
        raise AssertionError("index computed for a dependent tuple")

    monkeypatch.setattr(polyabc.abcengine, "collection_independence_index", index)
    code, out = _run(["wronskian", "--instance", "instances/power_sum_f2.json",
                      "--format", "machine"])
    assert code == 1
    assert json.loads(out) == {"error": "NOT_F_INDEPENDENT",
                               "message": "functions are linearly dependent over the field"}


def test_wronskian_and_independence_commands():
    code, out = _run(["wronskian", "--instance", "instances/basic_char0.json",
                      "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "found"
    # independence requires characteristic p
    code, out = _run(["independence", "--instance", "instances/sum_char0.json",
                      "--format", "machine"])
    assert code == 1
    assert "WRONG_CHARACTERISTIC" in out


def test_verify_abc1_command():
    code, out = _run(["verify-abc1", "--instance", "instances/sum_char0.json",
                      "--format", "machine", "--rho=-1,0,2,7/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "HOLDS"
    assert [r for r, _ in doc["margins"]] == ["-1", "0", "2", "7/2"]
    for key in ("id", "hypotheses", "constants", "certificates", "margins", "verdict"):
        assert key in doc


def test_corpus_run_deterministic_bytes():
    args = ["corpus-run", "--seed", "7", "--count", "4", "--field", "q2",
            "--m", "1", "--n", "2", "--deg", "4", "--check", "verify-abc1",
            "--format", "machine"]
    code1, out1 = _run(args)
    code2, out2 = _run(args)
    assert out1 == out2
    assert code1 == code2


def test_corpus_run_passes_k_to_every_instance():
    """corpus-run applies --k as verify-abc2 on one instance does: out of
    range, the k_range gate fires on every report and the exit code is 2."""
    args = ["corpus-run", "--field", "q3", "--n", "3", "--count", "2", "--seed", "7",
            "--check", "verify-abc2", "--format", "machine"]
    code, out = _run(args + ["--k", "99"])
    assert code == 2
    for entry in json.loads(out)["reports"]:
        assert {"name": "k_range", "ok": False, "witness": "k=99 outside [2, 3]"} \
            in entry["report"]["hypotheses"]
    _, out = _run(args + ["--k", "2"])
    assert all("k_autodetected=2" not in entry["report"]["notes"]
               for entry in json.loads(out)["reports"])
    code, _ = _run(["verify-abc2", "--instance", "instances/sum_char0.json", "--k", "99"])
    assert code == 2


def test_console_entry_point():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "polyabc.cli", "verify-basic",
                           "--instance", "instances/basic_char0.json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict: HOLDS" in proc.stdout


def test_truncated_series_caveat():
    import json as _json
    from polyabc.instances import Instance, serialize_instance
    from conftest import Q2
    from polyabc.mvpoly import MvPoly

    z = MvPoly.variable(Q2, 1, 0)
    inst = Instance("truncated", Q2, ["z1"],
                    [MvPoly.one(Q2, 1) + z + z ** 2], {"trunc_order": 2})
    path = "/tmp/polyabc_trunc.json"
    open(path, "w").write(serialize_instance(inst))
    for cmd in ("norm", "counting"):
        code, out = _run([cmd, "--instance", path, "--format", "machine"])
        assert code == 0
        doc = _json.loads(out)
        assert "reliability radius" in doc["caveat"]


def test_hasse_command():
    import json as _json
    from polyabc.instances import Instance, serialize_instance
    from conftest import F3
    from polyabc.mvpoly import MvPoly

    x = MvPoly.variable(F3, 1, 0)
    inst = Instance("hasse-demo", F3, ["z1"], [x ** 3], {"gamma": [3]})
    path = "/tmp/polyabc_hasse.json"
    open(path, "w").write(serialize_instance(inst))
    code, out = _run(["hasse", "--instance", path, "--format", "machine"])
    assert code == 0
    doc = _json.loads(out)
    assert doc["entries"][0]["derivative"] == "1"


def test_rho_not_a_number_is_error():
    code, out = _run(["norm", "--instance", "instances/sum_char0.json",
                      "--rho", "abc", "--format", "machine"])
    assert code == 1
    assert json.loads(out)["error"] == "VALIDATION_ERROR"


def test_unreadable_instance_is_error():
    for path in ("instances/no_such_file.json", "instances"):
        code, out = _run(["norm", "--instance", path, "--format", "machine"])
        assert code == 1
        assert json.loads(out)["error"] == "UNREADABLE_INSTANCE"


def test_counting_rejects_nonpositive_ell():
    for ell in ("0", "-1"):
        code, out = _run(["counting", "--instance", "instances/sum_char0.json",
                          "--ell", ell, "--format", "machine"])
        assert code == 1
        assert json.loads(out)["error"] == "VALIDATION_ERROR"


def test_corpus_run_rejects_bad_count_and_m():
    for flags in (["--count", "-1"], ["--m", "0"]):
        code, out = _run(["corpus-run", "--field", "q2", "--format", "machine"] + flags)
        assert code == 1
        assert json.loads(out)["error"] == "VALIDATION_ERROR"



def _write_instance(tmp_path, inst):
    from polyabc.instances import serialize_instance

    path = tmp_path / f"{inst.instance_id}.json"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.mark.parametrize("command, params", [
    ("hasse", {"gamma": ["a"]}),
    ("hasse", {"gamma": 3}),
    ("hasse", {"gamma": [-1]}),
    ("verify-abc2", {"k": "x"}),
    ("radical", {"s": "x"}),
    ("radical", {"oracle_degree_cap": [8]}),
    ("sqfree", {"oracle_degree_cap": "x"}),
    ("wronskian", {"step_c": 1.5}),
    ("counting", {"ell": True}),
])
def test_non_integer_params_are_validation_errors(tmp_path, command, params):
    from polyabc.instances import Instance
    from polyabc.mvpoly import MvPoly
    from conftest import F3

    z, one = MvPoly.variable(F3, 1, 0), MvPoly.one(F3, 1)
    inst = Instance("bad-params", F3, ["z1"], [z, one, -(z + one)], params)
    code, out = _run([command, "--instance", _write_instance(tmp_path, inst),
                      "--format", "machine"])
    assert code == 1
    assert json.loads(out)["error"] == "VALIDATION_ERROR"


@pytest.mark.parametrize("p, exponent", [("x", 1), (3, "a"), (3.5, 1), (3, 1.5)])
def test_field_prime_and_exponents_must_be_integers(tmp_path, p, exponent):
    doc = {"id": "bad-ints", "field": {"kind": "prime_field", "p": p}, "vars": ["z1"],
           "polys": [[[[exponent], "1"], [[0], "1"]]], "params": {}}
    path = tmp_path / "bad-ints.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["norm", "--instance", str(path), "--format", "machine"])
    assert code == 1
    assert json.loads(out)["error"] == "VALIDATION_ERROR"


def test_unparenthesised_ratfunc_sum_is_a_parse_error(tmp_path):
    doc = json.loads(open("instances/witness_f3t_m2.json").read())
    doc["polys"][1][0][1] = "t+1/t"
    path = tmp_path / "sum-beside-slash.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["norm", "--instance", str(path), "--format", "machine"])
    assert code == 1
    assert json.loads(out)["error"] == "PARSE_ERROR"


def _captured(call, argv):
    """Exit code (0 or 1, as main maps it), stdout and stderr of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = 0 if exc.code == 0 else 1
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["norm", "--instance", "instances/sum_char0.json", "--bogus"],
    ["norm", "--instance", "instances/sum_char0.json", "extra", "more"],
    ["norm", "--instance", "instances/sum_char0.json", "--ell", "x"],
    ["norm", "--instance"],
    ["norm", "-h"],
    ["corpus-run", "--help"],
])
def test_parse_messages_match_the_top_level_parser(argv):
    # main parses with the command's own parser; its messages and exit codes
    # are those of one parse_args of the top-level parser on the whole line
    parser = cli.build_parser()[0]
    assert _captured(main, argv) == _captured(parser.parse_args, argv)


def test_parse_without_a_command_and_abbreviated_flags():
    for argv, code in (([], 1), (["-h"], 0), (["--help"], 0)):
        got = _captured(main, argv)
        assert got[0] == code and got[1].startswith("usage: polyabc") and not got[2]
    for argv in (["frobnicate"], ["--format", "machine"]):
        code, out, err = _captured(main, argv)
        assert code == 1 and not out
        assert err.startswith(f"unknown command {argv[0]!r}\nusage: polyabc")
    short = ["norm", "--inst", "instances/sum_char0.json", "--format", "machine"]
    assert cli.build_parser()[0].parse_args(short).instance == "instances/sum_char0.json"
    assert _captured(main, short) == _captured(main, short[:1] + ["--instance"] + short[2:])


def test_sqfree_builds_the_chain_once(tmp_path, monkeypatch):
    import polyabc.radicals
    from polyabc.instances import Instance
    from polyabc.mvpoly import MvPoly
    from conftest import F3

    z, one = MvPoly.variable(F3, 1, 0), MvPoly.one(F3, 1)
    f = z ** 9 * (z + one) ** 3 * (z * z + one)
    calls = []
    square_free_decomposition = polyabc.radicals.square_free_decomposition

    def counted(g, top):
        calls.append(g == f)
        return square_free_decomposition(g, top)

    monkeypatch.setattr(polyabc.radicals, "square_free_decomposition", counted)
    inst = Instance("planted-f3", F3, ["z1"], [f], {})
    code, out = _run(["sqfree", "--instance", _write_instance(tmp_path, inst),
                      "--format", "machine"])
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert entry["terminal_level"] == 2
    assert entry["square_free_part"] == str(z * (z + one) * (z * z + one))
    assert calls.count(True) == 1


def test_huge_radical_level_returns_at_once():
    # every level past the stable one is the square-free part, so the level
    # is clamped instead of climbing a billion steps
    inst = ["--instance", "instances/fermat_f5.json", "--format", "machine"]
    t0 = time.perf_counter()
    code, out = _run(["radical", "--s", "1000000000"] + inst)
    assert code == 0 and time.perf_counter() - t0 < 30
    code, sq = _run(["sqfree"] + inst)
    assert code == 0
    got = [e["higher_radical_level_1000000000"] for e in json.loads(out)["entries"]]
    assert got == [e["square_free_part"] for e in json.loads(sq)["entries"]]


def test_degree_guard_at_load(tmp_path):
    doc = {"id": "huge-degree", "field": {"kind": "prime_field", "p": 3}, "vars": ["z1"],
           "polys": [[[[10 ** 8], "1"], [[0], "1"]], [[[1], "1"]]], "params": {}}
    path = tmp_path / "huge-degree.json"
    path.write_text(json.dumps(doc))
    for command in ("norm", "radical", "verify-basic"):
        code, out = _run([command, "--instance", str(path), "--format", "machine"])
        assert code == 1
        assert json.loads(out)["error"] == "DEGREE_TOO_LARGE"
    doc["polys"][0][0][0] = [1000]
    path.write_text(json.dumps(doc))
    code, out = _run(["norm", "--instance", str(path), "--format", "machine"])
    assert code == 0


def test_t_degree_guard_at_load(tmp_path):
    # "t^99999999" once made the parser allocate a dense list of 10^8 slots
    doc = {"id": "huge-t-degree", "field": {"kind": "ratfunc_t_adic", "p": 3}, "vars": ["z1"],
           "polys": [[[[2], "t^99999999"], [[0], "1"]], [[[1], "1"]]], "params": {}}
    path = tmp_path / "huge-t-degree.json"
    path.write_text(json.dumps(doc))
    for command in ("radical", "norm"):
        code, out = _run([command, "--instance", str(path), "--format", "machine"])
        assert code == 1
        assert json.loads(out)["error"] == "DEGREE_TOO_LARGE"
    doc["polys"][0][0][1] = "t^1000"
    path.write_text(json.dumps(doc))
    code, out = _run(["norm", "--instance", str(path), "--format", "machine"])
    assert code == 0


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "corpus-run"])
def test_empty_polys_is_a_validation_error(tmp_path, command):
    doc = {"id": "no-polys", "field": {"kind": "prime_field", "p": 3}, "vars": ["z1"],
           "polys": [], "params": {"gamma": [1]}}
    path = tmp_path / "no-polys.json"
    path.write_text(json.dumps(doc))
    code, out = _run([command, "--instance", str(path), "--format", "machine"])
    assert code == 1
    assert json.loads(out)["error"] == "VALIDATION_ERROR"


@pytest.mark.parametrize("value", [
    {}, [], "text", 5, None, [[[]]], {"k": [{"a": 1}, {}]}, {3: "x", 1: [2]},
    {"a": [], "b": {}, "c": [1, {"x": None}], "é\n": "ü\"", "z": 1.5, "t": (1, 2),
     "f": False, "g": [True, -7, 10 ** 30, float("inf")]},
])
def test_machine_text_is_json_dumps(value):
    assert cli.machine_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_report_leaves_no_cyclic_garbage(fmt):
    # json.dumps with an indent and a self-referencing text emitter each left
    # cyclic garbage on every call
    import gc

    argv = ["verify-abc1", "--instance", "instances/sum_char0.json", "--format", fmt]
    _run(argv)
    gc.collect()
    gc.disable()
    try:
        assert _run(argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
