"""Golden machine reports: md5 of ``--format machine`` stdout and the exit
code for every command on ``instances/*.json`` and ``corpus-run`` on every
field code.  Reports are byte-identical for identical invocations, so any
change of output shows up here; an intended change updates its entry.

Each invocation runs in process through ``cli.main`` from the repository
root, with ``--format machine`` appended.  Its stdout is also what
``json.dumps(sort_keys=True, indent=2)`` writes for the document it holds.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from polyabc import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# invocation -> (md5 of stdout, exit code)
GOLDEN = {
    "norm --instance instances/basic_char0.json": ("ec3926ddcab1af3c667d696ad0d80c64", 0),
    "norm --instance instances/fermat_f5.json": ("9e1928f24e7310ec7cc0fa7407d547fb", 0),
    "norm --instance instances/sum_char0.json": ("6d14e633914237d0ef2a814b70d37338", 0),
    "norm --instance instances/power_sum_f2.json": ("7a11be1c33b7e95be0852c4e01aa571e", 0),
    "counting --instance instances/basic_char0.json": ("afb726e99e0e379fb435e943ad352ad0", 0),
    "counting --instance instances/fermat_f5.json": ("49c36f23cbfe1510f37d7c9f842145e8", 0),
    "counting --instance instances/sum_char0.json": ("7720d5dbcc24b562448543f5b45cf975", 0),
    "counting --instance instances/power_sum_f2.json": ("01080a077dc285ff778bf466728aedb5", 0),
    "radical --instance instances/basic_char0.json": ("f237c97f48f768990391a5ab07c543ca", 0),
    "radical --instance instances/fermat_f5.json": ("73983d3808e6343bd23d5b289a90ed6f", 0),
    "radical --instance instances/sum_char0.json": ("d593d84fd0064d2ca8932a3c8a0b50a4", 0),
    "radical --instance instances/power_sum_f2.json": ("452703827414d2d0818228d2cb8d8a98", 0),
    "sqfree --instance instances/basic_char0.json": ("a46bf4b04c2793fc40ca7601aa9217c6", 0),
    "sqfree --instance instances/fermat_f5.json": ("63b22d55c2bc878edfa59c83605abf2f", 0),
    "sqfree --instance instances/sum_char0.json": ("d64e86f9c43daf833f3cd6bf3c87a664", 0),
    "sqfree --instance instances/power_sum_f2.json": ("f890da2750e21e42d459ccded83dfaf1", 0),
    "hasse --instance instances/basic_char0.json": ("68fd46999f8375d7ff140de05f5875c3", 1),
    "wronskian --instance instances/basic_char0.json": ("debfb3d06b80bf08be66a1f24706d65f", 0),
    "wronskian --instance instances/fermat_f5.json": ("536b6096be502feb935bfddbed9bfee6", 0),
    "wronskian --instance instances/sum_char0.json": ("95d1e5bcc6ba6c8e4996794269383dcd", 1),
    "wronskian --instance instances/power_sum_f2.json": ("95d1e5bcc6ba6c8e4996794269383dcd", 1),
    "independence --instance instances/basic_char0.json": ("8f53d670ec1372f2ec818c5035a24ef3", 1),
    "independence --instance instances/fermat_f5.json": ("d63cc9f77343464b9803eda4595e2c7c", 0),
    "independence --instance instances/sum_char0.json": ("8f53d670ec1372f2ec818c5035a24ef3", 1),
    "independence --instance instances/power_sum_f2.json": ("95d1e5bcc6ba6c8e4996794269383dcd", 1),
    "verify-basic --instance instances/basic_char0.json": ("550b64f7b7d08853aea1400aa04b40c0", 0),
    "verify-basic --instance instances/fermat_f5.json": ("e42cee90f2fea98fec64cf6c1c85f9aa", 2),
    "verify-basic --instance instances/sum_char0.json": ("f4d090b998a4f32c68396cb6a470ed83", 0),
    "verify-basic --instance instances/power_sum_f2.json": ("d34afe1714b47841355bf60c8b19f644", 2),
    "verify-abc1 --instance instances/basic_char0.json": ("8aa9602aef9de3eff77ac7ddc62e510b", 2),
    "verify-abc1 --instance instances/fermat_f5.json": ("2c0a266c6f8f4ebd9de1f85dcd1b13e8", 2),
    "verify-abc1 --instance instances/sum_char0.json": ("3e03c7b5796a8734a79fe00cb431bf36", 0),
    "verify-abc1 --instance instances/power_sum_f2.json": ("1015a3030bb8dd404b760e624c87f869", 0),
    "verify-abc2 --instance instances/basic_char0.json": ("7e2c997d5c0daacc0ed0873711cbaa6b", 2),
    "verify-abc2 --instance instances/fermat_f5.json": ("a9d382ca4c32601cfc25b804835c73b2", 2),
    "verify-abc2 --instance instances/sum_char0.json": ("53e27ad8b0fd5dafb063ed86f3c638ea", 0),
    "verify-abc2 --instance instances/power_sum_f2.json": ("f72a9200d9bd06861cd041d1ceb55964", 0),
    "corollaries --instance instances/basic_char0.json": ("5d2184c919bac4b7740f20a73c79d8ee", 2),
    "corollaries --instance instances/fermat_f5.json": ("5d7aa84036dd9c34baefa0d5b8ffa1b2", 1),
    "corollaries --instance instances/sum_char0.json": ("e9f214aaed6510936f5c1d60a9cb9ec0", 0),
    "corollaries --instance instances/power_sum_f2.json": ("5d7aa84036dd9c34baefa0d5b8ffa1b2", 1),
    "corpus-run --field q2 --check verify-basic --count 4 --seed 7 --m 2 --deg 5": ("1e203c0c6fb805a097a1d0f32b884d10", 0),
    "corpus-run --field q3 --check verify-abc1 --count 4 --seed 7 --n 4 --deg 6": ("519189ea3b1c04ae37bbdcbd8e5ea353", 0),
    "corpus-run --field q5 --check corollaries --count 4 --seed 7 --n 3 --deg 6 --mode kwise": ("782f700beea5f6d0b714fe565fafc8d9", 0),
    "corpus-run --field f2 --check verify-abc2 --count 4 --seed 7 --m 2 --n 3 --deg 6": ("83ff66021b3307cfc97b78bed6a98280", 0),
    "corpus-run --field f3 --check verify-abc2 --count 4 --seed 7 --m 2 --deg 8 --mode none": ("6a52d5fb5161179c10f09315f6a35244", 2),
    "corpus-run --field f5 --check verify-abc1 --count 4 --seed 7 --m 2 --n 3 --deg 6": ("61560fe0a5b507530f529ecbd2bddbdd", 0),
    "corpus-run --field f2t --check verify-abc1 --count 4 --seed 7 --m 2 --deg 5": ("dc615cac5c247f7c39521a4e1b66226f", 1),
    "corpus-run --field f3t --check verify-abc2 --count 4 --seed 7 --m 2 --deg 5": ("e4672b09febea077de79a200d8ea429b", 0),
    "corpus-run --field f2t --check verify-abc1 --count 4 --n 3 --deg 6 --seed 1": ("c7bd8c09f4eae37adabf145fc29a2581", 0),
    "corpus-run --field f3t --check verify-basic --count 4 --seed 7 --m 2 --deg 6": ("47f8f166175a53cc251e0ddeeb151f2d", 0),
    "corpus-run --field f5t --check verify-abc1 --count 4 --seed 7 --n 3 --deg 6 --mode kwise": ("b9fbba64a40153029a136ee50233cb20", 2),
    # --k reaches corpus-run's instances: the k_range gate fires (exit 0 before)
    "corpus-run --field q3 --check verify-abc2 --n 3 --count 2 --seed 7 --k 99": ("64633133fd7c5fa6c2c3deefc93989ba", 2),
    # planted products for the recursive dense kernel, recorded before it
    # replaced the MvPoly-level remainder sequence: an m = 2 F_3 ladder
    # (multiplicities 9, 2, 1) and an m = 3 F_2 product with a square factor
    "sqfree --instance instances/ladder_f3_m2.json": ("b5c0954b2e8b1f459722ac7d7b561260", 0),
    "counting --instance instances/ladder_f3_m2.json --ell 2": ("c1404e6125786edacec88d7e07d0ce49", 0),
    "radical --instance instances/ladder_f3_m2.json --s 1": ("a69145437c70138fd591cf2eb396e6c2", 0),
    "sqfree --instance instances/square_factor_f2_m3.json": ("64f9a4eec4e7d4f27269ae319573e693", 0),
    "counting --instance instances/square_factor_f2_m3.json --ell 2": ("201a1e948cfc0551a49195b58b4dd13d", 0),
    "radical --instance instances/square_factor_f2_m3.json --s 1": ("00c2fb20ec656ee6947bbd652e48e17e", 0),
    # three variables, which no benchmark workload exercises
    "corpus-run --field f2 --check verify-abc1 --count 3 --seed 7 --m 3 --n 3 --deg 4": ("329bc8afc39c986f18840eaff64f6de0", 0),
    "corpus-run --field f3t --check verify-abc2 --count 3 --seed 7 --m 3 --deg 4": ("43cb4a4e4c4ef79b29e2710a8fa4a64e", 0),
    "corpus-run --field q3 --check verify-abc1 --count 3 --seed 7 --m 3 --n 3 --deg 4": ("6527f698460e36695a5eb6bd2333f3fc", 0),
    # an F_3(t) pair with denominator t + 1, independent only at level 2, so
    # independence prints a witness; recorded before Bareiss moved to the
    # recursive dense kernel
    "wronskian --instance instances/witness_f3t_m2.json": ("3cd8945d818066e0cc6b842cc6043d0a", 0),
    "independence --instance instances/witness_f3t_m2.json": ("025460191a7083d789428b51c100a63a", 0),
    # non-integral rationals over Q_2 (m = 2) and Q_3, with denominators that
    # p divides and ones it does not; the benchmark corpora hold only
    # integral coefficients.  Recorded while every Q payload was a Fraction,
    # before integral ones became ints
    "norm --instance instances/rational_q2_m2.json": ("e080ebbefe0af08dcdc0984b9308057c", 0),
    "counting --instance instances/rational_q2_m2.json": ("d6771e5202b975749bca9a6f443ba954", 0),
    "radical --instance instances/rational_q2_m2.json": ("7ec09d8c4f533996b90b42b9b4b9a844", 0),
    "sqfree --instance instances/rational_q2_m2.json": ("7dcaab0f9273dfd2820db54b2656ec0a", 0),
    "verify-basic --instance instances/rational_q2_m2.json": ("d7bcea594adcc3dc51a710493c101da7", 0),
    "verify-abc1 --instance instances/rational_q2_m2.json": ("4bc0430fb3eed2a48a6b4c983fd2e67d", 0),
    "norm --instance instances/rational_q3.json": ("8052af833a867e7c2e7eec602bcf96d2", 0),
    "counting --instance instances/rational_q3.json": ("69d02918aca358edd8b47485c8e35b8e", 0),
    "radical --instance instances/rational_q3.json": ("dabce18dded3da16bf746baf09d4e030", 0),
    "sqfree --instance instances/rational_q3.json": ("4f23ad68bb19c896470c31ac1bd1c3a7", 0),
    "verify-basic --instance instances/rational_q3.json": ("b6ab41a3d826c0e78dfe1f35e28efd11", 0),
    "verify-abc1 --instance instances/rational_q3.json": ("6a7081e5a8953cf0f7d80ffe179e65f6", 0),
    "counting --instance instances/rational_q2_m2.json --ell 2": ("6c0e848322f67bc6e4dceb2b9d7794ea", 0),
    "verify-abc2 --instance instances/rational_q2_m2.json": ("6a33d5d950a041006cb32a5aba3dd8c9", 0),
    "corollaries --instance instances/rational_q2_m2.json": ("936e67aa67a3f5045a308aed97ee1343", 0),
    "counting --instance instances/rational_q3.json --ell 2": ("2d8c40d350061e8b0c743919654eed4b", 0),
    "verify-abc2 --instance instances/rational_q3.json": ("f3a5f11cd21e8047b4e4286f4e4dcaca", 0),
    "corollaries --instance instances/rational_q3.json": ("8d6de5c5dc34d72cfe1f25f88c7cf756", 0),
}


@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_golden_machine_report(line, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split() + ["--format", "machine"])
    text = out.getvalue()
    assert (hashlib.md5(text.encode()).hexdigest(), code) == GOLDEN[line]
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
