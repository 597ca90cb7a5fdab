"""Acceptance suite: one test per criterion, each printing one PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines inline).  Every check is exact; a single violation fails the test.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from polyabc.abcengine import (detect_k, verify_abc_first, verify_abc_second,
                               verify_basic_abc, verify_corollaries)
from polyabc.errors import SearchExhausted
from polyabc.fields import NEG_INFINITY
from polyabc.hasse import hasse_derivative, multinomial
from polyabc.instances import CorpusSpec, field_spec_from_code, generate_corpus
from polyabc.mvpoly import MvPoly, poly_gcd
from polyabc.nevanlinna import PiecewiseLinear, counting, norm_profile, truncated_counting
from polyabc.oracle import squarefree_factor_oracle
from polyabc.radicals import (coprime_base, higher_radical, square_free_part,
                              stable_radical_level, trunc_gcd)
from polyabc.wronskian import f_independent, find_certificate, index_of_independence

from conftest import (ALL_SPECS, F2, F3, F5, Q2, Q3, Q5, random_coeff, random_gamma,
                      random_poly)
from helpers import (d_axis, is_nonnegative, log_gauss_norm, n_at, poisson_constant,
                     validate_certificate)

def _passline(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS: {msg}")


def _closure_instance(rng, spec, m, n, deg, builder):
    for _ in range(200):
        fs = [builder(rng, spec, m, deg) for _ in range(n)]
        closure = MvPoly.zero(spec, m)
        for f in fs:
            closure = closure - f
        fs.append(closure)
        if any(f.is_zero() for f in fs):
            continue
        if all(f.is_constant() for f in fs):
            continue
        return fs
    raise AssertionError("instance generation stalled")


# -- criterion 1 ------------------------------------------------------------

def _splits(alpha):
    if not alpha:
        yield (), ()
        return
    for b in range(alpha[0] + 1):
        for rest_b, rest_c in _splits(alpha[1:]):
            yield (b,) + rest_b, (alpha[0] - b,) + rest_c


def test_criterion_01_hasse_identities():
    t0 = time.time()
    per_spec = 1000
    for spec in ALL_SPECS:
        rng = random.Random(f"acc1-{spec}")
        for _ in range(per_spec):
            m = rng.randint(1, 3)
            f = random_poly(rng, spec, m, 6)
            g = random_poly(rng, spec, m, 6)
            alpha = random_gamma(rng, m, 4)
            beta = random_gamma(rng, m, 2)
            assert hasse_derivative(f + g, alpha) == \
                hasse_derivative(f, alpha) + hasse_derivative(g, alpha)
            total = MvPoly.zero(spec, m)
            for b, c in _splits(alpha):
                total = total + hasse_derivative(f, b) * hasse_derivative(g, c)
            assert hasse_derivative(f * g, alpha) == total
            ab = tuple(x + y for x, y in zip(alpha, beta))
            lhs = hasse_derivative(hasse_derivative(f, beta), alpha)
            assert lhs == hasse_derivative(f, ab).scale(multinomial(ab, beta, spec))
            if spec.characteristic:
                p = spec.p
                j = rng.randrange(m)
                assert d_axis(f ** p, j, p) == d_axis(f, j, 1) ** p
    elapsed = time.time() - t0
    assert elapsed < 60, f"identity suite took {elapsed:.1f}s"
    _passline(1, f"4 derivative identities x {per_spec} tuples x {len(ALL_SPECS)} fields "
                 f"in {elapsed:.1f}s, zero failures")


# -- criterion 2 ------------------------------------------------------------

def test_criterion_02_norm_counting_suite():
    checked = 0
    for spec in ALL_SPECS:
        rng = random.Random(f"acc2-{spec}")
        for _ in range(150):
            m = rng.randint(1, 3)
            f = random_poly(rng, spec, m, 5, nonzero=True)
            g = random_poly(rng, spec, m, 5, nonzero=True)
            fg = f * g
            assert norm_profile(fg) == norm_profile(f) + norm_profile(g)
            cf, cg, cfg = counting(f), counting(g), counting(fg)
            assert cfg.integrated == cf.integrated + cg.integrated
            for b in cfg.breakpoints:
                assert n_at(cfg, b) == n_at(cf, b) + n_at(cg, b)
            poisson_constant(f)
            poisson_constant(fg)  # either raises NOT_CONSTANT or passes
            checked += 1
    assert checked >= 1000
    _passline(2, f"{checked} random products: exact norm multiplicativity, counting "
                 "additivity at every breakpoint, constancy of the counting/norm gap")


# -- criterion 3 ------------------------------------------------------------

def test_criterion_03_derivative_norm_bound():
    checked = 0
    for spec in ALL_SPECS:
        rng = random.Random(f"acc3-{spec}")
        for _ in range(150):
            m = rng.randint(1, 3)
            f = random_poly(rng, spec, m, 6, nonzero=True)
            gamma = random_gamma(rng, m, 4)
            df = hasse_derivative(f, gamma)
            rho = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            bound = log_gauss_norm(f, rho) - sum(gamma) * rho
            val = log_gauss_norm(df, rho)
            assert val is NEG_INFINITY or val <= bound
            if not df.is_zero():
                gap = (norm_profile(f) + PiecewiseLinear.line(-sum(gamma), 0)
                       - norm_profile(df))
                assert is_nonnegative(gap)
            checked += 1
    assert checked >= 1000
    _passline(3, f"{checked} random (f, gamma, rho) incl. negative rho: "
                 "|D^gamma f| <= |f| / r^|gamma| exactly, plus the full profile bound")


# -- criterion 4 ------------------------------------------------------------

def _univar_catalog(spec):
    """All monic irreducibles of degree <= 2 in one variable."""
    z = MvPoly.variable(spec, 1, 0)
    out = []
    consts = [spec.from_int(k) for k in range(spec.p)]
    for c0 in consts:
        out.append(z + MvPoly.constant(spec, 1, c0))
    for c1 in consts:
        for c0 in consts:
            f = z * z + z.scale(c1) + MvPoly.constant(spec, 1, c0)
            pairs = squarefree_factor_oracle(f)
            if len(pairs) == 1 and pairs[0][1] == 1 and pairs[0][0] == f:
                out.append(f)
    return out


def _bivar_catalog(spec):
    x = MvPoly.variable(spec, 2, 0)
    y = MvPoly.variable(spec, 2, 1)
    one = MvPoly.one(spec, 2)
    cands = [x, y, x + one, y + one, x + y, x + y + one,
             x * x + y, y * y + x, x * x + x + one, x * y + one]
    out = []
    for f in cands:
        pairs = squarefree_factor_oracle(f)
        if len(pairs) == 1 and pairs[0][1] == 1 and pairs[0][0] == f.normalized():
            out.append(f.normalized())
    return out


def _check_radical_chain(spec, primes, exps):
    p = spec.p
    m = primes[0].m
    f = MvPoly.one(spec, m)
    for P, e in zip(primes, exps):
        f = f * P ** e

    def product_of(selected):
        out = MvPoly.one(spec, m)
        for P in selected:
            out = out * P
        return out.normalized()

    top = stable_radical_level(f)
    for s in range(top + 1):
        q = p ** (s + 1)
        expected = [P for P, e in zip(primes, exps) if e % q != 0]
        got = higher_radical(f, s)
        if expected:
            assert got == product_of(expected), (str(f), s)
        else:
            assert got.is_constant()
    S = square_free_part(f)
    assert S == product_of(primes)
    for ell in (1, 2, p, p * p + 1):
        got = trunc_gcd(f, ell)
        expected = MvPoly.one(spec, m)
        for P, e in zip(primes, exps):
            expected = expected * P ** min(ell, e)
        assert got == expected.normalized(), (str(f), ell)
    return 1


def test_criterion_04_radical_oracle_equivalence():
    t0 = time.time()
    total = 0
    oracle_spot = 0
    for spec in (F2, F3):
        p = spec.p
        mult_cap = p * p + 1
        for catalog in (_univar_catalog(spec), _bivar_catalog(spec)):
            for r in (1, 2, 3):
                for primes in itertools.combinations(catalog, r):
                    degs = [P.total_degree() for P in primes]
                    for exps in itertools.product(range(1, mult_cap + 1), repeat=r):
                        if sum(e * d for e, d in zip(exps, degs)) > 8:
                            continue
                        total += _check_radical_chain(spec, primes, exps)
                        # cross-check the sympy-backed oracle itself on a sample
                        if total % 97 == 0:
                            f = MvPoly.one(spec, primes[0].m)
                            for P, e in zip(primes, exps):
                                f = f * P ** e
                            got = sorted((str(g), e) for g, e in squarefree_factor_oracle(f))
                            want = sorted((str(P.normalized()), e)
                                          for P, e in zip(primes, exps))
                            assert got == want
                            oracle_spot += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"radical enumeration took {elapsed:.1f}s"
    assert total > 2000
    _passline(4, f"{total} enumerated products over F_2/F_3 (m <= 2, deg <= 8): radical "
                 f"chain, square-free part and truncations all match the planted "
                 f"factorizations ({oracle_spot} oracle cross-checks) in {elapsed:.1f}s")


# -- criterion 5 ------------------------------------------------------------

def test_criterion_05_wronskian_certificates():
    made = {"zero": 0, "p": 0}
    for spec, key in ((Q2, "zero"), (Q3, "zero"), (F2, "p"), (F3, "p"), (F5, "p")):
        rng = random.Random(f"acc5-{spec}")
        target = 100 if key == "zero" else 70
        built = 0
        while built < target:
            n = rng.randint(2, 4)
            m = rng.randint(1, 2)
            fs = [random_poly(rng, spec, m, 4, nonzero=True) for _ in range(n)]
            if not f_independent(fs):
                continue
            if spec.characteristic == 0:
                c = 1
            else:
                c = spec.p ** (index_of_independence(fs).index_s - 1)
            cert = find_certificate(fs, c)
            assert not cert.determinant.is_zero()
            assert validate_certificate(cert)
            for prev, cur in zip(cert.gammas, cert.gammas[1:]):
                assert sum(cur) <= sum(prev) + c
            built += 1
            made[key] += 1
    # the power family: minimal working step is exactly p^(s-1), s the index
    for p_spec, s in ((F2, 1), (F2, 2), (F3, 1), (F3, 2)):
        one = MvPoly.one(p_spec, 1)
        z = MvPoly.variable(p_spec, 1, 0)
        fs = [one, z ** (p_spec.p ** s)]
        idx = index_of_independence(fs).index_s
        assert idx == s + 1
        step = p_spec.p ** (idx - 1)
        for c in range(1, step):
            with pytest.raises(SearchExhausted):
                find_certificate(fs, c)
        cert = find_certificate(fs, step)
        assert not cert.determinant.is_zero()
    assert made["zero"] >= 200 and made["p"] >= 200
    _passline(5, f"{made['zero']} char-0 and {made['p']} char-p independent tuples "
                 "certified at the guaranteed step; the power family needs exactly "
                 "p^(index-1)")


# -- criterion 6 ------------------------------------------------------------

def _coprime_pair(rng, spec, m, deg):
    lin = []
    for _ in range(6):
        v = rng.randrange(m)
        e = [0] * m
        e[v] = 1
        terms = {tuple(e): spec.one()}
        c = random_coeff(rng, spec)
        if not c.is_zero():
            terms[(0,) * m] = c
        lin.append(MvPoly(spec, m, terms))
    rng.shuffle(lin)
    half = len(lin) // 2

    def build(pool):
        f = MvPoly.constant(spec, m, random_coeff(rng, spec, nonzero=True))
        for g in pool:
            if rng.random() < 0.6 and f.total_degree() + g.total_degree() <= deg:
                f = f * g
        return f

    return build(lin[:half]), build(lin[half:])


def test_criterion_06_basic_abc_corpus():
    z, one = MvPoly.variable(Q2, 1, 0), MvPoly.one(Q2, 1)
    two = MvPoly.constant(Q2, 1, Q2.from_int(2))
    named = [(z * z + two * z, one), (z, one)]
    rep = verify_basic_abc(*named[0])
    assert rep.verdict == "HOLDS" and rep.degree_checks["basic"]["slack"] == 0

    verified = {"zero": 0, "p": 0}
    for spec, key, target in ((Q2, "zero", 20), (Q3, "zero", 15), (Q5, "zero", 15),
                              (F2, "p", 10), (F3, "p", 10), (F5, "p", 10)):
        rng = random.Random(f"acc6-{spec}")
        got = 0
        while got < target:
            m = rng.randint(1, 2)
            f0, f1 = _coprime_pair(rng, spec, m, 5)
            rep = verify_basic_abc(f0, f1)
            if rep.verdict != "HOLDS":
                continue
            assert rep.degree_checks["basic"]["ok"]
            assert Fraction(rep.margin_tables["basic"]["final_slope"]) >= 0
            got += 1
            verified[key] += 1
    for named_pair in named:
        rep = verify_basic_abc(*named_pair)
        assert rep.verdict == "HOLDS"
    # hypothesis-violation cases exit with status 2 through the CLI
    from polyabc.cli import main as cli_main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["verify-basic", "--instance", "instances/fermat_f5.json"])
    assert code == 2
    x3, y3 = MvPoly.variable(F3, 2, 0), MvPoly.variable(F3, 2, 1)
    assert verify_basic_abc(x3 ** 3, y3 ** 3).exit_code == 2
    assert verified["zero"] >= 50 and verified["p"] >= 30
    _passline(6, f"{verified['zero']} char-0 and {verified['p']} char-p coprime triples: "
                 "max deg f_i <= deg R(f0 f1 f2) - 1 with zero violations; "
                 "power-hypothesis violations exit 2")


# -- criteria 7 and 8 ----------------------------------------------------------

def _brute_vanishing_subsets(fs):
    out = []
    for size in range(1, len(fs)):
        for sub in itertools.combinations(range(len(fs)), size):
            acc = MvPoly.zero(fs[0].spec, fs[0].m)
            for i in sub:
                acc = acc + fs[i]
            if acc.is_zero():
                out.append(sub)
    return out


def _brute_subsum_gcd_ok(fs):
    for size in range(2, len(fs) + 1):
        for sub in itertools.combinations(range(len(fs)), size):
            acc = MvPoly.zero(fs[0].spec, fs[0].m)
            for i in sub:
                acc = acc + fs[i]
            if acc.is_zero():
                g = None
                for i in sub:
                    g = fs[i] if g is None else poly_gcd(g, fs[i])
                if not g.is_constant():
                    return False
    return True


def _corpus_for_generalized():
    grids = [
        ("q2", 1, 2, 4, "pairwise", 12), ("q2", 1, 3, 5, "none", 12),
        ("q2", 2, 3, 5, "kwise", 12), ("q3", 1, 4, 6, "pairwise", 12),
        ("q3", 2, 2, 4, "none", 12), ("q5", 1, 3, 4, "pairwise", 12),
        ("f2", 2, 3, 5, "pairwise", 12), ("f2", 2, 2, 4, "none", 12),
        ("f3", 1, 4, 6, "pairwise", 12), ("f3", 1, 2, 6, "kwise", 12),
        ("f5", 1, 3, 5, "pairwise", 12), ("f5", 2, 2, 4, "none", 12),
        ("q2", 1, 5, 6, "pairwise", 10), ("f3", 2, 3, 4, "pairwise", 10),
        ("q3", 1, 2, 3, "kwise", 12), ("f5", 1, 4, 4, "none", 12),
        ("q2", 1, 4, 5, "none", 12), ("f2", 1, 2, 5, "kwise", 12),
    ]
    instances = []
    for code, m, n, deg, mode, cnt in grids:
        cs = CorpusSpec(seed=1009, count=cnt, field=field_spec_from_code(code),
                        m=m, n=n, degree_bound=deg, coprimality=mode)
        for inst in generate_corpus(cs):
            instances.append((f"{code}-{mode}", inst.polys))
    # handcrafted edges: vanishing subsums, Frobenius powers, constants blocks
    z, one = MvPoly.variable(Q2, 1, 0), MvPoly.one(Q2, 1)
    c = lambda k: MvPoly.constant(Q2, 1, Q2.from_int(k))
    instances.append(("hand", [z, one, -(z + one), c(5), c(-5)]))
    instances.append(("hand", [z * z, c(2) * z + one, -(z + one) ** 2]))
    instances.append(("hand", [z, one, -(z + one), z * z + one, -(z * z + one)]))
    x5, y5 = MvPoly.variable(F5, 2, 0), MvPoly.variable(F5, 2, 1)
    instances.append(("hand", [x5 ** 5, y5 ** 5, -(x5 ** 5 + y5 ** 5)]))
    z3, one3 = MvPoly.variable(F3, 1, 0), MvPoly.one(F3, 1)
    instances.append(("hand", [one3, z3 ** 3, -(one3 + z3 ** 3)]))
    instances.append(("hand", [one3, z3 ** 9, -(one3 + z3 ** 9)]))
    g0 = z + one
    instances.append(("hand-gcdfail", [g0 * z, g0, -(g0 * (z + one))]))
    instances.append(("hand-defect", [z, -z, one, -one]))
    return instances


_GENERALIZED_CACHE = {}


def _run_generalized():
    if _GENERALIZED_CACHE:
        return _GENERALIZED_CACHE
    t0 = time.time()
    results = []
    for tag, fs in _corpus_for_generalized():
        rep1 = verify_abc_first(fs)
        rep2 = verify_abc_second(fs)
        results.append((tag, fs, rep1, rep2))
    _GENERALIZED_CACHE["results"] = results
    _GENERALIZED_CACHE["elapsed"] = time.time() - t0
    return _GENERALIZED_CACHE


def test_criterion_07_generalized_abc():
    data = _run_generalized()
    results = data["results"]
    assert len(results) >= 200
    holds = gates = 0
    for tag, fs, rep1, rep2 in results:
        # independent cross-check of the hypothesis gates
        gcd_ok = _brute_subsum_gcd_ok(fs)
        gate_names = {h["name"]: h["ok"] for h in rep1.hypotheses}
        if "vanishing_subsum_gcd" in gate_names:
            assert gate_names["vanishing_subsum_gcd"] == gcd_ok, tag
        if rep1.verdict == "HYPOTHESIS_VIOLATED":
            gates += 1
            assert not all(gate_names.values())
            continue
        assert rep1.verdict == "HOLDS", (tag, rep1.degree_checks)
        holds += 1
        assert "divisibility_ledger=ok" in rep1.notes
        for chk in rep1.degree_checks.values():
            assert chk["ok"]
        assert Fraction(rep1.margin_tables["sum_margin"]["final_slope"]) >= 0
        p = fs[0].spec.characteristic
        for block in rep1.blocks:
            if block.get("all_constant"):
                continue
            cst = block["constants"]
            assert cst["b"] >= cst["a_bar"] >= cst["a"] >= 1, (tag, cst)
            assert cst["a"] <= cst["c"] * (cst["d"] - 1)
            cap = cst["c"] * sum(cst["d"] - i for i in range(1, cst["k_bar"]))
            assert cst["a_bar"] <= cap
            if p:
                assert p ** cst["sigma"] <= cst["a"]
        # the product form: gates must match the independent subset searches
        subsums = _brute_vanishing_subsets(fs)
        names2 = {h["name"]: h["ok"] for h in rep2.hypotheses}
        if "no_vanishing_subsum" in names2:
            assert names2["no_vanishing_subsum"] == (not subsums), tag
        for note in rep2.notes:
            if note.startswith("k_autodetected="):
                k_auto = int(note.split("=")[1])
                for sub in itertools.combinations(range(len(fs)), k_auto):
                    g = None
                    for i in sub:
                        g = fs[i] if g is None else poly_gcd(g, fs[i])
                    assert g.is_constant(), (tag, sub)
                if k_auto > 2:
                    found_shared = any(
                        not poly_gcd(fs[i], fs[j]).is_constant()
                        for i in range(len(fs)) for j in range(i + 1, len(fs)))
                    assert found_shared or k_auto == 2, tag
        if rep2.verdict == "HOLDS":
            for chk in rep2.degree_checks.values():
                assert chk["ok"], (tag, rep2.degree_checks)
    assert holds >= 100
    assert gates >= 2
    assert data["elapsed"] < 600, f"generalized suite took {data['elapsed']:.1f}s"
    _passline(7, f"{len(results)} instances ({holds} verified, {gates} gated) in "
                 f"{data['elapsed']:.1f}s: gates cross-checked, constant chains, "
                 "divisibility ledger and slope inequalities all exact")


def test_criterion_08_corollaries():
    data = _run_generalized()
    four = five = sf = bb = 0
    for tag, fs, rep1, rep2 in data["results"]:
        if rep2.verdict == "HOLDS" and "squarefree_corollary" in rep2.degree_checks:
            assert rep2.degree_checks["squarefree_corollary"]["ok"], tag
            sf += 1
        if "triple_gcd_bound" in rep2.degree_checks:
            assert rep2.degree_checks["triple_gcd_bound"]["ok"], tag
            bb += 1
        if fs[0].spec.characteristic != 0 or rep1.verdict != "HOLDS":
            continue
        repc = verify_corollaries(fs)
        assert repc.verdict == "HOLDS", (tag, repc.degree_checks)
        assert repc.degree_checks["radical_truncation_exact"]["ok"]
        four += 1
        for name, chk in repc.degree_checks.items():
            assert chk["ok"], (tag, name)
            if name.startswith("level_sweep_A"):
                five += 1
    # dedicated k = 3 family for the (2n-3) bound, including the subsum path of
    # the squarefree corollary
    z, one = MvPoly.variable(Q3, 1, 0), MvPoly.one(Q3, 1)
    c = lambda k: MvPoly.constant(Q3, 1, Q3.from_int(k))
    rng = random.Random("acc8")
    k3 = 0
    for _ in range(60):
        shared = z + c(rng.randint(0, 2))
        f0 = shared * (z + c(rng.randint(0, 2)))
        f1 = shared.scale(Q3.from_int(rng.randint(1, 2)))
        f2 = MvPoly.constant(Q3, 1, Q3.from_int(rng.randint(1, 2)))
        closure = -(f0 + f1 + f2)
        fs = [f0, f1, f2, closure]
        if any(f.is_zero() for f in fs):
            continue
        if detect_k(coprime_base(fs), range(len(fs))) != 3:
            continue
        rep = verify_abc_second(fs, k=3)
        if rep.verdict != "HOLDS":
            continue
        if "triple_gcd_bound" in rep.degree_checks:
            assert rep.degree_checks["triple_gcd_bound"]["ok"]
            k3 += 1
    # vanishing-subsum path of the squarefree corollary
    zq, oneq = MvPoly.variable(Q2, 1, 0), MvPoly.one(Q2, 1)
    cq = lambda k: MvPoly.constant(Q2, 1, Q2.from_int(k))
    fs = [zq, oneq, -(zq + oneq), cq(5), cq(-5)]
    rep = verify_abc_second(fs)
    assert rep.verdict == "HOLDS"
    assert rep.degree_checks["squarefree_corollary"]["ok"]
    assert four >= 40 and five >= 40 and sf >= 40 and k3 >= 5
    _passline(8, f"corollaries: {four} exact degree bounds, {five} sweep levels, "
                 f"{sf} squarefree-corollary checks, {bb + k3} triple-gcd bounds, "
                 "zero violations")


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_pairwise_consistency():
    checked = 0
    for code in ("q2", "q3", "f3", "f5"):
        cs = CorpusSpec(seed=4242, count=10, field=field_spec_from_code(code),
                        m=1, n=3, degree_bound=5, coprimality="pairwise")
        for inst in generate_corpus(cs):
            fs = inst.polys
            rep1 = verify_abc_first(fs)
            rep2 = verify_abc_second(fs)
            assert rep2.verdict == rep1.verdict
            if rep1.verdict != "HOLDS":
                continue
            assert rep2.constants["a_bar"] == rep1.constants["a"], inst.instance_id
            # exact additivity of truncated counting under pairwise coprimality
            F = fs[0]
            for f in fs[1:]:
                F = F * f
            for ell in (1, rep1.constants["a"]):
                lhs = truncated_counting(F, ell).integrated
                rhs = None
                for f in fs:
                    cur = (PiecewiseLinear.line(0, 0) if f.is_constant()
                           else truncated_counting(f, ell).integrated)
                    rhs = cur if rhs is None else rhs + cur
                assert lhs == rhs, inst.instance_id
            checked += 1
    assert checked >= 25
    _passline(9, f"{checked} pairwise-coprime instances: product-form verdict and "
                 "truncation level match the sum form through exact counting additivity")


# -- criterion 10 -------------------------------------------------------------

def test_criterion_10_cli_determinism():
    from polyabc.cli import main as cli_main

    args = ["corpus-run", "--seed", "7", "--count", "5", "--field", "q2",
            "--m", "1", "--n", "2", "--deg", "4", "--check", "verify-abc1",
            "--format", "machine"]
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(args)
        outputs.append((code, buf.getvalue()))
    assert outputs[0] == outputs[1]
    json.loads(outputs[0][1])  # well-formed machine report
    _passline(10, "two corpus-run --seed 7 invocations: byte-identical machine reports")
