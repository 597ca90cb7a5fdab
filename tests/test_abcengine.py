import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyabc.abcengine import (AbcReport, BlockAnalysis, _circuits, _divisibility_ledger,
                               _subsum_gcd_condition, _vanishing, analyze_block, bm_partition,
                               detect_k, split_vanishing_subsums, verify_abc_first,
                               verify_abc_second, verify_basic_abc, verify_corollaries)
from polyabc.errors import CasError
from polyabc.instances import MAX_POLYS, CorpusSpec, field_spec_from_code, generate_corpus
from polyabc.mvpoly import MvPoly, poly_gcd
from polyabc.nevanlinna import truncated_counting
from polyabc.wronskian import f_independent, f_rank

from conftest import F2, F2T, F3, F3T, F5, Q2, Q3, property_coeff, random_coeff, random_poly
from test_wronskian import _largest_nonzero_minor


def _z(spec, m=1, i=0):
    return MvPoly.variable(spec, m, i)


def _one(spec, m=1):
    return MvPoly.one(spec, m)


def _c(spec, k, m=1):
    return MvPoly.constant(spec, m, spec.from_int(k))


# -- partitioning -------------------------------------------------------------

def test_bm_whole_set_minimal():
    z, one = _z(Q2), _one(Q2)
    part = bm_partition([one, z, -(one + z)])
    assert part.u == 1 and part.I_sets == [[0, 1, 2]] and part.J_sets == []


def test_bm_two_blocks():
    z, one = _z(Q2), _one(Q2)
    fs = [one, z, z + z, -(one + _c(Q2, 3) * z)]
    part = bm_partition(fs)
    assert part.u == 2
    assert part.I_sets == [[1, 2], [0, 3]]
    assert part.J_sets == [[1]]


def test_bm_not_sum_zero():
    z, one = _z(Q2), _one(Q2)
    with pytest.raises(CasError) as exc:
        bm_partition([one, -one, z])
    assert exc.value.code == "NOT_SUM_ZERO"


def test_bm_vanishing_subsum_rejected():
    z, one = _z(Q2), _one(Q2)
    with pytest.raises(CasError) as exc:
        bm_partition([z, -z, one, -one])
    assert exc.value.code == "VANISHING_SUBSUM"


def test_split_examples():
    z, one = _z(Q2), _one(Q2)
    assert split_vanishing_subsums([z, -z, one, -one]) == [[0, 1], [2, 3]]
    assert split_vanishing_subsums([one, z, -(one + z)]) == [[0, 1, 2]]
    fs = [z, one, -(z + one), _c(Q2, 5), _c(Q2, -5)]
    assert split_vanishing_subsums(fs) == [[3, 4], [0, 1, 2]]  # smallest first
    # {0, 3} and {1, 2} also vanish but are not unions of the blocks
    assert split_vanishing_subsums([z, -z, z, -z]) == [[0, 1], [2, 3]]


def _times(spec, c, f):
    return MvPoly.constant(spec, f.m, c) * f


def test_split_integer_row_forms():
    # Q: mixed denominators, read as integer rows over their lcm 12
    z, one = _z(Q2), _one(Q2)
    fs = [_times(Q2, Q2.from_fraction(Fraction(a, b)), f)
          for a, b, f in ((1, 2, z), (1, 3, z), (1, 4, one), (-5, 6, z), (-1, 4, one))]
    # F_5: residues 2 + 3 and 1 + 4 sum to exactly p, not to 0
    z5, one5 = _z(F5), _one(F5)
    gs = [_c(F5, 2) * z5, _c(F5, 3) * z5, one5, _c(F5, 4)]
    # F_3(t): denominators 1 + t and t cancel only in the subsum {0, 1, 3}
    zt, onet = _z(F3T), _one(F3T)
    c1, c2 = F3T.one() / (F3T.one() + F3T.t()), F3T.one() / F3T.t()
    hs = [_times(F3T, c1, zt), _times(F3T, c2, zt), onet, -_times(F3T, c1 + c2, zt), -onet]
    for tup, blocks in ((fs, [[2, 4], [0, 1, 3]]), (gs, [[0, 1], [2, 3]]),
                        (hs, [[2, 4], [0, 1, 3]])):
        assert _vanishing(tup) == _brute_vanishing(tup)
        assert split_vanishing_subsums(tup) == blocks
        assert _circuits(tup) == _brute_circuits(tup)


def _rank(fs):
    return f_rank(fs) if fs else 0


def _brute_vanishing(fs):
    """Every vanishing index set, summed as polynomials, in (size, lex) order;
    each subset's sum is the sum without its last index plus that function."""
    sums = {(): MvPoly.zero(fs[0].spec, fs[0].m)}
    for size in range(1, len(fs) + 1):
        for sub in combinations(range(len(fs)), size):
            sums[sub] = sums[sub[:-1]] + fs[sub[-1]]
    return [sub for sub, total in sums.items() if sub and total.is_zero()]


def _brute_split(fs):
    """Greedy restart: the first vanishing subset of what is left, until nothing is."""
    remaining, blocks = list(range(len(fs))), []
    while remaining:
        first = _brute_vanishing([fs[i] for i in remaining])[0]
        blocks.append([remaining[i] for i in first])
        remaining = [i for i in remaining if i not in blocks[-1]]
    return blocks


def _brute_circuits(fs):
    """Dependent index sets whose every one-smaller subset is independent,
    each subset ranked once; none has more than rank + 1 members."""
    ranks = {}

    def rank(sub):
        if sub not in ranks:
            ranks[sub] = _rank([fs[i] for i in sub])
        return ranks[sub]

    out = []
    for size in range(1, _rank(fs) + 2):
        for sub in combinations(range(len(fs)), size):
            if rank(sub) == size - 1 and all(
                    rank(kept) == size - 1 for kept in combinations(sub, size - 1)):
                out.append(sub)
    return out


def _brute_subsum_gcd_ok(fs):
    for sub in _brute_vanishing(fs):
        if len(sub) >= 2:
            g = fs[sub[0]]
            for i in sub[1:]:
                g = poly_gcd(g, fs[i])
            if not g.is_constant():
                return False
    return True


def _random_sum_zero(rng, spec, n, m=1):
    """n nonzero functions summing to zero, often from two closed groups, shuffled."""
    first = n if rng.random() < 0.5 else rng.randint(2, n - 2)
    fs = []
    for size in ([first, n - first] if first < n else [n]):
        # degree 2 over F_3 makes accidental vanishing subsums common
        group = [random_poly(rng, spec, m, 2 if spec == F3 else 3, nonzero=True)
                 for _ in range(size - 1)]
        closure = MvPoly.zero(spec, m)
        for f in group:
            closure = closure - f
        if closure.is_zero():
            return None
        fs += group + [closure]
    rng.shuffle(fs)
    return fs


def test_bm_partition_minimality_random():
    rng = random.Random("bmrand")
    for spec, m in [(spec, m) for spec in (Q2, F2, F3, F5, F3T) for m in (1, 2)]:
        for _ in range(12):
            fs = _random_sum_zero(rng, spec, rng.randint(4, 7), m)
            if fs is None:
                continue
            vanishing = _vanishing(fs)
            assert vanishing == _brute_vanishing(fs)
            assert split_vanishing_subsums(fs) == _brute_split(fs)
            assert _circuits(fs) == _brute_circuits(fs)
            assert _subsum_gcd_condition(fs, vanishing)[0] == _brute_subsum_gcd_ok(fs)
            try:
                part = bm_partition(fs)
            except CasError as exc:
                assert exc.code == "VANISHING_SUBSUM"
                assert len(vanishing) > 1
                continue
            seen = sorted(i for I in part.I_sets for i in I)
            assert seen == list(range(len(fs)))
            # each I_j with its bridge is minimal dependent
            for j, I in enumerate(part.I_sets):
                group = I if j == 0 else I + part.J_sets[j - 1]
                sub = [fs[i] for i in group]
                assert f_rank(sub) == len(sub) - 1
                for drop in range(len(group)):
                    kept = [fs[g] for gi, g in enumerate(group) if gi != drop]
                    assert f_rank(kept) == len(kept)
            for J in part.J_sets:
                assert J  # bridges are nonempty


@st.composite
def _scan_tuples(draw):
    """1 to MAX_POLYS functions in one variable of degree <= 4, with repeated
    rows, planted dependencies and several vanishing blocks: each function is
    a fresh polynomial, a multiple of an earlier one, a combination of two
    earlier ones, or the closure that makes the current block sum to zero."""
    spec = draw(st.sampled_from([Q2, F2, F3, F5, F2T, F3T]))
    coeff = property_coeff(spec)
    term = st.tuples(st.tuples(st.integers(0, 4)), coeff)
    fs, block = [], MvPoly.zero(spec, 1)
    for _ in range(draw(st.integers(1, MAX_POLYS) | st.just(MAX_POLYS))):
        how = draw(st.sampled_from(("fresh", "multiple", "combination", "closure")))
        if how == "closure" and not block.is_zero():
            fs.append(-block)
            block = MvPoly.zero(spec, 1)
            continue
        if how == "multiple" and fs:
            f = _times(spec, draw(coeff), draw(st.sampled_from(fs)))
        elif how == "combination" and len(fs) >= 2:
            f = (_times(spec, draw(coeff), draw(st.sampled_from(fs)))
                 + _times(spec, draw(coeff), draw(st.sampled_from(fs))))
        else:
            f = MvPoly.from_terms(spec, 1, draw(st.lists(term, max_size=4)))
        fs.append(f)
        block = block + f
    return fs


@settings(max_examples=50, deadline=None)
@given(_scan_tuples())
def test_property_subset_scans_match_brute_force(fs):
    assert _vanishing(fs) == _brute_vanishing(fs)
    assert _circuits(fs) == _brute_circuits(fs)


def _coeff_matrices(rng, spec):
    """Fixed cases, then random ones with zero columns and dependent rows."""
    # a pivot swap; a zero column; a zero first column; the zero matrix;
    # rank 1; over F_3 the first step of [[1, 2, 1], [2, 1, 2]] is
    # 1 * 1 - 2 * 2 = -3, zero only once reduced mod 3
    fixed = [[[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 1], [1, 0, 0]], [[0, 2], [0, 1]],
             [[0, 0], [0, 0]], [[2, 4], [1, 2], [3, 6]], [[1, 2, 1], [2, 1, 2]],
             [[1, 2, 1], [2, 1, 2], [0, 1, 1]]]
    mats = [[[spec.from_int(x) for x in row] for row in mat] for mat in fixed]
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        zero_col = rng.randrange(ncols) if rng.random() < 0.5 else None
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.3:
                a, b = rng.choice(rows), rng.choice(rows)
                g, h = random_coeff(rng, spec), random_coeff(rng, spec)
                rows.append([g * x + h * y for x, y in zip(a, b)])
            else:
                rows.append([spec.zero() if j == zero_col or rng.random() < 0.3
                             else random_coeff(rng, spec) for j in range(ncols)])
        mats.append(rows)
    return mats


@pytest.mark.parametrize("spec", [Q2, F3, F2T, F3T], ids=["Q2", "F3", "F2T", "F3T"])
def test_coefficient_ranks_match_minors(spec):
    # f_rank, f_independent and the circuit ranks against the largest
    # nonzero minor of the coefficient matrix, entries as constant MvPoly
    rng = random.Random(f"ranks-{spec}")
    for mat in _coeff_matrices(rng, spec):
        fs = [MvPoly.from_terms(spec, 1, [((j,), c) for j, c in enumerate(row)]) for row in mat]

        def minor_rank(idxs):
            consts = [[MvPoly.constant(spec, 1, c) for c in mat[i]] for i in idxs]
            return _largest_nonzero_minor(consts) if consts else 0

        n = len(fs)
        assert f_rank(fs) == minor_rank(range(n)), (spec, mat)
        assert f_independent(fs) == (minor_rank(range(n)) == n), (spec, mat)
        circuits = [sub for size in range(1, n + 1) for sub in combinations(range(n), size)
                    if minor_rank(sub) < size
                    and all(minor_rank(s) == size - 1 for s in combinations(sub, size - 1))]
        assert _circuits(fs) == circuits, (spec, mat)


# -- constants ----------------------------------------------------------------

def test_constants_example_char0():
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    consts = analyze_block(fs).constants
    assert (consts.d, consts.c, consts.a, consts.b) == (2, 1, 1, 1)
    assert consts.b >= consts.a_bar >= consts.a >= 1


def test_constants_example_charp():
    zp, one = _z(F3), _one(F3)
    fs = [one, zp ** 3, -(one + zp ** 3)]
    consts = analyze_block(fs).constants
    assert (consts.c, consts.a, consts.sigma) == (3, 3, 1)
    assert 3 ** consts.sigma <= consts.a


def test_constants_char0_quadratic_chain():
    # in characteristic 0 the chain bound reads b >= a(a+1)/2
    rng = random.Random("chain0")
    for _ in range(25):
        fs = [random_poly(rng, Q3, 1, 4, nonzero=True) for _ in range(3)]
        closure = MvPoly.zero(Q3, 1)
        for f in fs:
            closure = closure - f
        if closure.is_zero():
            continue
        fs.append(closure)
        try:
            consts = analyze_block(fs).constants
        except CasError:
            continue
        assert consts.b >= consts.a * (consts.a + 1) // 2


def test_detect_k():
    z, one = _z(Q2), _one(Q2)
    fs = [z, z, one, -(one + _c(Q2, 2) * z)]
    assert detect_k(fs) == 3
    fs2 = [z, one, -(one + z)]
    assert detect_k(fs2) == 2


# -- the basic theorem ---------------------------------------------------------

def test_basic_example_slack_zero():
    z, one = _z(Q2), _one(Q2)
    rep = verify_basic_abc(z * z + _c(Q2, 2) * z, one)
    assert rep.verdict == "HOLDS"
    assert rep.degree_checks["basic"]["slack"] == 0
    rep2 = verify_basic_abc(z, one)
    assert rep2.verdict == "HOLDS"
    assert rep2.degree_checks["basic"] == {"lhs": 1, "rhs": 1, "slack": 0, "ok": True}


def test_basic_fermat_gate():
    x, y = _z(F5, 2, 0), _z(F5, 2, 1)
    rep = verify_basic_abc(x ** 5, y ** 5)
    assert rep.verdict == "HYPOTHESIS_VIOLATED"
    assert any(h["name"] == "one_not_pth_power" and not h["ok"] for h in rep.hypotheses)
    assert rep.exit_code == 2


def test_basic_not_coprime_gate():
    z, one = _z(Q2), _one(Q2)
    rep = verify_basic_abc(z * (z + one), z)
    assert rep.verdict == "HYPOTHESIS_VIOLATED"
    assert any(h["name"] == "coprime" and not h["ok"] for h in rep.hypotheses)


def test_basic_margin_slope_nonnegative():
    rng = random.Random("basicm")
    for spec in (Q2, F3):
        for _ in range(15):
            f0 = random_poly(rng, spec, 1, 4, nonzero=True)
            f1 = random_poly(rng, spec, 1, 4, nonzero=True)
            rep = verify_basic_abc(f0, f1)
            if rep.verdict != "HOLDS":
                continue
            assert Fraction(rep.margin_tables["basic"]["final_slope"]) >= 0


# -- the generalized theorems ---------------------------------------------------

def test_first_example():
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    rep = verify_abc_first(fs)
    assert rep.verdict == "HOLDS"
    assert rep.degree_checks["sum"]["slack"] == 0
    assert rep.constants["a"] == 1 and rep.constants["b"] == 1
    assert "divisibility_ledger=ok" in rep.notes


def test_first_charp_fermat():
    x, y = _z(F5, 2, 0), _z(F5, 2, 1)
    fs = [x ** 5, y ** 5, -(x ** 5 + y ** 5)]
    rep = verify_abc_first(fs)
    assert rep.verdict == "HOLDS"
    assert rep.constants["d"] == 2
    assert rep.constants["sigma"] is not None
    assert 5 ** rep.constants["sigma"] <= rep.constants["a"]


def test_first_gcd_gate():
    z, one = _z(Q2), _one(Q2)
    g = z + one
    fs = [g * z, g * one, -g * (z + one)]
    rep = verify_abc_first(fs)
    assert rep.verdict == "HYPOTHESIS_VIOLATED"
    assert any(h["name"] == "vanishing_subsum_gcd" and not h["ok"] for h in rep.hypotheses)


def test_first_multiblock():
    z, one = _z(Q2), _one(Q2)
    fs = [z, one, -(z + one), _c(Q2, 5), _c(Q2, -5)]
    rep = verify_abc_first(fs)
    assert rep.verdict == "HOLDS"
    assert any(b.get("all_constant") for b in rep.blocks)
    assert any(n.startswith("multi_block") for n in rep.notes)


def test_scaling_invariance():
    z, one = _z(Q2), _one(Q2)
    base = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    rep0 = verify_abc_first(base)
    scaled = [f.scale(Q2.from_fraction(Fraction(7, 3))) for f in base]
    rep1 = verify_abc_first(scaled)
    assert rep0.verdict == rep1.verdict == "HOLDS"
    assert rep0.constants == rep1.constants
    assert rep0.degree_checks == rep1.degree_checks
    # likewise for the basic theorem under a common rescaling
    c = Q2.from_fraction(Fraction(5, 3))
    b0 = verify_basic_abc(z * z + _c(Q2, 2) * z, one)
    b1 = verify_basic_abc((z * z + _c(Q2, 2) * z).scale(c), one.scale(c))
    assert b0.verdict == b1.verdict and b0.degree_checks == b1.degree_checks


def test_second_agrees_with_first_on_pairwise():
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    rep1 = verify_abc_first(fs)
    rep2 = verify_abc_second(fs)
    assert rep2.verdict == rep1.verdict == "HOLDS"
    assert rep2.constants["a_bar"] == rep1.constants["a"]


def test_second_k_gate():
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    rep = verify_abc_second(fs, k=5)
    assert rep.verdict == "HYPOTHESIS_VIOLATED"


def test_second_vanishing_subsum_gate_for_kbar_gt_2():
    # d >= 3 instance with a vanishing proper subsum and k = 3
    z, one = _z(Q2), _one(Q2)
    z2 = z * z
    fs = [one, -one, z, z2, -(z + z2)]
    rep = verify_abc_second(fs, k=3)
    if rep.constants and rep.constants.get("k_bar", 3) > 2:
        assert rep.verdict == "HYPOTHESIS_VIOLATED"
    assert any(h["name"] == "no_vanishing_subsum" and not h["ok"] for h in rep.hypotheses) \
        or rep.verdict == "HYPOTHESIS_VIOLATED"


def test_second_defect_regime_is_gated():
    # k-bar = 2 with vanishing subsums and a non-coprime proportional pair:
    # the product bound genuinely fails there, so the engine must gate it
    z, one = _z(Q2), _one(Q2)
    fs = [z, -z, one, -one]
    rep = verify_abc_second(fs, k=3)
    assert rep.verdict == "HYPOTHESIS_VIOLATED"
    assert any(h["name"] == "block_coprimality" and not h["ok"] for h in rep.hypotheses)


def test_second_multiblock_per_index_note():
    z, one = _z(Q2), _one(Q2)
    fs = [z, one, -(z + one), _c(Q2, 5), _c(Q2, -5)]
    rep = verify_abc_second(fs)
    assert rep.verdict == "HOLDS"
    assert any("no relation between them is asserted" in n for n in rep.notes)


def test_second_bb_bound_on_k3():
    # triple-wise coprime, not pairwise: shared linear factors among pairs
    z, one = _z(Q3), _one(Q3)
    fs = [z, z, one, -(one + _c(Q3, 2) * z)]
    assert detect_k(fs) == 3
    rep = verify_abc_second(fs)
    assert rep.verdict == "HOLDS"
    assert "triple_gcd_bound" in rep.degree_checks
    assert rep.degree_checks["triple_gcd_bound"]["ok"]


def test_truncation_comparison_charp():
    # N through the sigma-radical never exceeds the squarefree truncation
    from polyabc.radicals import sigma_radical_gcd, trunc_gcd

    rng = random.Random("cmp")
    zp, one = _z(F3), _one(F3)
    for _ in range(15):
        f = random_poly(rng, F3, 1, 5, nonzero=True)
        if f.is_constant():
            continue
        for sigma, a in ((0, 1), (0, 2), (1, 2), (1, 3)):
            g1 = sigma_radical_gcd(f, a, sigma)
            g2 = trunc_gcd(f, a)
            assert g1.total_degree() <= g2.total_degree()


def test_ledger_on_random_instances():
    rng = random.Random("ledger")
    holds = 0
    for _ in range(12):
        fs = [random_poly(rng, Q2, 1, 3, nonzero=True) for _ in range(3)]
        closure = MvPoly.zero(Q2, 1)
        for f in fs:
            closure = closure - f
        if closure.is_zero():
            continue
        fs.append(closure)
        rep = verify_abc_first(fs)
        if rep.verdict == "HOLDS":
            holds += 1
            assert "divisibility_ledger=ok" in rep.notes
    assert holds >= 3


def _ledger(fs, gs, w):
    rep = AbcReport(instance_id="", check="first")
    block = BlockAnalysis(indices=list(range(len(fs))), all_constant=False, wronskian_product=w)
    _divisibility_ledger(rep, fs, [block], dict(enumerate(gs)))
    return rep


def test_ledger_divides_w_by_each_cofactor():
    # f_j = G_j h_j: F | W * prod G_j iff prod h_j | W
    z, one = _z(F3), _one(F3)
    fs = [z ** 3 * (z + one), (z + one) ** 2, z + _c(F3, 2)]
    gs = [z * (z + one), z + one, one]
    hs = [z * z, z + one, z + _c(F3, 2)]
    w = hs[0] * hs[1] * hs[2]
    assert "divisibility_ledger=ok" in _ledger(fs, gs, w * (z + _c(F3, 2))).notes
    for short in (hs[0] * hs[1], z * hs[1] * hs[2]):  # a factor of h_2, then of h_0, missing
        with pytest.raises(CasError) as exc:
            _ledger(fs, gs, short)
        assert exc.value.code == "LEDGER_FAILURE"
        assert str(exc.value) == "block [0, 1, 2]: F does not divide W*G"


def test_ledger_rejects_g_not_dividing_f():
    # W * G = z^2 (z + 1) is divisible by F = z^2, but G = z + 1 does not divide f
    z, one = _z(Q2), _one(Q2)
    with pytest.raises(CasError) as exc:
        _ledger([z * z], [z + one], z * z)
    assert exc.value.code == "LEDGER_FAILURE"


# -- corollaries ----------------------------------------------------------------

def test_corollaries_example():
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    rep = verify_corollaries(fs)
    assert rep.verdict == "HOLDS"
    assert rep.degree_checks["radical_truncation_exact"]["ok"]
    ra = rep.degree_checks["radical_truncation_exact"]
    assert ra["lhs"] == 2 and ra["rhs"] == 2  # a = 1: r_1 degrees 1+1+1, minus 1
    assert rep.degree_checks["level_sweep_A2"]["ok"]


def test_corollaries_char_p_rejected():
    zp, one = _z(F3), _one(F3)
    with pytest.raises(CasError) as exc:
        verify_corollaries([one, zp ** 3, -(one + zp ** 3)])
    assert exc.value.code == "WRONG_CHARACTERISTIC"


def test_corollaries_sweep_range_gate():
    # d = n - C + 1 leaves an empty sweep range
    z, one = _z(Q2), _one(Q2)
    fs = [z, one, -(z + one)]
    rep = verify_corollaries(fs)
    assert rep.verdict == "HOLDS"
    has_sweep = any(k.startswith("level_sweep_A") for k in rep.degree_checks)
    if not has_sweep:
        assert any("level_sweep_skipped" in n for n in rep.notes)


def test_truncated_counting_additivity_pairwise():
    # pairwise coprime: the product truncation splits into the factors'
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    F = fs[0] * fs[1] * fs[2]
    for ell in (1, 2, 3):
        lhs = truncated_counting(F, ell).integrated
        rhs = None
        for f in fs:
            cur = truncated_counting(f, ell).integrated
            rhs = cur if rhs is None else rhs + cur
        assert lhs == rhs


def _count_decompositions(monkeypatch):
    import polyabc.abcengine
    import polyabc.radicals

    calls = []
    square_free_decomposition = polyabc.radicals.square_free_decomposition

    def counted(g, top):
        calls.append(g)
        return square_free_decomposition(g, top)

    for mod in (polyabc.radicals, polyabc.abcengine):
        monkeypatch.setattr(mod, "square_free_decomposition", counted)
    return calls


def test_second_decomposes_each_factor_once_and_never_the_product(monkeypatch):
    # S(F) and gcd(F, S(F)^a_bar) are read off the f_j's decompositions
    z, one = _z(F2), _one(F2)
    fs = [z * z * (z + one), one, z ** 3 + z * z + one]
    F = fs[0] * fs[1] * fs[2]
    calls = _count_decompositions(monkeypatch)
    rep = verify_abc_second(fs)
    assert rep.verdict == "HOLDS"
    assert "squarefree_corollary" in rep.degree_checks
    assert F not in calls
    assert [sum(g == f for g in calls) for f in fs] == [1, 0, 1]


def test_no_radical_of_a_product_on_the_heavy_tail(monkeypatch):
    # F_3(t), m = 2, n = 3, degree bound 6, corpus seed 1, instance 1-0001:
    # deg prod f_j = 16, whose own decomposition once dominated both checks;
    # neither check hands a polynomial above max deg f_j to the radicals
    import polyabc.abcengine
    import polyabc.radicals

    spec = field_spec_from_code("f3t")
    inst = generate_corpus(CorpusSpec(seed=1, count=2, field=spec, m=2, n=3,
                                      degree_bound=6))[1]
    assert inst.instance_id == "1-0001"
    fs = inst.polys
    top = max(f.total_degree() for f in fs)
    assert sum(f.total_degree() for f in fs) == 16
    degrees = []
    for name in ("square_free_decomposition", "radical"):
        def counted(g, *args, _real=getattr(polyabc.radicals, name)):
            degrees.append(g.total_degree())
            return _real(g, *args)
        for mod in (polyabc.radicals, polyabc.abcengine):
            monkeypatch.setattr(mod, name, counted)
    assert verify_abc_second(fs).verdict == "HOLDS"
    assert verify_basic_abc(fs[0], fs[1]).verdict == "HOLDS"
    assert degrees and max(degrees) <= top


def test_second_runs_each_analysis_once(monkeypatch):
    # detect_k runs only when k is not given, and a single block's
    # constants carry the step c of the whole tuple
    import polyabc.abcengine

    z, one = _z(F2), _one(F2)
    fs = [z * z * (z + one), one, z ** 3 + z * z + one]
    calls = dict.fromkeys(("detect_k", "collection_independence_index"), 0)
    for name in calls:
        def counted(*args, _real=getattr(polyabc.abcengine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(polyabc.abcengine, name, counted)
    for k, detects in ((2, 0), (None, 1)):
        calls.update(dict.fromkeys(calls, 0))
        rep = verify_abc_second(fs, k=k)
        assert rep.verdict == "HOLDS"
        assert calls == {"detect_k": detects, "collection_independence_index": 1}


@pytest.mark.parametrize("verify, spec", [(verify_abc_first, Q2), (verify_abc_first, F2),
                                          (verify_corollaries, Q2)])
def test_one_decomposition_per_function(monkeypatch, verify, spec):
    # every truncation of f_j, and in characteristic p its sigma-radical
    # gcd, is read off one decomposition of f_j; constants get none
    z, one = _z(spec), _one(spec)
    if spec.characteristic:
        fs = [z * z * (z + one), one, z ** 3 + z * z + one]
    else:
        fs = [z * z, _c(spec, 2) * z + one, -(z + one) ** 2]
    calls = _count_decompositions(monkeypatch)
    rep = verify(fs)
    assert rep.verdict == "HOLDS"
    assert [sum(g == f for g in calls) for f in fs] == [0 if f.is_constant() else 1
                                                       for f in fs]


def test_second_computes_max_norm_once(monkeypatch):
    import polyabc.abcengine

    z, one = _z(F2), _one(F2)
    fs = [z * z * (z + one), one, z ** 3 + z * z + one]
    calls = []
    max_log_profile = polyabc.abcengine._max_log_profile

    def counted(gs):
        calls.append(len(gs))
        return max_log_profile(gs)

    monkeypatch.setattr(polyabc.abcengine, "_max_log_profile", counted)
    rep = verify_abc_second(fs)
    assert rep.verdict == "HOLDS"
    assert {"product_margin", "squarefree_margin"} <= set(rep.margin_tables)
    assert calls == [3]


def test_second_evaluates_subsum_gcd_condition_once(monkeypatch):
    import polyabc.abcengine

    # characteristic 0, k = 3, two blocks and d = 2: both the squarefree
    # corollary and the triple-gcd bound read the condition
    z, one = _z(Q3), _one(Q3)
    fs = [z, one, -(z + one), z, one, -(z + one)]
    calls = []
    condition = polyabc.abcengine._subsum_gcd_condition

    def counted(*args):
        calls.append(args)
        return condition(*args)

    monkeypatch.setattr(polyabc.abcengine, "_subsum_gcd_condition", counted)
    rep = verify_abc_second(fs)
    assert rep.verdict == "HOLDS"
    assert "k_autodetected=3" in rep.notes
    assert rep.constants["d"] == 2 and len(rep.blocks) == 2
    assert {"squarefree_corollary", "triple_gcd_bound"} <= set(rep.degree_checks)
    assert len(calls) == 1


@pytest.mark.parametrize("verify", [verify_abc_first, verify_abc_second, verify_corollaries])
def test_one_subset_walk_per_verification(monkeypatch, verify):
    import polyabc.abcengine

    # one block: the partition reuses the verification's walk
    z, one = _z(Q2), _one(Q2)
    fs = [z * z, _c(Q2, 2) * z + one, -(z + one) ** 2]
    calls = []
    walk = polyabc.abcengine._vanishing

    def counted(gs):
        calls.append(len(gs))
        return walk(gs)

    monkeypatch.setattr(polyabc.abcengine, "_vanishing", counted)
    rep = verify(fs)
    assert rep.verdict == "HOLDS" and len(rep.blocks) == 1 and rep.certificates
    assert calls == [3]


@pytest.mark.parametrize("code, seed", [("q2", 5), ("f3", 2), ("f2t", 2), ("f3t", 1)])
def test_second_product_objects_match_the_product_on_shared_factors(code, seed):
    # k-wise corpora share factors between the f_j, so F's decomposition is
    # refined from theirs; the truncation and square-free degrees must be
    # those of F = prod f_j itself
    from polyabc.radicals import square_free_part, trunc_gcd

    spec = field_spec_from_code(code)
    checked = 0
    for inst in generate_corpus(CorpusSpec(seed=seed, count=4, field=spec, m=2, n=3,
                                           degree_bound=4, coprimality="kwise")):
        fs = inst.polys
        rep = verify_abc_second(fs)
        if "squarefree_corollary" not in rep.degree_checks:
            continue
        F = fs[0] * fs[1] * fs[2] * fs[3]
        assert (f"product_truncation_degree={trunc_gcd(F, rep.constants['a_bar']).total_degree()}"
                in rep.notes)
        big_a = next(int(note.split("=")[1]) for note in rep.notes
                     if note.startswith("squarefree_corollary_bound="))
        assert (rep.degree_checks["squarefree_corollary"]["rhs"]
                == big_a * (square_free_part(F).total_degree() - 1))
        checked += 1
    assert checked >= 2
