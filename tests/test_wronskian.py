import random
from itertools import combinations
from operator import floordiv, mul, not_, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyabc.errors import CasError, SearchExhausted
from polyabc.fields import RATFUNC_T_ADIC, FieldSpec, _dense_trim, _int_step, _ring_step
from polyabc.mvpoly import DenseLevel, MvPoly
from polyabc.oracle import multiplicity
from polyabc.wronskian import (_bareiss, bareiss_det, collection_independence_index,
                               f_independent, f_rank, find_certificate, index_of_independence,
                               poly_matrix_rank)

from conftest import F2, F2T, F3, F3T, F5, Q2, property_coeff, random_poly
from helpers import (frobenius_power, gen_wronskian, independent_over_power_subfield,
                     ref_collection_index, validate_certificate)


def _z(spec, m=1, i=0):
    return MvPoly.variable(spec, m, i)


def _one(spec, m=1):
    return MvPoly.one(spec, m)


def test_gen_wronskian_examples():
    z, one = _z(Q2), _one(Q2)
    assert gen_wronskian([one, z], [(0,), (1,)]) == one
    zp = _z(F3)
    assert gen_wronskian([_one(F3), zp ** 3], [(0,), (3,)]) == _one(F3)
    f = random_poly(random.Random(0), Q2, 1, 3, nonzero=True)
    assert gen_wronskian([f, f], [(0,), (1,)]).is_zero()


def test_gen_wronskian_validation():
    with pytest.raises(CasError):
        gen_wronskian([_z(Q2)], [(0,), (1,)])
    with pytest.raises(CasError):
        gen_wronskian([_z(Q2), _one(Q2)], [(1,), (0,)])


def test_certificate_char0():
    z, one = _z(Q2), _one(Q2)
    cert = find_certificate([one, z], 1)
    assert cert.gammas == [(0,), (1,)]
    assert cert.determinant == one
    assert validate_certificate(cert)


def test_certificate_charp_exhaustion_and_success():
    zp, one = _z(F3), _one(F3)
    with pytest.raises(SearchExhausted):
        find_certificate([one, zp ** 3], 1)
    with pytest.raises(SearchExhausted):
        find_certificate([one, zp ** 3], 2)
    cert = find_certificate([one, zp ** 3], 3)
    assert cert.gammas == [(0,), (3,)]
    assert not cert.determinant.is_zero()
    assert validate_certificate(cert)


def test_certificate_not_independent():
    z = _z(Q2)
    with pytest.raises(CasError) as exc:
        find_certificate([z, z + z], 1)
    assert exc.value.code == "NOT_F_INDEPENDENT"


def test_certificate_monotone_in_step():
    rng = random.Random("mono")
    for spec in (Q2, F3):
        for _ in range(20):
            fs = [random_poly(rng, spec, 1, 4, nonzero=True) for _ in range(3)]
            if not f_independent(fs):
                continue
            for c in (1, 2, 3, 4):
                try:
                    cert = find_certificate(fs, c)
                except SearchExhausted:
                    continue
                assert validate_certificate(cert)  # the determinant matches gen_wronskian's
                # once a step works, bigger steps work too
                for c2 in range(c + 1, 5):
                    cert2 = find_certificate(fs, c2)
                    assert not cert2.determinant.is_zero()
                break


def test_nonzero_wronskian_implies_independence():
    # dependent tuples make every generalized Wronskian vanish
    rng = random.Random("dep")
    for spec in (Q2, F3):
        for _ in range(15):
            f = random_poly(rng, spec, 2, 3, nonzero=True)
            g = random_poly(rng, spec, 2, 3, nonzero=True)
            h = f + g  # dependent triple
            for gammas in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (0, 1), (1, 1)]):
                assert gen_wronskian([f, g, h], gammas).is_zero()


def test_index_examples():
    zp, one = _z(F3), _one(F3)
    res = index_of_independence([one, zp ** 3])
    assert res.index_s == 2
    level, qs = res.dependent_over
    assert level == 1
    acc = MvPoly.zero(F3, 1)
    for q, f in zip(qs, [one, zp ** 3]):
        acc = acc + q * f
    assert acc.is_zero()
    assert index_of_independence([one, zp]).index_s == 1
    x, y = _z(F3, 2, 0), _z(F3, 2, 1)
    assert index_of_independence([_one(F3, 2), x ** 3 * y ** 9]).index_s == 2
    # f_2 = g_0^p f_0 + g_1^p f_1 is dependent over the p-th powers
    rng = random.Random("witness")
    seen = 0
    while seen < 20:
        spec = rng.choice((F2, F3, F2T, F3T))
        m = rng.randint(1, 2)
        f0, f1, g0, g1 = (random_poly(rng, spec, m, 2, nonzero=True) for _ in range(4))
        fs = [f0, f1, g0 ** spec.p * f0 + g1 ** spec.p * f1]
        if not f_independent(fs):
            continue
        res = index_of_independence(fs)
        assert res.index_s > 1
        level, qs = res.dependent_over
        q = spec.p ** level
        assert any(not Q.is_zero() for Q in qs)
        assert all(e % q == 0 for Q in qs for exps in Q.terms for e in exps)
        acc = MvPoly.zero(spec, m)
        for Q, f in zip(qs, fs):
            acc = acc + Q * f
        assert acc.is_zero()
        seen += 1


def test_index_wrong_characteristic():
    with pytest.raises(CasError) as exc:
        index_of_independence([_one(Q2), _z(Q2)])
    assert exc.value.code == "WRONG_CHARACTERISTIC"


def test_index_reports_cap():
    zp, one = _z(F2), _one(F2)
    res = index_of_independence([one, zp ** 4])
    assert res.index_s == 3           # z^4 = z^(p^2) over F_2
    assert res.search_cap >= res.index_s - 1


def test_collection_index():
    zp, one = _z(F3), _one(F3)
    fs = [one, zp ** 3, -(one + zp ** 3)]
    assert collection_independence_index(fs) == 2
    fs2 = [one, zp, -(one + zp)]
    assert collection_independence_index(fs2) == 1
    # z1^4 and z2^4 (1 + z1^4) are dependent over the squares and the 4th
    # powers, independent over the 8th powers
    x, y, one = _z(F2, 2, 0), _z(F2, 2, 1), _one(F2, 2)
    fs3 = [x ** 4, y ** 4 * (one + x ** 4), x ** 4 + y ** 4 * (one + x ** 4)]
    assert collection_independence_index(fs3) == ref_collection_index(fs3) == 3
    assert collection_independence_index([MvPoly.zero(F2, 2)] * 2) == 1


@st.composite
def _power_collections(draw):
    """n functions f_i = sum_j Q_ij^(p^L) u_j over r < n small u_j: their span
    over the p^L-th powers has dimension at most r, so when the field rank
    exceeds r the collection index exceeds L."""
    spec = draw(st.sampled_from([F2, F3, F5, F2T, F3T]))
    m = draw(st.integers(1, 2))
    level = draw(st.sampled_from([0, 1, 2, 2]))
    r = draw(st.integers(1, 2))
    n = draw(st.integers(r + 1, 4))

    def poly(deg):
        term = st.tuples(st.tuples(*[st.integers(0, deg)] * m), property_coeff(spec))
        return MvPoly.from_terms(spec, m, draw(st.lists(term, min_size=1, max_size=3)))

    us = [poly(2) for _ in range(r)]
    fs = []
    for _ in range(n):
        f = MvPoly.zero(spec, m)
        for u in us:
            q = poly(1) + MvPoly.variable(spec, m, draw(st.integers(0, m - 1)))
            f = f + frobenius_power(q, level) * u
        fs.append(f)
    return fs


@settings(max_examples=150, deadline=None)
@given(_power_collections())
def test_property_collection_index_matches_per_basis_search(fs):
    s = collection_independence_index(fs)
    assert s == ref_collection_index(fs)
    if f_independent(fs):
        assert index_of_independence(fs).index_s == s


def test_divisibility_single_function():
    # P^e || f_i with e > |gamma^last| leaves at least e - |gamma^last| in W
    z, one = _z(Q2), _one(Q2)
    P = z + one
    rng = random.Random("divw")
    for e in (2, 3, 4):
        f0 = P ** e * (z + MvPoly.constant(Q2, 1, Q2.from_int(2)))
        f1 = z
        gammas = [(0,), (1,)]
        W = gen_wronskian([f0, f1], gammas)
        if W.is_zero():
            continue
        assert multiplicity(W, P) >= e - 1


def test_divisibility_charp_full_multiplicity():
    # p^t | e with p^t above every component keeps the full P^e in W
    zp, one = _z(F3), _one(F3)
    P = zp + one
    f0 = P ** 9 * zp
    f1 = zp + MvPoly.constant(F3, 1, F3.from_int(2))
    W = gen_wronskian([f0, f1], [(0,), (1,)])
    assert not W.is_zero()
    assert multiplicity(W, P) >= 9


def test_product_level_divisibility():
    # with k the coprimality level, the loss is the top k-1 derivative weights
    z, one = _z(Q2), _one(Q2)
    P = z
    rng = random.Random("wtrunc")
    for _ in range(10):
        e0, e1 = rng.randint(1, 3), rng.randint(1, 3)
        f0 = P ** e0 * (z + one)
        f1 = P ** e1 * (z + MvPoly.constant(Q2, 1, Q2.from_int(2)))
        f2 = one + z ** 5
        fs = [f0, f1, f2]
        gammas = [(0,), (1,), (2,)]
        W = gen_wronskian(fs, gammas)
        if W.is_zero():
            continue
        k = 3  # P divides f0 and f1 but not f2
        ell = 2 + 1  # |gamma^2| + |gamma^1|
        e = e0 + e1
        if e > ell:
            assert multiplicity(W, P) >= e - ell


def _cofactor_det(M):
    if len(M) == 1:
        return M[0][0]
    det = MvPoly.zero(M[0][0].spec, M[0][0].m)
    for j, x in enumerate(M[0]):
        minor = _cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
        det = det + x * minor if j % 2 == 0 else det - x * minor
    return det


def _largest_nonzero_minor(M):
    for k in range(min(len(M), len(M[0])), 0, -1):
        for rs in combinations(range(len(M)), k):
            for cs in combinations(range(len(M[0])), k):
                if not _cofactor_det([[M[i][j] for j in cs] for i in rs]).is_zero():
                    return k
    return 0


def _random_matrix(rng, spec, m, nrows, ncols):
    """Entries of degree <= 2, some zero; some rows combine earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            g, h = (random_poly(rng, spec, m, 1, max_terms=2) for _ in range(2))
            rows.append([g * x + h * y for x, y in zip(a, b)])
        else:
            rows.append([random_poly(rng, spec, m, 2, max_terms=3) if rng.random() < 0.8
                         else MvPoly.zero(spec, m) for _ in range(ncols)])
    return rows


def test_poly_matrix_rank_basic():
    z, one = _z(Q2), _one(Q2)
    rows = [[one, z], [z, z * z]]
    assert poly_matrix_rank(rows) == 1
    rows = [[one, z], [z, z * z + one]]
    assert poly_matrix_rank(rows) == 2
    rng = random.Random("bareiss")
    for spec in (Q2, F3, F3T):
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            M = _random_matrix(rng, spec, m, n, n)
            assert bareiss_det(M) == _cofactor_det(M)
            assert poly_matrix_rank(M) == _largest_nonzero_minor(M)
            R = _random_matrix(rng, spec, m, rng.randint(1, 4), rng.randint(1, 4))
            assert poly_matrix_rank(R) == _largest_nonzero_minor(R)


def test_f_rank():
    z, one = _z(Q2), _one(Q2)
    assert f_rank([one, z, one + z]) == 2
    assert f_rank([z, z + z]) == 1


def test_charp_multivariate_certificates_with_power_structure():
    rng = random.Random("mvcert")
    done = 0
    while done < 25:
        base = [random_poly(rng, F2, 2, 2, nonzero=True) for _ in range(3)]
        fs = [base[0], frobenius_power(base[1], 1),
              frobenius_power(base[2], rng.choice((1, 2)))]
        if not f_independent(fs):
            continue
        res = index_of_independence(fs)
        c = 2 ** (res.index_s - 1)
        cert = find_certificate(fs, c)
        assert not cert.determinant.is_zero()
        assert validate_certificate(cert)
        assert independent_over_power_subfield(fs, res.index_s)
        if res.index_s > 1:
            assert not independent_over_power_subfield(fs, res.index_s - 1)
        done += 1



@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]), st.integers(1, 5), st.integers(1, 5), st.data())
def test_property_inline_row_steps_match_the_ring_step(p, nrows, ncols, data):
    # the inline Z and F_p steps eliminate exactly as the generic
    # (mul, sub, div) step, which over Z starts from prev = None
    entries = st.integers(-9, 9) if not p else st.integers(0, p - 1)
    M = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    div = (lambda a, b: a * pow(b, p - 2, p) % p) if p else floordiv
    A, B = [list(r) for r in M], [list(r) for r in M]
    rank, last, sign = _bareiss(A, _int_step(p), prev=1)
    want = _bareiss(B, _ring_step(mul, sub, div), prev=1 if p else None)
    assert A == B and (rank, sign) == (want[0], want[2]) and (not rank or last == want[1])
    if not p:
        return
    # the F_p(t) Ring's step on F_p[t] rows eliminates exactly as the step of
    # the level-1 dense polynomials over F_p
    ring = FieldSpec(RATFUNC_T_ADIC, p).ring
    level = DenseLevel(ring.base, None)
    poly = st.lists(entries, max_size=3).map(lambda c: _dense_trim(c, not_))
    M = data.draw(st.lists(st.lists(poly, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    A, B = [list(r) for r in M], [list(r) for r in M]
    got = _bareiss(A, ring.step, prev=ring.prev)
    assert got == _bareiss(B, _ring_step(level.mul, level.sub, level.exquo)) and A == B

