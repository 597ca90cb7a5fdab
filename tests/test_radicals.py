import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyabc.abcengine import detect_k
from polyabc.errors import CasError
from polyabc.fields import RATFUNC_T_ADIC
from polyabc.mvpoly import MvPoly, poly_gcd
from polyabc.oracle import divides, multiplicity, squarefree_factor_oracle
from polyabc.radicals import _product as parts_product
from polyabc.radicals import (coprime_base, higher_radical, product_decomposition, radical,
                              radical_chain, sigma_radical_gcd, square_free_decomposition,
                              square_free_part, stable_radical_level, trunc_gcd)

from conftest import F2, F2T, F3, F3T, F5, Q2, Q3, property_polys, random_poly
from helpers import partial_derivative


def _z(spec, m=1, i=0):
    return MvPoly.variable(spec, m, i)


def _c(spec, k, m=1):
    return MvPoly.constant(spec, m, spec.from_int(k))


def test_radical_examples():
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    assert poly_gcd(z * z * (z + one), partial_derivative(z * z * (z + one), 0)) == z
    assert radical(z * z * (z + one)) == z * (z + one)
    zp = _z(F3)
    assert radical(zp ** 3) == MvPoly.one(F3, 1)
    f = (z + one) * (z + _c(Q2, 2))
    assert radical(f) == f.normalized()


def test_radical_of_zero():
    with pytest.raises(CasError) as exc:
        radical(MvPoly.zero(Q2, 1))
    assert exc.value.code == "ZERO_POLY"


def test_higher_radical_examples():
    zp = _z(F3)
    assert higher_radical(zp ** 3, 0) == MvPoly.one(F3, 1)
    assert higher_radical(zp ** 3, 1) == zp
    f = (zp + MvPoly.one(F3, 1)) * zp
    for s in (0, 1, 2):
        assert higher_radical(f, s) == f.normalized()
    x, y = _z(F3, 2, 0), _z(F3, 2, 1)
    g = x ** 3 * y ** 9
    assert higher_radical(g, 1) == x
    assert higher_radical(g, 2) == x * y


def test_square_free_part_examples():
    zp = _z(F3)
    assert square_free_part(zp ** 3) == zp
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    assert square_free_part(z ** 2 * (z + one) ** 3) == z * (z + one)
    assert square_free_part(_c(Q2, 5)) == MvPoly.one(Q2, 1)


def test_trunc_gcd_examples():
    z = _z(Q2)
    assert trunc_gcd(z ** 3, 2) == z ** 2
    f = random_poly(random.Random(0), Q3, 1, 3, nonzero=True)
    assert trunc_gcd(f, 50) == f.normalized()
    x, y = _z(F2, 2, 0), _z(F2, 2, 1)
    assert trunc_gcd(x ** 2 * y ** 2, 1) == x * y
    one = MvPoly.one(Q2, 1)
    f = z ** 3 * (z + one)
    assert trunc_gcd(f, 2) == (z ** 2 * (z + one)).normalized()
    assert trunc_gcd(f, 10) == f.normalized()


def test_sigma_radical_gcd_examples():
    zp = _z(F3)
    assert sigma_radical_gcd(zp ** 9, 1, 0) == MvPoly.one(F3, 1)
    assert sigma_radical_gcd(zp ** 3, 1, 1) == zp
    f = zp * (zp + MvPoly.one(F3, 1))
    assert sigma_radical_gcd(f, 1, 0) == f.normalized()
    with pytest.raises(CasError) as exc:
        sigma_radical_gcd(_z(Q2), 1, 0)
    assert exc.value.code == "WRONG_CHARACTERISTIC"


def _planted(spec, primes, exps):
    f = MvPoly.one(spec, primes[0].m)
    for P, e in zip(primes, exps):
        f = f * P ** e
    return f


def _product(spec, m, primes):
    out = MvPoly.one(spec, m)
    for P in primes:
        out = out * P
    return out.normalized()


def test_oracle_characterizations_charp():
    # factor set of the level-s radical: multiplicity not divisible by p^(s+1);
    # the chain, higher_radical and square_free_part agree level by level, and
    # the levels past the terminal one repeat it
    for spec in (F2, F3, F5):
        p = spec.p
        rng = random.Random(f"chars-{p}")
        for m in (1, 2):
            x, one = _z(spec, m), MvPoly.one(spec, m)
            primes = [x, x + one] if m == 1 else [x, x + _z(spec, 2, 1) + one]
            for _ in range(30):
                exps = [rng.randint(1, p * p) for _ in primes]
                f = _planted(spec, primes, exps)
                if f.total_degree() > max(9, p * p + 1):
                    continue
                chain = radical_chain(f)
                top = len(chain) - 1
                assert top == stable_radical_level(f)
                for s, got in enumerate(chain):
                    expected = [P for P, e in zip(primes, exps) if e % (p ** (s + 1)) != 0]
                    assert got == _product(spec, m, expected) if expected else got.is_constant()
                    assert got == higher_radical(f, s)
                S = chain[-1]
                assert S == square_free_part(f) == _product(spec, m, primes)
                assert higher_radical(f, top + 1) == S
                assert higher_radical(f, top + 2) == S


def test_planted_ratfunc_levels():
    # F_3(t) products whose p-th-power factors have p-th roots in F_3(t):
    # every level keeps the factors whose multiplicity p^(s+1) does not divide
    z, one = _z(F3T), MvPoly.one(F3T, 1)
    t = MvPoly.constant(F3T, 1, F3T.t())
    f = (z + t) ** 3 * (z + one) ** 2 * (z * z + t)
    assert radical(f) == ((z + one) * (z * z + t)).normalized()
    S = ((z + t) * (z + one) * (z * z + t)).normalized()
    assert higher_radical(f, 1) == square_free_part(f) == S
    x, y = _z(F3T, 2, 0), _z(F3T, 2, 1)
    tt = MvPoly.constant(F3T, 2, F3T.t())
    primes = [x + tt, y * y + tt, x + tt * y + MvPoly.one(F3T, 2), x * y + tt * tt]
    rng = random.Random("ratfunc-planted")
    for _ in range(40):
        sel = rng.sample(range(len(primes)), rng.randint(1, 3))
        exps = [rng.choice([1, 2, 3, 4, 6, 9]) for _ in sel]
        f = _planted(F3T, [primes[j] for j in sel], exps)
        if f.total_degree() > 12:
            continue
        chain = radical_chain(f)
        for s, got in enumerate(chain):
            expected = [primes[j] for j, e in zip(sel, exps) if e % 3 ** (s + 1)]
            assert got == (_product(F3T, 2, expected) if expected else MvPoly.one(F3T, 2))
        assert chain[-1] == _product(F3T, 2, [primes[j] for j in sel])


def test_radical_matches_oracle_q2_bivariate():
    rng = random.Random("q2-m2")
    checked = 0
    for _ in range(30):
        f = random_poly(rng, Q2, 2, 2, nonzero=True) ** rng.randint(1, 3)
        f = f * random_poly(rng, Q2, 2, 2, nonzero=True)
        if f.is_constant() or f.total_degree() > 8:
            continue
        expected = _product(Q2, 2, [P for P, _ in squarefree_factor_oracle(f)])
        assert radical(f) == square_free_part(f) == expected
        checked += 1
    assert checked >= 15


def test_huge_level_is_the_square_free_part():
    z, one = _z(F5), MvPoly.one(F5, 1)
    f = z ** 25 * (z + one) ** 7
    assert higher_radical(f, 10 ** 9) == square_free_part(f) == z * (z + one)


@settings(max_examples=150, deadline=None)
@given(property_polys([Q2, F3, F3T], 1))
def test_property_radical_divides(fs):
    f = fs[0]
    assume(not f.is_zero())
    r = radical(f)
    assert divides(r, f)
    assert r == higher_radical(f, 0)


def test_trunc_matches_min():
    spec = F3
    z, one = _z(spec), MvPoly.one(spec, 1)
    primes = [z, z + one, z + _c(spec, 2)]
    rng = random.Random("trunc3")
    for _ in range(25):
        exps = [rng.randint(0, 4) for _ in primes]
        if not any(exps):
            continue
        f = _planted(spec, primes, exps)
        for ell in (1, 2, 3, 4):
            got = trunc_gcd(f, ell)
            for P, e in zip(primes, exps):
                assert multiplicity(got, P) == min(ell, e) if e else True


def test_radical_divides_and_squarefree():
    rng = random.Random("raddiv")
    for spec in (Q2, F2, F3):
        for _ in range(25):
            f = random_poly(rng, spec, 2, 3, nonzero=True)
            f = f * random_poly(rng, spec, 2, 2, nonzero=True)
            if f.is_constant():
                continue
            R = radical(f)
            assert divides(R, f)
            if 0 < R.total_degree() <= 8:
                assert all(e == 1 for _, e in squarefree_factor_oracle(R))
            S = square_free_part(f)
            if 0 < S.total_degree() <= 8:
                assert all(e == 1 for _, e in squarefree_factor_oracle(S))


def test_square_free_same_support():
    rng = random.Random("support")
    for spec in (Q2, F2):
        for _ in range(15):
            f = random_poly(rng, spec, 1, 3, nonzero=True) ** 2
            f = f * random_poly(rng, spec, 1, 2, nonzero=True)
            if f.is_constant() or f.total_degree() > 8:
                continue
            S = square_free_part(f)
            pairs = squarefree_factor_oracle(f)
            expected = _product(spec, 1, [P for P, _ in pairs])
            assert S == expected


def test_irreducible_derivative_property():
    # irreducible P with P | dP/dz_j forces dP/dz_j = 0
    for spec in (F2, F3, Q2):
        z, one = _z(spec, 2, 0), MvPoly.one(spec, 2)
        y = _z(spec, 2, 1)
        candidates = [z, y, z + y, z + one, z * y + one, z ** 2 + y]
        for P in candidates:
            if P.total_degree() > 8 or P.is_constant():
                continue
            pairs = squarefree_factor_oracle(P)
            if len(pairs) != 1 or pairs[0][1] != 1:
                continue  # not irreducible over this field
            for j in range(2):
                dP = partial_derivative(P, j)
                if dP.is_zero():
                    continue
                assert not divides(P, dP)


def test_radical_chain_structure():
    zp = _z(F2)
    f = zp ** 4 * (zp + MvPoly.one(F2, 1)) ** 2
    chain = radical_chain(f)
    top = len(chain) - 1
    assert top == stable_radical_level(f)
    assert 2 ** (top + 1) > f.total_degree()
    # multiplicities 4 and 2: level 0 sees nothing, level 1 recovers z+1, level 2 all
    assert chain[0].is_constant()
    assert chain[1] == zp + MvPoly.one(F2, 1)
    assert chain[2] == zp * (zp + MvPoly.one(F2, 1))
    for r in chain:
        if not r.is_constant():
            assert all(e == 1 for _, e in squarefree_factor_oracle(r))
    # chain is increasing under divisibility and stable past the terminal level
    for a, b in zip(chain, chain[1:]):
        if not a.is_constant():
            assert divides(a, b)
    assert higher_radical(f, top + 1) == chain[-1]


def test_inseparable_ratfunc_radical_limit():
    # x^3 - t is squarefree over F_3(t) but a cube over the closure: the level-1
    # radical's p-th root lives outside the represented field
    zt = _z(F3T)
    t = MvPoly.constant(F3T, 1, F3T.t())
    f = zt ** 3 - t
    assert radical(f).is_constant()
    with pytest.raises(CasError) as exc:
        higher_radical(f, 1)
    assert exc.value.code == "NOT_A_POWER"


def test_mixed_bivariate_planted_radicals():
    rng = random.Random("mixrad")
    x, y = _z(F2, 2, 0), _z(F2, 2, 1)
    one = MvPoly.one(F2, 2)
    primes = [x, y, x + y + one, x * x + x + one, x * y + one]
    for _ in range(60):
        sel = rng.sample(range(len(primes)), rng.randint(1, 3))
        exps = [rng.randint(1, 5) for _ in sel]
        f = one
        for j, e in zip(sel, exps):
            f = f * primes[j] ** e
        if f.total_degree() > 10:
            continue
        for s in range(stable_radical_level(f) + 1):
            q = 2 ** (s + 1)
            R = higher_radical(f, s)
            for j, e in zip(sel, exps):
                want = 0 if e % q == 0 else 1
                got = 0 if R.is_constant() else multiplicity(R, primes[j])
                assert got == want
        S = square_free_part(f)
        for j in sel:
            assert multiplicity(S, primes[j]) == 1


def test_inseparable_factor_fails_only_past_its_level():
    # (z^3 - t)^3 * z over F_3(t): the cube root of (z^3 - t)^3 exists, that of
    # z^3 - t does not, so levels 0 and 1 are z and level 2 is NOT_A_POWER
    z = _z(F3T)
    t = MvPoly.constant(F3T, 1, F3T.t())
    f = (z ** 3 - t) ** 3 * z
    assert stable_radical_level(f) == 2
    assert higher_radical(f, 0) == higher_radical(f, 1) == z
    assert square_free_decomposition(f, 1) == ((1, z),)
    for compute in (lambda: higher_radical(f, 2), lambda: square_free_part(f),
                    lambda: radical_chain(f)):
        with pytest.raises(CasError) as exc:
            compute()
        assert exc.value.code == "NOT_A_POWER"



@settings(max_examples=120, deadline=None)
@given(property_polys([Q2, F3, F3T], 3))
def test_property_square_free_decomposition(fs):
    # f = u * v^2 * w^3: the parts multiply back to f, are squarefree (with
    # separable factors: gcd(a, da/dz_1, ..., da/dz_m) = 1) and pairwise coprime
    u, v, w = fs
    f = u * v ** 2 * w ** 3
    assume(not f.is_zero())
    try:
        parts = square_free_decomposition(f, stable_radical_level(f))
    except CasError as exc:
        assert exc.code == "NOT_A_POWER" and f.spec.kind == F3T.kind
        assume(False)
    back = MvPoly.one(f.spec, f.m)
    for i, a in parts:
        assert not a.is_constant() and radical(a) == a
        back = back * a ** i
    assert back == f.normalized()
    for j, (_, a) in enumerate(parts):
        for _, b in parts[j + 1:]:
            assert poly_gcd(a, b).is_constant()


def test_square_free_decomposition_matches_oracle():
    # the oracle's irreducible factors, grouped by multiplicity, are the parts
    rng = random.Random("sqf-decomposition")
    for spec in (F2, F3, F5, Q2):
        checked = 0
        for m in (1, 2):
            for _ in range(12):
                f = MvPoly.one(spec, m)
                for e in rng.sample(range(1, 2 * spec.p + 2), 3):
                    f = f * random_poly(rng, spec, m, 2, max_terms=3, nonzero=True) ** e
                if f.is_constant() or f.total_degree() > 16:
                    continue
                groups = {}
                for P, e in squarefree_factor_oracle(f, degree_cap=16):
                    groups[e] = groups.get(e, MvPoly.one(spec, m)) * P
                parts = square_free_decomposition(f, stable_radical_level(f))
                assert dict(parts) == groups
                checked += 1
        assert checked >= 8, spec


# -- the decomposition of a product, read off its factors ----------------------

PRODUCT_SPECS = [Q2, F2, F3, F5, F2T, F3T]


@st.composite
def _factor_tuples(draw):
    """(fs, planted): 2 or 3 functions, each a product of powers of one shared
    pool of polynomials in m <= 2 variables, with deg prod fs <= 10, so the
    functions share factors, repeat or are constant; over F_p(t) the pool may
    hold the inseparable irreducible z1^p - t, and planted says whether a
    function took it."""
    pool = [f if not f.is_zero() else MvPoly.one(f.spec, f.m)
            for f in draw(property_polys(PRODUCT_SPECS, 3))]
    spec, m = pool[0].spec, pool[0].m
    insep = spec.kind == RATFUNC_T_ADIC and draw(st.booleans())
    if insep:
        z, t = _z(spec, m), MvPoly.constant(spec, m, spec.t())
        pool[0] = z ** spec.p - t
    budget = 10
    fs = []
    exps = draw(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                         min_size=2, max_size=3))
    planted = False
    for row in exps:
        f = MvPoly.one(spec, m)
        for j, (g, e) in enumerate(zip(pool, row)):
            e = min(e, budget // max(g.total_degree(), 1))
            budget -= e * g.total_degree()
            f = f * g ** e
            planted |= insep and j == 0 and e > 0
        fs.append(f * _c(spec, draw(st.integers(1, spec.p - 1)), m))
    return fs, planted


def _full_product(fs):
    F = fs[0]
    for f in fs[1:]:
        F = F * f
    return F


def _decompose(compute):
    try:
        return compute(), None
    except CasError as exc:
        return None, exc.code


@settings(max_examples=150, deadline=None)
@given(_factor_tuples())
def test_property_product_decomposition_matches_product(case):
    # the parts merged from the f_j give every radical object of F = prod f_j
    # that F's own decomposition gives, and raise where it raises: at full
    # depth, exactly when an inseparable irreducible factor is present
    fs, planted = case
    F = _full_product(fs)
    want, want_err = _decompose(lambda: square_free_decomposition(F, stable_radical_level(F)))
    got, got_err = _decompose(lambda: product_decomposition(coprime_base(fs)))
    assert got_err == want_err
    if planted:
        assert got_err == "NOT_A_POWER"
    if got_err:
        return
    for mu, b in got:
        assert not b.is_constant() and b == b.normalized() and radical(b) == b
    for cap in (1, 2, 3, 5):
        assert parts_product(F, got, cap) == parts_product(F, want, cap)


def test_product_decomposition_splits_shared_factors():
    z, one = _z(F3), MvPoly.one(F3, 1)
    a, b, c = z, z + one, z + _c(F3, 2)
    fs = [a ** 2 * b, b ** 3 * c, _c(F3, 2), a * c]
    assert product_decomposition(coprime_base(fs)) == ((2, c), (3, a), (4, b))
    assert product_decomposition(coprime_base([a * b, a * b])) == ((2, (a * b).normalized()),)


def test_coprime_base_needs_no_pth_root():
    # z2^2 + t + 1 is irreducible and inseparable over F_2(t): its own
    # decomposition at level 1 needs the missing square root of t + 1, but the
    # base takes only gcds and quotients; the product's decomposition, read
    # off the base, still raises exactly where F's own does
    z1, z2 = _z(F2T, 2, 0), _z(F2T, 2, 1)
    one = MvPoly.one(F2T, 2)
    h = z2 ** 2 + MvPoly.constant(F2T, 2, F2T.t()) + one
    with pytest.raises(CasError) as exc:
        square_free_decomposition(h, 1)
    assert exc.value.code == "NOT_A_POWER"
    fs = [z1 * h, z1 * (z1 + one), h ** 2, one]
    base = coprime_base(fs)
    assert sorted((str(b), e) for b, e in base) == sorted(
        [(str(h), (1, 0, 2, 0)), (str(z1), (1, 1, 0, 0)), (str(z1 + one), (0, 1, 0, 0))])
    assert detect_k(base, range(4)) == 3 and detect_k(base, [0, 2]) is None
    F = _full_product(fs)
    for compute in (lambda: product_decomposition(base),
                    lambda: square_free_decomposition(F, stable_radical_level(F))):
        with pytest.raises(CasError) as exc:
            compute()
        assert exc.value.code == "NOT_A_POWER"


@pytest.mark.parametrize("spec", [Q2, F2, F3, F2T, F3T])
def test_radical_of_coprime_triple_is_the_product_of_radicals(spec):
    # f -> f / gcd(f, grad f) is multiplicative over coprime factors, also
    # over an inseparable irreducible factor such as z^p - t, whose partial
    # derivatives vanish
    rng = random.Random(f"basic-radical-{spec.kind}-{spec.p}")
    z = _z(spec, 2)
    insep = z ** spec.p - MvPoly.constant(spec, 2, spec.t()) if spec.kind == RATFUNC_T_ADIC else z
    checked = 0
    for _ in range(20):
        f0 = insep * random_poly(rng, spec, 2, 1, max_terms=3, nonzero=True)
        f1 = random_poly(rng, spec, 2, 1, max_terms=3, nonzero=True) ** rng.randint(1, 2)
        f2 = f0 + f1
        if f2.is_zero() or not poly_gcd(f0, f1).is_constant():
            continue
        expected = (radical(f0) * radical(f1) * radical(f2)).normalized()
        assert radical(f0 * f1 * f2) == expected
        checked += 1
    assert checked >= 6
