import random
from math import comb

import pytest

from polyabc.errors import CasError
from polyabc.hasse import (exponents_divisible, hasse_derivative, multinomial,
                           poly_pth_root)
from polyabc.mvpoly import MvPoly
from polyabc.oracle import divides, multiplicity
from polyabc.nevanlinna import norm_profile

from conftest import (ALL_SPECS, CHARP_SPECS, F2, F3, F3T, F5, Q2, Q5,
                      random_gamma, random_poly)
from helpers import d_axis, frobenius_power, is_nonnegative, partial_derivative


def test_multinomial_examples():
    assert multinomial((5, 0), (5, 0), F5) == F5.one()
    # C(j*p^s, p^s) = j mod p: p = 3, s = 1, j = 2 gives C(6,3) = 20 = 2 mod 3
    assert comb(6, 3) == 20
    assert multinomial((6,), (3,), F3) == F3.from_int(2)
    assert multinomial((4, 2), (1, 1), Q2) == Q2.from_int(8)
    with pytest.raises(CasError) as exc:
        multinomial((1, 0), (0, 1), Q2)
    assert exc.value.code == "INDEX_NOT_DOMINATING"


def test_lucas_digit_products():
    rng = random.Random("lucas")
    for spec in (F2, F3, F5):
        p = spec.p
        for _ in range(200):
            n, k = rng.randint(0, 60), rng.randint(0, 60)
            if k > n:
                continue
            assert multinomial((n,), (k,), spec) == spec.from_int(comb(n, k) % p)


def test_derivative_examples():
    z = MvPoly.variable(F5, 1, 0)
    assert d_axis(z ** 5, 0, 1).is_zero()           # p z^(p-1) = 0
    assert d_axis(z ** 5, 0, 5) == MvPoly.one(F5, 1)  # C(p, p) = 1
    x, y = MvPoly.variable(Q5, 2, 0), MvPoly.variable(Q5, 2, 1)
    # defining sum: index (2,1) dominates (1,1) with C(2,1)C(1,1) = 2, exponent drops to (1,0)
    assert hasse_derivative(x * x * y, (1, 1)) == x + x


def test_zero_and_first_order():
    rng = random.Random("basics")
    for spec in ALL_SPECS:
        f = random_poly(rng, spec, 3, 5)
        assert hasse_derivative(f, (0, 0, 0)) == f
        for j in range(3):
            gamma = tuple(1 if i == j else 0 for i in range(3))
            assert hasse_derivative(f, gamma) == partial_derivative(f, j)


def test_sum_rule():
    rng = random.Random("sum")
    for spec in ALL_SPECS:
        for _ in range(30):
            f = random_poly(rng, spec, 2, 5)
            g = random_poly(rng, spec, 2, 5)
            gamma = random_gamma(rng, 2, 3)
            assert hasse_derivative(f + g, gamma) == \
                hasse_derivative(f, gamma) + hasse_derivative(g, gamma)


def _leibniz_rhs(f, g, alpha):
    m = f.m
    total = MvPoly.zero(f.spec, m)

    def splits(alpha):
        if not alpha:
            yield (), ()
            return
        for b in range(alpha[0] + 1):
            for rb, rc in splits(alpha[1:]):
                yield (b,) + rb, (alpha[0] - b,) + rc

    for beta, gamma in splits(alpha):
        total = total + hasse_derivative(f, beta) * hasse_derivative(g, gamma)
    return total


def test_leibniz_rule():
    rng = random.Random("leibniz")
    for spec in ALL_SPECS:
        for _ in range(15):
            f = random_poly(rng, spec, 2, 4)
            g = random_poly(rng, spec, 2, 4)
            alpha = random_gamma(rng, 2, 3)
            assert hasse_derivative(f * g, alpha) == _leibniz_rhs(f, g, alpha)


def test_composition_rule():
    rng = random.Random("compose")
    for spec in ALL_SPECS:
        for _ in range(20):
            f = random_poly(rng, spec, 2, 5)
            alpha = random_gamma(rng, 2, 2)
            beta = random_gamma(rng, 2, 2)
            ab = tuple(a + b for a, b in zip(alpha, beta))
            lhs = hasse_derivative(hasse_derivative(f, beta), alpha)
            rhs = hasse_derivative(f, ab).scale(multinomial(ab, beta, spec))
            assert lhs == rhs


def test_frobenius_compatibility():
    rng = random.Random("frob")
    for spec in CHARP_SPECS:
        p = spec.p
        for _ in range(10):
            f = random_poly(rng, spec, 2, 3)
            fp = frobenius_power(f, 1)
            # direct power for independent confirmation
            direct = f ** p
            assert fp == direct
            for i in range(2):
                lhs = d_axis(fp, i, p)
                rhs = frobenius_power(d_axis(f, i, 1), 1)
                assert lhs == rhs


def test_exponents_divisible_examples():
    x, y = MvPoly.variable(F3, 2, 0), MvPoly.variable(F3, 2, 1)
    assert exponents_divisible(x ** 3 * y ** 3, 1)
    assert not exponents_divisible(x ** 3 * y, 1)
    assert not exponents_divisible(x ** 9 * y ** 3, 2)
    # over the closure t*z^3 = (t^(1/3) z)^3: only the exponents decide
    zt = MvPoly.variable(F3T, 1, 0)
    t_poly = MvPoly.constant(F3T, 1, F3T.t())
    assert exponents_divisible(t_poly * zt ** 3, 1)
    assert not exponents_divisible(t_poly * zt ** 3, 2)


def test_poly_pth_root_examples():
    z = MvPoly.variable(F5, 1, 0)
    assert poly_pth_root(z ** 5, 1) == z
    x, y = MvPoly.variable(F3, 2, 0), MvPoly.variable(F3, 2, 1)
    f = (x + y) ** 9
    root = poly_pth_root(f, 2)
    assert root == x + y
    assert frobenius_power(root, 2) == f
    with pytest.raises(CasError) as exc:
        poly_pth_root(z, 1)
    assert exc.value.code == "NOT_A_POWER"


def test_derivative_norm_bound():
    # |D^gamma f|_rho <= |f|_rho - |gamma| rho, checked as piecewise-linear data
    rng = random.Random("ldl")
    from polyabc.nevanlinna import PiecewiseLinear

    for spec in ALL_SPECS:
        for _ in range(25):
            f = random_poly(rng, spec, 2, 5, nonzero=True)
            gamma = random_gamma(rng, 2, 3)
            df = hasse_derivative(f, gamma)
            if df.is_zero():
                continue
            bound = norm_profile(f) + PiecewiseLinear.line(-sum(gamma), 0)
            assert is_nonnegative(bound - norm_profile(df))


def test_self_division_collapse():
    # f | D^gamma f with |gamma| > 0 forces D^gamma f = 0
    rng = random.Random("collapse")
    for spec in (F2, F3):
        p = spec.p
        for _ in range(20):
            g = random_poly(rng, spec, 2, 2, nonzero=True)
            f = frobenius_power(g, 1)
            for gamma in ((1, 0), (0, 1), (1, 1)):
                df = hasse_derivative(f, gamma)
                if df.is_zero():
                    continue
                assert not divides(f, df)


def test_multiplicity_drop():
    z, one = MvPoly.variable(Q2, 1, 0), MvPoly.one(Q2, 1)
    P = z + one
    f = P ** 5 * (z + MvPoly.constant(Q2, 1, Q2.from_int(2)))
    for k in (1, 2, 3):
        df = d_axis(f, 0, k)
        assert multiplicity(df, P) >= 5 - k


def test_multiplicity_drop_charp():
    # p^s | e and p^s > max gamma component forces P^e | D^gamma f
    z = MvPoly.variable(F3, 1, 0)
    one = MvPoly.one(F3, 1)
    P = z + one
    f = P ** 9 * z
    for k in (1, 2):  # p^2 = 9 > k
        df = d_axis(f, 0, k)
        if df.is_zero():
            continue
        assert multiplicity(df, P) >= 9
