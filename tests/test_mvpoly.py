import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from polyabc.errors import CasError, NotDivisible
from polyabc.fields import FieldSpec
from polyabc.mvpoly import MvPoly, exact_div, poly_gcd
from polyabc.oracle import divides, multiplicity
from polyabc.oracle import squarefree_factor_oracle

from conftest import (ALL_SPECS, F2, F2T, F3, F3T, F5, Q2, Q3, assert_canonical, property_polys,
                      random_poly)
from helpers import degree_in, poly_from_text, ref_add, ref_exact_div, ref_mul, ref_sub


def _z(spec, m=1, i=0):
    return MvPoly.variable(spec, m, i)


def _c(spec, k, m=1):
    return MvPoly.constant(spec, m, spec.from_int(k))


def test_product_example():
    z, one = _z(Q3), MvPoly.one(Q3, 1)
    assert (z + one) * (z - one) == z * z - one


def test_additive_identity():
    rng = random.Random(1)
    for spec in ALL_SPECS:
        f = random_poly(rng, spec, 2, 4)
        assert f + MvPoly.zero(spec, 2) == f


def test_frobenius_cube():
    x, y = _z(F3, 2, 0), _z(F3, 2, 1)
    cube = (x + y) ** 3
    assert cube == x ** 3 + y ** 3


def test_exact_div_examples():
    x, y = _z(Q2, 2, 0), _z(Q2, 2, 1)
    assert exact_div(x * x * y + x * y * y, x + y) == x * y
    f = random_poly(random.Random(2), Q2, 2, 4)
    assert exact_div(f, MvPoly.one(Q2, 2)) == f
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    with pytest.raises(NotDivisible):
        exact_div(z * z + one, z)


def test_exact_div_round_trip():
    rng = random.Random(3)
    for spec in ALL_SPECS:
        for _ in range(40):
            f = random_poly(rng, spec, 2, 4)
            g = random_poly(rng, spec, 2, 3, nonzero=True)
            assert exact_div(f * g, g) == f


def test_gcd_examples():
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    f = (z + one) ** 2 * (z + _c(Q2, 2))
    g = (z + one) * (z + _c(Q2, 3))
    assert poly_gcd(f, g) == z + one
    h = random_poly(random.Random(4), Q3, 2, 4, nonzero=True)
    assert poly_gcd(h, MvPoly.zero(Q3, 2)) == h.normalized()
    x, y, w = _z(F5, 3, 0), _z(F5, 3, 1), _z(F5, 3, 2)
    g2 = poly_gcd(x * y, x * w)
    assert g2 == x
    # quotients by the gcd are coprime
    assert poly_gcd(exact_div(x * y, g2), exact_div(x * w, g2)).is_constant()


def test_gcd_both_zero():
    with pytest.raises(CasError) as exc:
        poly_gcd(MvPoly.zero(Q2, 1), MvPoly.zero(Q2, 1))
    assert exc.value.code == "BOTH_ZERO"


def test_multiplicity_examples():
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    f = (z + one) ** 3 * (z + _c(Q2, 2))
    assert multiplicity(f, z + one) == 3
    assert multiplicity(z + _c(Q2, 3), z + one) == 0
    zp = _z(F3)
    assert multiplicity(zp ** 3, zp) == 3
    with pytest.raises(CasError) as exc:
        multiplicity(f, MvPoly.one(Q2, 1))
    assert exc.value.code == "CONSTANT_DIVISOR"


def test_multiplicity_additive():
    rng = random.Random(6)
    z, one = _z(Q3), MvPoly.one(Q3, 1)
    P = z + one
    for _ in range(20):
        f = random_poly(rng, Q3, 1, 3, nonzero=True)
        base = multiplicity(f, P)
        k = rng.randint(1, 3)
        assert multiplicity(f * P ** k, P) == base + k


def test_oracle_examples():
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    pairs = squarefree_factor_oracle(z * z * (z + one))
    assert [(str(g), e) for g, e in pairs] == [("1 * z1", 2), ("1 * z1 + 1", 1)]
    irr = z * z + one  # irreducible over Q
    assert squarefree_factor_oracle(irr) == [(irr.normalized(), 1)]
    x, y = _z(F2, 2, 0), _z(F2, 2, 1)
    pairs = squarefree_factor_oracle(x ** 2 * y ** 4)
    assert pairs == [(x, 2), (y, 4)]


def test_oracle_degree_guard():
    z = _z(Q2)
    with pytest.raises(CasError) as exc:
        squarefree_factor_oracle(z ** 9)
    assert exc.value.code == "DEGREE_TOO_LARGE"


def test_oracle_reconstructs_product():
    rng = random.Random(7)
    for spec in (Q2, F2, F3):
        for _ in range(15):
            f = random_poly(rng, spec, 2, 3, nonzero=True)
            g = random_poly(rng, spec, 2, 3, nonzero=True)
            prod = f * g
            if prod.is_constant() or prod.total_degree() > 8:
                continue
            pairs = squarefree_factor_oracle(prod)
            rebuilt = MvPoly.one(spec, 2)
            for h, e in pairs:
                rebuilt = rebuilt * h ** e
            assert rebuilt.normalized() == prod.normalized()
            # pairwise coprime
            for i in range(len(pairs)):
                for j in range(i + 1, len(pairs)):
                    assert poly_gcd(pairs[i][0], pairs[j][0]).is_constant()


def test_gcd_against_planted_factors():
    rng = random.Random(8)
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    primes = [z, z + one, z + _c(Q2, 2), z * z + one]
    for _ in range(40):
        e = [rng.randint(0, 2) for _ in primes]
        d = [rng.randint(0, 2) for _ in primes]
        f = MvPoly.one(Q2, 1)
        g = MvPoly.one(Q2, 1)
        for P, ei, di in zip(primes, e, d):
            f = f * P ** ei
            g = g * P ** di
        expected = MvPoly.one(Q2, 1)
        for P, ei, di in zip(primes, e, d):
            expected = expected * P ** min(ei, di)
        got = poly_gcd(f, g)
        assert got == expected.normalized()
        assert divides(got, f) and divides(got, g)


def test_gcd_common_divisor_property_multivar():
    rng = random.Random(9)
    for spec in (Q2, F3):
        x, y = _z(spec, 2, 0), _z(spec, 2, 1)
        catalog = [x, y, x + y, x + MvPoly.one(spec, 2), x * y + MvPoly.one(spec, 2)]
        for _ in range(25):
            common = catalog[rng.randrange(len(catalog))]
            f = common * random_poly(rng, spec, 2, 2, nonzero=True)
            g = common * random_poly(rng, spec, 2, 2, nonzero=True)
            got = poly_gcd(f, g)
            assert divides(common, got) or divides(got, common) or divides(common, got)
            assert divides(got, f) and divides(got, g)
            assert divides(common, got)


def test_text_grammar_round_trip():
    rng = random.Random(10)
    for spec in ALL_SPECS:
        for m in (1, 2, 3):
            for _ in range(20):
                f = random_poly(rng, spec, m, 4)
                if f.is_zero():
                    assert poly_from_text(spec, m, str(f)).is_zero()
                else:
                    assert poly_from_text(spec, m, str(f)) == f


def test_canonical_term_order():
    x, y = _z(Q2, 2, 0), _z(Q2, 2, 1)
    f = x * y + y ** 3 + x
    monos = [e for e, _ in f.sorted_terms()]
    assert monos == [(0, 3), (1, 1), (1, 0)]  # graded-lex descending


def test_spec_mismatch_poly():
    with pytest.raises(CasError) as exc:
        _z(Q2) + _z(Q3)
    assert exc.value.code == "SPEC_MISMATCH"
    with pytest.raises(CasError) as exc:
        _z(Q2).scale(Q3.one())
    assert exc.value.code == "SPEC_MISMATCH"
    # an equal spec built separately is the same field
    assert _z(Q2).scale(FieldSpec(Q2.kind, Q2.p).one()) == _z(Q2)


def test_gcd_three_variables_planted():
    rng = random.Random(11)
    for spec in (Q2, F3):
        x = _z(spec, 3, 0)
        y = _z(spec, 3, 1)
        w = _z(spec, 3, 2)
        one = MvPoly.one(spec, 3)
        catalog = [x, y, w, x + y, y + w, x + y + w + one]
        for _ in range(10):
            rng.shuffle(catalog)
            common = catalog[0] * catalog[1]
            f = common * catalog[2]
            g = common * catalog[3]
            got = poly_gcd(f, g)
            assert divides(common, got) and divides(got, f) and divides(got, g)
            q1, q2 = exact_div(f, got), exact_div(g, got)
            assert poly_gcd(q1, q2).is_constant()


def test_gcd_differential_vs_sympy():
    import sympy

    syms = sympy.symbols("a b c")

    def to_sympy(f):
        e = sympy.Integer(0)
        for exps, cf in f.terms.items():
            t = sympy.Rational(cf.val.numerator, cf.val.denominator)
            for s, k in zip(syms, exps):
                t *= s ** k
            e += t
        return e

    rng = random.Random("diffgcd")
    for _ in range(80):
        m = rng.randint(1, 3)
        f = random_poly(rng, Q3, m, 3, nonzero=True)
        g = random_poly(rng, Q3, m, 3, nonzero=True)
        h = random_poly(rng, Q3, m, 2, nonzero=True)
        ours = poly_gcd(f * h, g * h)
        theirs = sympy.gcd(to_sympy(f * h), to_sympy(g * h))
        assert sympy.simplify(to_sympy(ours) / theirs).is_constant()


def _univar(spec, coeffs):
    """The polynomial with ascending coefficients ``coeffs`` in one variable."""
    return MvPoly.from_terms(spec, 1, [((i,), c) for i, c in enumerate(coeffs)])


def _descending(f):
    """The coefficient payloads of a univariate f, leading one first."""
    zero = f.spec.zero()
    return [f.terms.get((i,), zero).val for i in range(degree_in(f, 0), -1, -1)]


def test_univariate_gcd_differential_vs_sympy():
    """One variable: the Ring's Euclid over F_p against sympy with
    ``modulus=p``, and the integer PRS over Q at degree >= 20."""
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random("diffgcd-univariate")

    def monic_of_degree(spec, d, coeff):
        return _univar(spec, [coeff() for _ in range(d)] + [spec.one()])

    for spec in (F2, F3, F5):
        p = spec.p
        for _ in range(20):
            f, g, h = (monic_of_degree(spec, rng.randint(lo, hi),
                                       lambda: spec.from_int(rng.randrange(p)))
                       for lo, hi in ((0, 8), (0, 8), (1, 5)))
            ours = poly_gcd(f * h, g * h)
            theirs = sympy.Poly(_descending(f * h), x, modulus=p).gcd(
                sympy.Poly(_descending(g * h), x, modulus=p)).monic()
            assert _descending(ours) == [int(c) % p for c in theirs.all_coeffs()]
    for _ in range(6):
        f, g, h = (monic_of_degree(Q3, rng.randint(lo, hi),
                                   lambda: Q3.from_fraction(Fraction(rng.randint(-9, 9),
                                                                     rng.randint(1, 4))))
                   for lo, hi in ((12, 16), (12, 16), (8, 10)))
        assert min(degree_in(f * h, 0), degree_in(g * h, 0)) >= 20
        ours = poly_gcd(f * h, g * h)
        theirs = sympy.Poly(_descending(f * h), x, domain="QQ").gcd(
            sympy.Poly(_descending(g * h), x, domain="QQ")).monic()
        assert _descending(ours) == [Fraction(int(c.p), int(c.q)) for c in theirs.all_coeffs()]


# -- property tests over Q_2, F_3 and F_3(t), m <= 2 --------------------------

_property = settings(max_examples=150, deadline=None)


@_property
@given(property_polys([Q2, F3, F3T], 2))
def test_property_exact_div_inverts_mul(fg):
    f, g = fg
    assume(not g.is_zero())
    assert exact_div(f * g, g) == f


@_property
@given(property_polys([Q2, F3, F3T], 3))
def test_property_gcd_of_common_multiples(fgh):
    f, g, h = fgh
    assume(not h.is_zero() and not (f.is_zero() and g.is_zero()))
    d = poly_gcd(f * h, g * h)
    assert divides(d, f * h) and divides(d, g * h)
    assert divides(h, d)


# -- payload kernels against the boxed reference loops, m <= 2 ------------------

_KERNEL_SPECS = [Q2, F2, F3, F5, F2T, F3T]


def _assert_canonical_terms(f):
    for c in f.terms.values():
        assert c.spec is f.spec and not c.is_zero()
        assert_canonical(f.spec, c.val)


@_property
@given(property_polys(_KERNEL_SPECS, 2))
def test_property_kernels_match_boxed_reference(fg):
    f, g = fg
    for got, want in ((f + g, ref_add(f, g)), (f - g, ref_sub(f, g)), (f * g, ref_mul(f, g)),
                      (-f, ref_sub(MvPoly.zero(f.spec, f.m), f))):
        assert got == want
        _assert_canonical_terms(got)
    assert f - f == MvPoly.zero(f.spec, f.m)


@_property
@given(property_polys(_KERNEL_SPECS, 3))
def test_property_exact_div_matches_boxed_reference(fgh):
    f, g, h = fgh
    assume(not g.is_zero())
    q, ref = exact_div(f * g, g), ref_exact_div(f * g, g)
    assert q == f and q == ref
    assert list(q.terms) == list(ref.terms)  # graded-lex descending, as both build it
    _assert_canonical_terms(q)
    # a constant divisor scales, in the same term order
    c = MvPoly.constant(g.spec, g.m, g.leading_coeff())
    q, ref = exact_div(f * g, c), ref_exact_div(f * g, c)
    assert q == ref and list(q.terms) == list(ref.terms)
    _assert_canonical_terms(q)
    # f*g + h: exact only when g divides h; the kernel and the reference agree
    # on the quotient or on NotDivisible
    outcomes = []
    for div in (exact_div, ref_exact_div):
        try:
            outcomes.append(div(f * g + h, g))
        except NotDivisible:
            outcomes.append(NotDivisible)
    assert outcomes[0] == outcomes[1]


def test_kernels_on_non_unit_denominators():
    for spec in (F2T, F3T):
        t, one = spec.t(), spec.one()
        a = one / (t + one)                    # 1/(t+1)
        b = (t * t + one) / (t * (t + one))
        z1, z2 = _z(spec, 2, 0), _z(spec, 2, 1)
        f = z1.scale(a) + z2.scale(b) + MvPoly.constant(spec, 2, t)
        g = z1 * z2 + z1.scale(b) - MvPoly.constant(spec, 2, a)
        assert f * g == ref_mul(f, g)
        assert f + g == ref_add(f, g) and f - g == ref_sub(f, g)
        assert exact_div(f * g, g) == f == ref_exact_div(f * g, g)
        for c in (f * g).terms.values():
            assert_canonical(spec, c.val)
