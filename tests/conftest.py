import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from polyabc.fields import PRIME_FIELD, RATFUNC_T_ADIC, RATIONAL_P_ADIC, FieldSpec
from polyabc.mvpoly import MvPoly

from helpers import ref_fp_gcd

Q2 = FieldSpec(RATIONAL_P_ADIC, 2)
Q3 = FieldSpec(RATIONAL_P_ADIC, 3)
Q5 = FieldSpec(RATIONAL_P_ADIC, 5)
F2 = FieldSpec(PRIME_FIELD, 2)
F3 = FieldSpec(PRIME_FIELD, 3)
F5 = FieldSpec(PRIME_FIELD, 5)
F2T = FieldSpec(RATFUNC_T_ADIC, 2)
F3T = FieldSpec(RATFUNC_T_ADIC, 3)

ALL_SPECS = [Q2, Q3, Q5, F2, F3, F5, F3T]
CHARP_SPECS = [F2, F3, F5, F3T]


def random_coeff(rng: random.Random, spec: FieldSpec, nonzero=False):
    if spec.kind == PRIME_FIELD:
        lo = 1 if nonzero else 0
        return spec.from_int(rng.randrange(lo, spec.p))
    if spec.kind == RATIONAL_P_ADIC:
        num = rng.randint(-20, 20)
        den = rng.choice([1, 1, 1, 2, 3, spec.p, spec.p * spec.p])
        if nonzero and num == 0:
            num = rng.randint(1, 20)
        return spec.from_fraction(Fraction(num, den))
    deg = rng.randint(0, 2)
    num = [rng.randrange(spec.p) for _ in range(deg + 1)]
    if nonzero and not any(num):
        num[0] = 1 + rng.randrange(spec.p - 1)
    t = spec.t()
    acc, c = spec.one(), spec.zero()
    for x in num:
        c = c + spec.from_int(x) * acc
        acc = acc * t
    if rng.random() < 0.3 and not c.is_zero():
        c = c / (spec.one() + t) if rng.random() < 0.5 else c / t
    return c


def random_poly(rng: random.Random, spec: FieldSpec, m: int, max_deg: int,
                max_terms: int = 4, nonzero=False) -> MvPoly:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * m
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(m)] += 1
        pairs.append((tuple(exps), random_coeff(rng, spec)))
    f = MvPoly.from_terms(spec, m, pairs)
    if nonzero and f.is_zero():
        return MvPoly.one(spec, m)
    return f


def random_gamma(rng: random.Random, m: int, max_weight: int):
    exps = [0] * m
    for _ in range(rng.randint(0, max_weight)):
        exps[rng.randrange(m)] += 1
    return tuple(exps)


def property_coeff(spec: FieldSpec):
    """Small coefficients: fractions over Q_p, residues over F_p, and
    (a + b t) / d with d in {1, t, 1 + t} over F_p(t)."""
    if spec.kind == RATIONAL_P_ADIC:
        return st.fractions(-4, 4, max_denominator=4).map(spec.from_fraction)
    if spec.kind == PRIME_FIELD:
        return st.integers(0, spec.p - 1).map(spec.from_int)
    t = spec.t()
    dens = [spec.one(), t, spec.one() + t]
    return st.builds(lambda a, b, d: (spec.from_int(a) + spec.from_int(b) * t) / dens[d],
                     st.integers(0, spec.p - 1), st.integers(0, spec.p - 1), st.integers(0, 2))


def assert_canonical(spec: FieldSpec, val):
    """A payload is canonical: over Q_p an int when integral and a Fraction
    otherwise (never a float, never an integral Fraction); an int in [0, p)
    over F_p; over F_p(t), coefficient tuples in [0, p) without trailing
    zeros, a monic denominator coprime to the numerator, and ((), (1,)) for
    zero."""
    p = spec.p
    if spec.kind == RATIONAL_P_ADIC:
        assert type(val) is int or (type(val) is Fraction and val.denominator != 1)
        return
    if spec.kind == PRIME_FIELD:
        assert type(val) is int and 0 <= val < p
        return
    num, den = val
    for poly in (num, den):
        assert type(poly) is tuple and all(type(x) is int and 0 <= x < p for x in poly)
        assert not poly or poly[-1]
    assert den and den[-1] == 1
    assert ref_fp_gcd(num, den, p) == (1,) if num else den == (1,)


@st.composite
def property_polys(draw, specs, count: int):
    """``count`` polynomials over one field drawn from ``specs``, in m <= 2
    variables, each with at most 3 terms of partial degree <= 2."""
    spec = draw(st.sampled_from(specs))
    m = draw(st.integers(1, 2))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * m), property_coeff(spec))
    return [MvPoly.from_terms(spec, m, draw(st.lists(term, max_size=3))) for _ in range(count)]


@pytest.fixture
def rng():
    return random.Random(20260811)
