import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyabc.abcengine import _max_log_profile
from polyabc.errors import CasError
from polyabc.fields import NEG_INFINITY
from polyabc.mvpoly import MvPoly
from polyabc.nevanlinna import (PiecewiseLinear, counting, norm_profile, product_counting,
                                truncated_counting)

from conftest import ALL_SPECS, F2, F2T, F3, F3T, Q2, Q3, Q5, property_polys, random_poly
from helpers import (initial_slope, is_nonnegative, log_gauss_norm, min_degree, n_at,
                     poisson_constant, ref_upper_envelope)


def _z(spec, m=1, i=0):
    return MvPoly.variable(spec, m, i)


def _c(spec, k, m=1):
    return MvPoly.constant(spec, m, spec.from_int(k))


def test_log_gauss_norm_examples():
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    assert log_gauss_norm(z ** 3 + one, 2) == 6
    for rho in (-3, 0, Fraction(7, 2)):
        assert log_gauss_norm(one, rho) == 0
    f = _z(Q5) - _c(Q5, 5)
    assert log_gauss_norm(f, -2) == -1
    assert log_gauss_norm(MvPoly.zero(Q2, 1), 1) is NEG_INFINITY


def test_norm_profile_examples():
    z = _z(Q2)
    prof = norm_profile(z)
    assert prof.breakpoints == [] and prof.slopes == [1] and prof.anchor == 0
    f = _z(Q5) - _c(Q5, 5)
    prof = norm_profile(f)
    assert prof.breakpoints == [Fraction(-1)]
    assert prof.slopes == [0, 1]
    mono = _c(Q2, 3, 2) * _z(Q2, 2, 0) ** 2 * _z(Q2, 2, 1)
    prof = norm_profile(mono)
    assert prof.breakpoints == [] and prof.slopes == [3]
    with pytest.raises(CasError) as exc:
        norm_profile(MvPoly.zero(Q2, 1))
    assert exc.value.code == "ZERO_POLY"


def test_profile_convex_nondecreasing():
    rng = random.Random("prof")
    for spec in ALL_SPECS:
        for _ in range(40):
            f = random_poly(rng, spec, 2, 6, nonzero=True)
            prof = norm_profile(f)
            assert all(s >= 0 for s in prof.slopes)
            assert all(a < b for a, b in zip(prof.slopes, prof.slopes[1:]))
            assert prof.final_slope == f.total_degree()
            assert initial_slope(prof) == min_degree(f)


def test_counting_examples():
    z = _z(Q2)
    cd = counting(z)
    assert cd.n_at_zero == 1 and cd.n_values == [1] and cd.integrated.value(3) == 3
    f = _z(Q5) - _c(Q5, 5)
    cd = counting(f)
    assert cd.n_values == [0, 1]
    assert cd.breakpoints == [Fraction(-1)]
    assert cd.integrated.value(-5) == 0
    assert cd.integrated.value(2) == 3  # rho + 1 above the breakpoint
    cd2 = counting(_z(Q3) ** 2)
    assert cd2.n_at_zero == 2 and cd2.integrated.value(1) == 2


def test_counting_step_matches_slopes():
    rng = random.Random("steps")
    for spec in ALL_SPECS:
        f = random_poly(rng, spec, 2, 5, nonzero=True)
        cd = counting(f)
        assert cd.n_values == [int(s) for s in cd.integrated.slopes]
        assert n_at(cd, Fraction(10 ** 6)) == f.total_degree()


def test_poisson_examples():
    assert poisson_constant(_z(Q2)) == 0
    assert poisson_constant(_z(Q5) - _c(Q5, 5)) == 1
    c = MvPoly.constant(Q5, 1, Q5.from_fraction(Fraction(1, 5)))
    assert poisson_constant(c) == -Fraction(1)  # N = 0, log|1/5| = 1


def test_poisson_constancy_random():
    rng = random.Random("poisson")
    for spec in ALL_SPECS:
        for _ in range(50):
            f = random_poly(rng, spec, 2, 6, nonzero=True)
            poisson_constant(f)  # raises NOT_CONSTANT on failure


def test_norm_multiplicativity():
    rng = random.Random("gauss")
    for spec in ALL_SPECS:
        for _ in range(40):
            f = random_poly(rng, spec, 2, 4, nonzero=True)
            g = random_poly(rng, spec, 2, 4, nonzero=True)
            assert norm_profile(f * g) == norm_profile(f) + norm_profile(g)


def test_counting_additivity():
    rng = random.Random("adds")
    for spec in ALL_SPECS:
        for _ in range(40):
            f = random_poly(rng, spec, 2, 4, nonzero=True)
            g = random_poly(rng, spec, 2, 4, nonzero=True)
            cf, cg, cfg = counting(f), counting(g), counting(f * g)
            assert cfg.integrated == cf.integrated + cg.integrated
            for rho in (-2, Fraction(-1, 2), 0, 1, 3):
                assert n_at(cfg, rho) == n_at(cf, rho) + n_at(cg, rho)
            for b in cfg.breakpoints:
                assert n_at(cfg, b) == n_at(cf, b) + n_at(cg, b)


def test_factor_bound():
    # f = gh: log|g|_rho <= log|f|_rho - log|h|_rho0 for rho >= rho0
    rng = random.Random("factor")
    for spec in (Q2, F3):
        for _ in range(25):
            g = random_poly(rng, spec, 1, 3, nonzero=True)
            h = random_poly(rng, spec, 1, 3, nonzero=True)
            f = g * h
            rho0 = Fraction(rng.randint(-3, 2))
            off = log_gauss_norm(h, rho0)
            for d in (0, 1, Fraction(5, 2)):
                rho = rho0 + d
                assert log_gauss_norm(g, rho) <= log_gauss_norm(f, rho) - off


def test_log_r_below_counting():
    # non-constant f: N_f(rho) - rho is bounded below on rho >= 0
    rng = random.Random("nlogr")
    for spec in ALL_SPECS:
        for _ in range(20):
            f = random_poly(rng, spec, 1, 5, nonzero=True)
            if f.is_constant():
                continue
            N = counting(f).integrated
            assert N.final_slope >= 1
            # exact check on a grid: min over rho >= 0 is attained at a breakpoint or 0
            cands = [Fraction(0)] + [b for b in N.breakpoints if b >= 0]
            assert min(N.value(r) - r for r in cands) > -10 ** 9


def test_truncated_counting_examples():
    z = _z(Q2)
    cd = truncated_counting(z ** 3, 1)
    assert cd.n_values == [1]
    f = (_z(Q3) + MvPoly.one(Q3, 1)) * _z(Q3)
    assert truncated_counting(f, 5).integrated == counting(f).integrated
    zp = _z(F3)
    cd = truncated_counting(zp ** 3, 2)
    assert cd.n_values == [2]


def test_truncated_slope_caps_multiplicities():
    rng = random.Random("trunc")
    z, one = _z(Q2), MvPoly.one(Q2, 1)
    primes = [z, z + one, z + _c(Q2, 2)]
    for _ in range(20):
        exps = [rng.randint(0, 3) for _ in primes]
        if not any(exps):
            continue
        f = MvPoly.one(Q2, 1)
        for P, e in zip(primes, exps):
            f = f * P ** e
        for ell in (1, 2, 3):
            cd = truncated_counting(f, ell)
            assert cd.integrated.final_slope == sum(min(ell, e) for e in exps if e)


# -- piecewise-linear algebra ------------------------------------------------

def _envelope_at(lines, rho):
    return max(s * rho + b for s, b in lines)


def _assert_canonical(P):
    assert all(a < b for a, b in zip(P.breakpoints, P.breakpoints[1:]))
    assert all(a != b for a, b in zip(P.slopes, P.slopes[1:]))
    assert len(P.slopes) == len(P.breakpoints) + 1


def _probes(P, extra=()):
    """Every breakpoint, the midpoints between them, points past both ends."""
    bps = P.breakpoints
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    ends = [bps[0] - 1, bps[-1] + 1] if bps else [Fraction(0)]
    return list(bps) + mids + ends + list(extra)


def test_pl_abs_and_max():
    # max(rho - 2, 0) and |rho - 2| = max(rho - 2, 2 - rho) as envelopes
    M = PiecewiseLinear.upper_envelope([(1, -2), (0, 0)])
    assert M.value(0) == 0 and M.value(5) == 3 and M.value(2) == 0
    assert M.breakpoints == [Fraction(2)] and M.slopes == [0, 1]
    absA = PiecewiseLinear.upper_envelope([(1, -2), (-1, 2)])
    assert absA.value(2) == 0 and absA.value(0) == 2 and absA.value(3) == 1
    assert absA.breakpoints == [Fraction(2)] and absA.slopes == [-1, 1]
    # dominated and repeated lines leave no trace
    E = PiecewiseLinear.upper_envelope([(0, 0), (1, -2), (1, -5), (Fraction(1, 2), -2), (0, -1)])
    assert E == M


def test_pl_add_sub_scale():
    A = PiecewiseLinear([Fraction(0)], [0, 2], 1)
    B = PiecewiseLinear([Fraction(1)], [1, 3], 0)
    S = A + B
    for rho in (-2, 0, Fraction(1, 2), 1, 4):
        assert S.value(rho) == A.value(rho) + B.value(rho)
    D = A - B
    for rho in (-1, 0, 2):
        assert D.value(rho) == A.value(rho) - B.value(rho)
    half = A.scale(Fraction(1, 2))
    assert half.value(4) == A.value(4) / 2


def test_pl_nonnegativity():
    assert is_nonnegative(PiecewiseLinear([Fraction(0)], [-1, 1], 0))
    assert not is_nonnegative(PiecewiseLinear([Fraction(0)], [1, -1], 0))
    assert is_nonnegative(PiecewiseLinear([], [0], 3))
    assert not is_nonnegative(PiecewiseLinear([], [1], 3))


def test_pl_operations_pointwise():
    rng = random.Random("plmax")

    def rand_pl():
        nb = rng.randint(0, 3)
        bps = sorted(set(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                         for _ in range(nb)))
        slopes = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                  for _ in range(len(bps) + 1)]
        return PiecewiseLinear(bps, slopes, Fraction(rng.randint(-5, 5)))

    def rand_lines():
        return [(Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 7))]

    for _ in range(150):
        A, B = rand_pl(), rand_pl()
        S, D = A + B, A - B
        lines = rand_lines()
        M = PiecewiseLinear.upper_envelope(lines)
        _assert_canonical(M)
        randoms = [Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(10)]
        for r in _probes(M, randoms):
            assert M.value(r) == _envelope_at(lines, r)
        for r in _probes(S, A.breakpoints + B.breakpoints + randoms):
            assert S.value(r) == A.value(r) + B.value(r)
            assert D.value(r) == A.value(r) - B.value(r)
        assert M.final_slope == max(s for s, _ in lines)
        assert initial_slope(M) == min(s for s, _ in lines)


def test_max_log_profile_is_max_of_norms():
    rng = random.Random("maxnorm")
    for spec in ALL_SPECS:
        for m in (1, 2):
            for _ in range(8):
                fs = [random_poly(rng, spec, m, 5, nonzero=True)
                      for _ in range(rng.randint(1, 5))]
                M = _max_log_profile(fs)
                _assert_canonical(M)
                sampled = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(6)]
                for r in _probes(M, sampled):
                    assert M.value(r) == max(log_gauss_norm(f, r) for f in fs)
                assert initial_slope(M) == min(min_degree(f) for f in fs)
                assert M.final_slope == max(f.total_degree() for f in fs)


# -- property tests: every operation agrees with sampled evaluation ----------

_fracs = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@st.composite
def _pl_data(draw):
    bps = sorted(draw(st.lists(_fracs, max_size=4, unique=True)))
    slopes = draw(st.lists(_fracs, min_size=len(bps) + 1, max_size=len(bps) + 1))
    return bps, slopes, draw(_fracs)


def _pl_at(data, rho):
    """Reference value straight from the constructor's data: the anchor is
    the value at the first breakpoint (at rho = 0 when there is none)."""
    bps, slopes, anchor = data
    if not bps:
        return anchor + slopes[0] * rho
    v, left = anchor, bps[0]
    if rho <= left:
        return v + slopes[0] * (rho - left)
    for s, right in zip(slopes[1:], bps[1:] + [None]):
        if right is None or rho <= right:
            return v + s * (rho - left)
        v, left = v + s * (right - left), right


_property = settings(max_examples=150, deadline=None)


@_property
@given(_pl_data(), _pl_data(), st.lists(_fracs, max_size=4))
def test_property_add_sub_agree_with_sampling(a, b, extra):
    A, B = PiecewiseLinear(*a), PiecewiseLinear(*b)
    S, D = A + B, A - B
    _assert_canonical(S)
    _assert_canonical(D)
    for r in _probes(S, a[0] + b[0] + extra):
        assert A.value(r) == _pl_at(a, r)
        assert S.value(r) == _pl_at(a, r) + _pl_at(b, r)
        assert D.value(r) == _pl_at(a, r) - _pl_at(b, r)


@_property
@given(_pl_data(), _fracs, st.lists(_fracs, max_size=4))
def test_property_scale_agrees_with_sampling(a, q, extra):
    Q = PiecewiseLinear(*a).scale(q)
    _assert_canonical(Q)
    for r in _probes(Q, a[0] + extra):
        assert Q.value(r) == q * _pl_at(a, r)


@_property
@given(st.lists(st.tuples(_fracs, _fracs), min_size=1, max_size=8),
       st.lists(_fracs, max_size=4))
def test_property_upper_envelope_agrees_with_sampling(lines, extra):
    M = PiecewiseLinear.upper_envelope(lines)
    _assert_canonical(M)
    for r in _probes(M, extra):
        assert M.value(r) == _envelope_at(lines, r)
    assert initial_slope(M) == min(s for s, _ in lines)
    assert M.final_slope == max(s for s, _ in lines)
    # each breakpoint is a kink where lines of two slopes meet on the envelope
    for b in M.breakpoints:
        assert len({s for s, c in lines if s * b + c == M.value(b)}) >= 2


_numbers = st.one_of(st.integers(-12, 12), _fracs)


@_property
@given(st.one_of(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                          min_size=1, max_size=10),
                 st.lists(st.tuples(_numbers, _numbers), min_size=1, max_size=8)))
def test_property_upper_envelope_matches_the_fraction_hull(lines):
    M = PiecewiseLinear.upper_envelope(lines)
    assert M == ref_upper_envelope(lines)
    assert M.values == ref_upper_envelope(lines).values
    assert all(type(b) is Fraction for b in M.breakpoints)
    if all(type(x) is int for line in lines for x in line):
        # integer lines: only the breakpoints are Fractions
        assert all(type(x) is int for x in M.slopes + M.intercepts)


@settings(max_examples=100, deadline=None)
@given(property_polys([Q2, Q3, F2, F3, F2T, F3T], 3),
       st.lists(st.integers(1, 2), min_size=3, max_size=3))
def test_property_product_profile_is_the_sum_of_the_factors(fs, es):
    # the Gauss norm is multiplicative: profile(prod a^e) = sum e * profile(a),
    # and the integrated counting functions add the same way
    powers = [(e, f) for e, f in zip(es, fs) if not f.is_zero()]
    F = MvPoly.one(fs[0].spec, fs[0].m)
    profile = integrated = PiecewiseLinear.line(0, 0)
    for e, f in powers:
        F = F * f ** e
        profile = profile + norm_profile(f).scale(e)
        integrated = integrated + counting(f).integrated.scale(e)
    assert norm_profile(F) == profile
    assert counting(F).integrated == integrated
    assert product_counting(powers) == counting(F)

