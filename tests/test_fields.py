import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyabc.errors import CasError, ParseError
from polyabc.fields import (FIELD_KINDS, NEG_INFINITY, PRIME_FIELD, RATFUNC_T_ADIC, Coeff,
                            FieldSpec, _dense_gcd, _fpt_add, _fpt_divmod, _fpt_mul, _q_canonical,
                            _ratfunc_canonical, is_prime, parse_coeff)
from polyabc.wronskian import _scan_rows

from conftest import (ALL_SPECS, F2, F2T, F3, F3T, F5, Q2, Q3, Q5, assert_canonical,
                      property_coeff, property_polys, random_coeff)
from helpers import ref_coeff_gcd, ref_fp_add, ref_fp_divmod, ref_fp_gcd, ref_fp_mul


def _p_valuation(n: int, p: int) -> int:
    # independent oracle: count divisions
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def test_log_abs_rational_example():
    a = Q5.from_fraction(Fraction(25, 3))
    expected = -(_p_valuation(25, 5) - _p_valuation(3, 5))
    assert expected == -2
    assert a.log_abs() == Fraction(-2)


def test_log_abs_unity_all_specs():
    for spec in ALL_SPECS:
        assert spec.one().log_abs() == 0


def test_log_abs_ratfunc_example():
    F7T = FieldSpec("ratfunc_t_adic", 7)
    a = parse_coeff(F7T, "t^2/(t+1)")
    assert a.log_abs() == Fraction(-2)


def test_log_abs_zero_is_neg_infinity():
    for spec in ALL_SPECS:
        assert spec.zero().log_abs() is NEG_INFINITY
        assert NEG_INFINITY < Fraction(-10**9)


def test_field_arith_examples():
    assert F5.from_int(3) + F5.from_int(4) == F5.from_int(2)
    half = Q2.from_fraction(Fraction(1, 2))
    assert half * Q2.from_int(4) == Q2.from_int(2)
    t = F3T.t()
    assert str(t / (t * t)) == "1/t"


def test_division_by_zero():
    with pytest.raises(CasError) as exc:
        F5.from_int(1) / F5.zero()
    assert exc.value.code == "DIVISION_BY_ZERO"


def test_spec_mismatch():
    with pytest.raises(CasError) as exc:
        Q2.one() + Q5.one()
    assert exc.value.code == "SPEC_MISMATCH"


def test_pth_root_prime_field_identity():
    # Frobenius is the identity on F_p
    assert F5.from_int(2).pth_root(1) == F5.from_int(2)
    for k in range(5):
        a = F5.from_int(k)
        r = a.pth_root(1)
        assert r * r * r * r * r == a


def test_pth_root_ratfunc():
    t3 = parse_coeff(F3T, "t^3")
    r = t3.pth_root(1)
    assert r * r * r == t3
    assert str(r) == "t"
    with pytest.raises(CasError) as exc:
        F3T.t().pth_root(1)
    assert exc.value.code == "NOT_A_PTH_POWER"
    for a, s, code in ((Q2.from_int(4), 1, "WRONG_CHARACTERISTIC"),
                       (Q2.from_int(4), 0, "WRONG_CHARACTERISTIC"),
                       (F3.one(), 0, "VALIDATION_ERROR"), (t3, 0, "VALIDATION_ERROR")):
        with pytest.raises(CasError) as exc:
            a.pth_root(s)
        assert exc.value.code == code


def test_integer_embeddings_bounded():
    # |k| <= 1 for every embedded integer
    for spec in ALL_SPECS:
        for k in range(-30, 31):
            a = spec.from_int(k)
            assert a.log_abs() is NEG_INFINITY or a.log_abs() <= 0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_ultrametric_and_multiplicativity(spec):
    rng = random.Random(f"fields-{spec}")
    for _ in range(10_000):
        a = random_coeff(rng, spec)
        b = random_coeff(rng, spec)
        la, lb = a.log_abs(), b.log_abs()
        ls = (a + b).log_abs()
        assert ls <= max(la, lb)
        if la != lb:
            assert ls == max(la, lb)
        lp = (a * b).log_abs()
        if a.is_zero() or b.is_zero():
            assert lp is NEG_INFINITY
        else:
            assert lp == la + lb


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_field_axioms_random(spec):
    rng = random.Random(f"axioms-{spec}")
    for _ in range(300):
        a = random_coeff(rng, spec)
        b = random_coeff(rng, spec, nonzero=True)
        c = random_coeff(rng, spec)
        assert (a + b) * c == a * c + b * c
        assert (a / b) * b == a
        assert a - a == spec.zero()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_coeff_string_round_trip(spec):
    rng = random.Random(f"strings-{spec}")
    for _ in range(200):
        a = random_coeff(rng, spec)
        assert parse_coeff(spec, str(a)) == a


@pytest.mark.parametrize("text", ["t+1/t", "1/t+1", "t-1/t", "t + 1 / t", "2/t^2-t"])
def test_ratfunc_sum_beside_a_slash_needs_parentheses(text):
    # "t+1/t" used to load as (t+1)/t and "1/t+1" as 1/(t+1), with no error
    with pytest.raises(ParseError):
        parse_coeff(F3T, text)


@pytest.mark.parametrize("text, want", [("(t+1)/t", "(t+1)/t"), ("1/(t+1)", "1/(t+1)"),
                                        ("2*t^2/(t+1)", "2*t^2/(t+1)"), ("-1/t", "2/t"),
                                        ("t+1", "t+1"), ("(2*t+2)/(t+1)", "2")])
def test_ratfunc_parenthesised_quotients_still_load(text, want):
    assert str(parse_coeff(F3T, text)) == want


def test_prime_validation():
    with pytest.raises(CasError) as exc:
        FieldSpec(PRIME_FIELD, 4)
    assert exc.value.code == "VALIDATION_ERROR"


def test_characteristic():
    assert Q5.characteristic == 0
    assert F5.characteristic == 5
    assert F3T.characteristic == 3


def test_pth_root_squares():
    # cube and compare over F_3(t), several rounds
    rng = random.Random("roots")
    for _ in range(100):
        a = random_coeff(rng, F3T)
        cube = a * a * a
        assert cube.pth_root(1) == a


# -- the Ring of each field kind, on raw payloads ------------------------------

_RING_SPECS = [Q2, F2, F3, F5, F2T, F3T]


@st.composite
def _ring_triples(draw):
    """Three payloads of one field; products of two drawn coefficients reach
    numerators and denominators of degree up to 2 over F_p(t)."""
    spec = draw(st.sampled_from(_RING_SPECS))
    coeff = property_coeff(spec)
    vals = [(draw(coeff) * draw(coeff)).val if draw(st.booleans()) else draw(coeff).val
            for _ in range(3)]
    return spec, vals


@settings(max_examples=300, deadline=None)
@given(_ring_triples())
def test_property_ring_axioms_and_canonical_payloads(triple):
    spec, (a, b, c) = triple
    R = spec.ring
    zero, one = R.zero, R.one
    results = [R.add(a, b), R.sub(a, b), R.neg(a), R.mul(a, b), zero, one]
    assert R.add(a, b) == R.add(b, a) and R.mul(a, b) == R.mul(b, a)
    assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
    assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
    assert R.add(a, zero) == a and R.mul(a, one) == a
    assert R.is_zero(R.add(a, R.neg(a))) and R.sub(a, b) == R.add(a, R.neg(b))
    assert R.is_zero(zero) and not R.is_zero(one) and R.is_zero(a) == (a == zero)
    if not R.is_zero(b):
        assert R.mul(R.div(a, b), b) == a
        results.append(R.div(a, b))
    for val in results:
        assert_canonical(spec, val)
    if spec.kind == RATFUNC_T_ADIC:
        # the shortcut for denominator 1 agrees with the general formula
        p, (n1, d1), (n2, d2) = spec.p, a, b
        num = _fpt_add(_fpt_mul(n1, d2, p), _fpt_mul(n2, d1, p), p)
        assert R.add(a, b) == _ratfunc_canonical(num, _fpt_mul(d1, d2, p), R.base)
        assert R.mul(a, b) == _ratfunc_canonical(_fpt_mul(n1, n2, p), _fpt_mul(d1, d2, p), R.base)


# canonical Q payloads: ints and non-integral Fractions
_q_payloads = st.one_of(st.integers(-60, 60), st.fractions(-6, 6, max_denominator=6).map(
    lambda q: q.numerator if q.denominator == 1 else q))


@settings(max_examples=300, deadline=None)
@given(_q_payloads, _q_payloads)
def test_property_q_ring_returns_no_float_and_no_integral_fraction(a, b):
    R = Q3.ring
    results = [(R.add(a, b), Fraction(a) + Fraction(b)), (R.sub(a, b), Fraction(a) - Fraction(b)),
               (R.neg(a), -Fraction(a)), (R.mul(a, b), Fraction(a) * Fraction(b))]
    if b:
        results.append((R.div(a, b), Fraction(a) / Fraction(b)))
    for got, want in results:
        assert got == want
        assert_canonical(Q3, got)


def test_q_payloads_examples():
    R = Q2.ring
    assert (R.zero, R.one) == (0, 1) and type(R.zero) is type(R.one) is int
    for a, b, want in ((6, 3, 2), (1, 3, Fraction(1, 3)), (-6, 4, Fraction(-3, 2)),
                       (Fraction(1, 2), Fraction(1, 4), 2), (3, Fraction(3, 2), 2)):
        got = R.div(a, b)
        assert got == want and type(got) is type(want)
    assert type(R.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(R.sub(Fraction(5, 2), Fraction(1, 2))) is int
    assert type(R.mul(Fraction(3, 2), 2)) is int
    assert type((Q2.from_int(6) / Q2.from_int(3)).val) is int
    for c in (Q2.from_int(4), Q2.from_fraction(Fraction(6, 3)), parse_coeff(Q2, "6/3"),
              parse_coeff(Q2, "-4/6"), Q2.one().inverse()):
        assert_canonical(Q2, c.val)
    # the monic gcd of x^2 - 1 and 2x + 2 is x + 1, in ints
    g = R.gcd((-1, 0, 1), (2, 2))
    assert g == (1, 1) and all(type(x) is int for x in g)
    # the valuations are integers
    for a, v in ((Q2.from_fraction(Fraction(3, 8)), 3), (Q3.from_int(18), -2),
                 (F3.from_int(2), 0), (F3T.t() * F3T.t(), -2)):
        assert a.log_abs() == v and type(a.log_abs()) is int


# -- univariate gcd and division on dense payload tuples ------------------------

_DENSE_SPECS = [F2, F3, F5, F2T, F3T, Q2]


def _trimmed(cs):
    n = len(cs)
    while n and cs[n - 1].is_zero():
        n -= 1
    return cs[:n]


@st.composite
def _dense_pairs(draw):
    """Two dense polynomials of degree <= 4 over one field, as Coeff lists
    without trailing zeros: zero and constants included, and over F_p(t)
    coefficients with denominators t and 1 + t."""
    spec = draw(st.sampled_from(_DENSE_SPECS))
    coeff = property_coeff(spec)
    return spec, [_trimmed(draw(st.lists(coeff, max_size=5))) for _ in range(2)]


@settings(max_examples=400, deadline=None)
@given(_dense_pairs())
def test_property_dense_gcd_and_divmod_match_references(pair):
    spec, (a, b) = pair
    R = spec.ring
    A, B = tuple(c.val for c in a), tuple(c.val for c in b)
    g = R.gcd(A, B)
    assert g == tuple(c.val for c in ref_coeff_gcd(a, b))
    if spec.kind == PRIME_FIELD:
        assert g == ref_fp_gcd(A, B, spec.p)
    if not B:
        with pytest.raises(CasError):
            R.divmod(A, B)
        return
    q, r = R.divmod(A, B)
    if spec.kind == PRIME_FIELD:
        assert (q, r) == ref_fp_divmod(A, B, spec.p)
    for val in g + q + r:
        assert_canonical(spec, val)
    assert len(r) < len(B) and not (q and R.is_zero(q[-1])) and not (r and R.is_zero(r[-1]))
    # a = q * b + r, by boxed arithmetic
    out = [spec.zero()] * max(len(a), len(q) + len(b) - 1)
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + Coeff(spec, x) * y
    for i, x in enumerate(r):
        out[i] = out[i] + Coeff(spec, x)
    assert _trimmed(out) == a


# -- unit and constant operands of the F_p[t] kernels ------------------------------

def _fp_tuples(p):
    """F_p[t] tuples: zero, 1, other constants, and operands up to degree 11."""
    return st.one_of(st.just(()), st.just((1,)), st.integers(1, p - 1).map(lambda c: (c,)),
                     st.lists(st.integers(0, p - 1), min_size=2, max_size=12).map(
                         lambda c: ref_fp_add(c, (), p)))


@st.composite
def _fp_kernel_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    return p, draw(_fp_tuples(p)), draw(_fp_tuples(p))


@settings(max_examples=400, deadline=None)
@given(_fp_kernel_cases())
def test_property_fp_kernels_match_schoolbook(case):
    p, a, b = case
    product = _fpt_mul(a, b, p)
    assert product == ref_fp_mul(a, b, p) and type(product) is tuple
    assert _dense_gcd(a, b, FieldSpec(PRIME_FIELD, p).ring) == ref_fp_gcd(a, b, p)
    if not b:
        with pytest.raises(CasError):
            _fpt_divmod(a, b, p)
        return
    q, r = _fpt_divmod(a, b, p)
    assert (q, r) == ref_fp_divmod(a, b, p) and type(q) is type(r) is tuple


@st.composite
def _one_denominator_1(draw):
    """An F_p(t) polynomial (denominator 1) and a payload whose denominator
    is not 1, over one field."""
    spec = draw(st.sampled_from([F2T, F3T, FieldSpec(RATFUNC_T_ADIC, 5)]))
    p, base = spec.p, spec.ring.base

    def poly(min_size):  # a nonzero leading coefficient over min_size lower ones
        low = draw(st.lists(st.integers(0, p - 1), min_size=min_size, max_size=6))
        return tuple(low) + (draw(st.integers(1, p - 1)),)

    a = (draw(_fp_tuples(p)), (1,))
    b = _ratfunc_canonical(poly(0), poly(1), base)
    assume(b[1] != (1,))
    return spec, a, b


@settings(max_examples=300, deadline=None)
@given(_one_denominator_1())
def test_property_ratfunc_sum_with_one_denominator_1_is_canonical(case):
    # a sum with one denominator 1 is the canonical form of the general formula
    spec, a, b = case
    R, p = spec.ring, spec.p
    for x, y in ((a, b), (b, a)):
        (n1, d1), (n2, d2) = x, y
        den = ref_fp_mul(d1, d2, p)
        plus = ref_fp_add(ref_fp_mul(n1, d2, p), ref_fp_mul(n2, d1, p), p)
        minus = ref_fp_add(ref_fp_mul(n1, d2, p), ref_fp_mul(ref_fp_mul(n2, d1, p), (p - 1,), p), p)
        assert R.add(x, y) == _ratfunc_canonical(plus, den, R.base)
        assert R.sub(x, y) == _ratfunc_canonical(minus, den, R.base)
        for val in (R.add(x, y), R.sub(x, y)):
            assert_canonical(spec, val)
            assert not R.is_zero(val)  # d2 != 1 cannot divide an n2 coprime to it


def test_ratfunc_sums_with_denominator_1_keep_the_canonical_zero():
    R = F3T.ring
    a, b = ((2, 0, 1), (1,)), ((1,), (1, 1))
    assert R.sub(a, a) == R.zero == ((), (1,)) and R.add(a, R.neg(a)) == R.zero
    assert R.add(R.zero, b) == b == R.add(b, R.zero) and R.sub(b, R.zero) == b
    assert R.sub(R.zero, b) == R.neg(b) and R.add(b, R.neg(b)) == R.zero


def test_ring_stays_out_of_spec_identity():
    a, b = FieldSpec(RATFUNC_T_ADIC, 3), FieldSpec(RATFUNC_T_ADIC, 3)
    assert a.ring is not b.ring and a == b and hash(a) == hash(b)
    assert repr(a) == "FieldSpec(kind='ratfunc_t_adic', p=3)" and str(a) == "F_3(t)"


def test_field_spec_leaves_no_cyclic_garbage():
    # the Ring reaches its own gcd through a method, not a closure over itself
    gc.collect()
    gc.disable()
    try:
        for kind in FIELD_KINDS:
            ring = FieldSpec(kind, 3).ring
            assert ring.gcd((ring.one,), ()) == (ring.one,)
            del ring
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", [F2T, F3T], ids=["F2T", "F3T"])
def test_clear_denominators_matches_the_lcm(spec):
    # every numerator times L / den, L the lcm of the denominators, with and
    # without denominators other than 1
    p = spec.p
    rng = random.Random(f"clear-{spec}")

    def lcm(a, b):
        return ref_fp_divmod(_fpt_mul(a, b, p), ref_fp_gcd(a, b, p), p)[0]

    for _ in range(40):
        vals = [random_coeff(rng, spec).val for _ in range(rng.randint(1, 6))]
        for case in (vals, [(num, (1,)) for num, _ in vals]):
            big = (1,)
            for _, den in case:
                big = lcm(big, den)
            want = [_fpt_mul(num, ref_fp_divmod(big, den, p)[0], p) for num, den in case]
            assert spec.ring.clear(case) == want


def test_t_degree_guard_rejects_before_allocating():
    # a dense list of 10^8 slots would take about 800 MB; the guard runs first
    for text in ("t^99999999", "1 + t^600*t^500", "1/(t^1001 + 1)"):
        tracemalloc.start()
        try:
            with pytest.raises(CasError) as exc:
                parse_coeff(F3T, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "DEGREE_TOO_LARGE" and "t-degree" in str(exc.value)
        assert peak < 1 << 20
    num, den = parse_coeff(F3T, "t^1000 + 1").val
    assert len(num) == 1001 and den == (1,)


# -- valuation, roots, text and cleared rows through the Ring, every kind ----

_TEXT_SPECS = [Q2, Q3, F2, F5, F2T, F3T]


@st.composite
def _coeffs(draw, specs):
    """A coefficient of a field from ``specs``: over Q_p non-integral values,
    over F_p(t) denominators 1, t and 1 + t, as a product of up to three
    drawn coefficients and an integer, which reaches t-degree 3 and t-powers
    with coefficients other than 1."""
    spec = draw(st.sampled_from(specs))
    a = spec.from_int(draw(st.integers(1, 4)))
    for c in draw(st.lists(property_coeff(spec), min_size=1, max_size=3)):
        a = a * c
    return spec, a


@settings(max_examples=300, deadline=None)
@given(_coeffs(_TEXT_SPECS))
def test_property_coefficient_text_round_trip(drawn):
    spec, a = drawn
    assert parse_coeff(spec, str(a)) == a
    assert parse_coeff(spec, f"  {a} ") == a


@settings(max_examples=200, deadline=None)
@given(_coeffs([F2, F3, F5, F2T, F3T]), st.integers(1, 2))
def test_property_root_of_a_power(drawn, s):
    spec, a = drawn
    power = spec.one()
    for _ in range(spec.p ** s):
        power = power * a
    assert power.pth_root(s) == a


# integer text in the spellings int() accepts, and text only Fraction() reads
_q_texts = st.one_of(
    st.from_regex(r"\s*[+-]?[0-9]{1,4}(_[0-9]{1,3})?\s*", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{1,3}(/[0-9]{1,3}|\.[0-9]{0,2}|e[+-]?[0-9])?", fullmatch=True),
    st.sampled_from(["٣", "-0", "007", "1/0", "1_000", "5.0", "1e3", "", "abc", "1//2", "0x10"]),
    st.text(alphabet="0123456789+-_/. e", max_size=6))


@settings(max_examples=400, deadline=None)
@given(_q_texts)
def test_property_q_parse_matches_fraction(text):
    # the int() fast path gives Fraction's payload, and Fraction's errors
    try:
        want = _q_canonical(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            Q3.ring.parse(text)
        assert str(got.value) == str(exc)
        return
    got = Q3.ring.parse(text)
    assert got == want and type(got) is type(want)


def _pad_and_flatten(rows):
    # reference: each F_p[t] entry padded to the longest and spread into its row
    width = max((len(a) for row in rows for a in row), default=0)
    return [[a[i] if i < len(a) else 0 for a in row for i in range(width)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(property_polys([Q2, F3, F2T, F3T], 3))
def test_property_coords_of_cleared_rows(fs):
    spec = fs[0].spec
    if all(f.is_zero() for f in fs):
        return
    rows = _scan_rows(fs)
    want = _pad_and_flatten(rows) if spec.kind == RATFUNC_T_ADIC else rows
    assert spec.ring.coords(rows) == want
    # a row's coordinates vanish exactly when its function does
    for f, row in zip(fs, spec.ring.coords(rows)):
        assert f.is_zero() == (not any(row))


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_20000():
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if _trial_division_prime(n)]


@pytest.mark.parametrize("n, prime", [
    (561, False),                    # Carmichael
    (3215031751, False),             # strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),    # strong pseudoprime to every base up to 23
    (2 ** 61 - 1, True),
    (1000000000000000003, True),
    (2 ** 64 - 59, True),            # the largest prime below the limit
])
def test_is_prime_decides_hard_cases_at_once(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_the_limit_and_beyond():
    # past 2^64 the twelve bases no longer decide: 318665857834031151167461 is
    # composite and passes them all
    for n in (2 ** 64, 2 ** 64 + 13, 318665857834031151167461):
        with pytest.raises(CasError) as exc:
            is_prime(n)
        assert exc.value.code == "GUARD_EXCEEDED" and "2^64" in str(exc.value)
