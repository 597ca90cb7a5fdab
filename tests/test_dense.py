"""The recursive dense kernel behind ``poly_gcd`` and
``square_free_decomposition``: its level operations, and differential tests
in two and three variables over Q_2, F_2, F_3, F_5, F_2(t) and F_3(t)
against the ``MvPoly`` references in ``helpers``, and over Q_2 and F_p
against sympy's factorizations (``oracle``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyabc.errors import CasError, NotDivisible
from polyabc.fields import RATFUNC_T_ADIC
from polyabc.mvpoly import (MvPoly, dense_domain, exact_div, from_dense, grlex_key, poly_gcd,
                            present_vars, to_dense)
from polyabc.oracle import squarefree_factor_oracle
from polyabc.radicals import (_dense_root, radical_chain, square_free_decomposition,
                              stable_radical_level)

from conftest import F2, F2T, F3, F3T, F5, Q2, property_coeff
from helpers import (degree_in, poly_from_text, ref_exact_div, ref_poly_gcd,
                     ref_square_free_decomposition)

SPECS = [Q2, F2, F3, F5, F2T, F3T]
ORACLE_CAP = 24


def _outcome(compute):
    """The value, or the code and message of the CasError raised."""
    try:
        return compute(), None
    except CasError as exc:
        return None, (exc.code, str(exc))


# -- level operations -----------------------------------------------------------

def test_dense_round_trip_keeps_terms_in_graded_lex_order():
    f = poly_from_text(F3, 3, "2 * z1^2 * z3 + z2 + 1 * z1 * z3^2 + 2")
    vs = present_vars(f)
    assert vs == [0, 1, 2]
    a = to_dense(f, vs)
    assert a == (((2,), (1,)), ((0, 0, 2),), ((0, 1),))
    back = from_dense(F3, 3, vs, a)
    assert back == f
    assert list(back.terms) == sorted(f.terms, key=grlex_key, reverse=True)
    # an absent variable is skipped, not carried as a level
    g = poly_from_text(F3, 3, "z1 * z3 + 1")
    assert present_vars(g) == [0, 2] and to_dense(g, [0, 2]) == ((1,), (0, 1))
    assert from_dense(F3, 3, [0, 2], to_dense(g, [0, 2])) == g


@pytest.mark.parametrize("spec", SPECS)
def test_dense_level_operations_match_mvpoly(spec):
    m = 3
    f = poly_from_text(spec, m, "z1 * z2 + z3^2 + 2")
    g = poly_from_text(spec, m, "z1^2 + 2 * z2 * z3 + z3 + 1")
    vs = [0, 1, 2]
    level = dense_domain(spec, 3)
    assert level.depth == 3 and dense_domain(spec, 3) is level
    A, B = to_dense(f, vs), to_dense(g, vs)

    def back(a):
        return from_dense(spec, m, vs, a)

    assert back(level.add(A, B)) == f + g
    assert back(level.sub(A, B)) == f - g and level.sub(A, A) == ()
    assert back(level.neg(A)) == -f
    assert back(level.mul(A, B)) == f * g
    assert back(level.pow(A, 3)) == f ** 3 and level.pow(A, 0) == level.one
    c = to_dense(poly_from_text(spec, m, "z1 + z2"), vs)[0]  # a level-2 element
    assert back(level.scale(B, c)) == g * poly_from_text(spec, m, "z1 + z2")
    assert level.exquo(level.mul(A, B), B) == A
    with pytest.raises(NotDivisible):
        level.exquo(level.add(level.mul(A, B), level.one), B)
    with pytest.raises(NotDivisible):
        level.exquo(B, level.mul(A, B))
    h = poly_from_text(spec, m, "z1 * z3 + z2 + 1")
    H = to_dense(h, vs)
    G = level.gcd(level.mul(A, H), level.mul(B, H))
    assert back(G).normalized() == h.normalized()
    # a gcd comes scaled to lex-leading leaf 1, gcd(b, 0) included
    for got, want in ((G, h), (level.gcd(A, ()), f), (level.gcd((), B), g)):
        assert got[-1][-1][-1] == spec.ring.one and back(got).normalized() == want.normalized()


def test_levels_leave_no_cyclic_garbage():
    import gc

    from polyabc.fields import FieldSpec

    gc.collect()
    gc.disable()
    try:
        spec = FieldSpec(RATFUNC_T_ADIC, 3)
        f = poly_from_text(spec, 2, "z1 * z2 + t")
        assert poly_gcd(f * f, f) == f.normalized()
        assert len(spec.dense) == 2
        del spec, f
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- differential tests ------------------------------------------------------------

def _polys(spec, m):
    """Polynomials in m variables with at most 3 terms; partial degree <= 2
    in two variables, <= 1 in one or three."""
    top = 2 if m == 2 else 1
    term = st.tuples(st.tuples(*[st.integers(0, top)] * m), property_coeff(spec))
    return st.lists(term, max_size=3).map(lambda ts: MvPoly.from_terms(spec, m, ts))


@st.composite
def _gcd_cases(draw):
    """(f * h, g * h): a planted common factor h."""
    spec = draw(st.sampled_from(SPECS))
    m = draw(st.integers(2, 3))
    f, g, h = (draw(_polys(spec, m)) for _ in range(3))
    return f * h, g * h


def _oracle_cheap(*fs) -> bool:
    """Whether sympy factors the fs in seconds.  The oracle factors through
    one variable of degree about prod (deg_i + 1) by Kronecker substitution,
    over F_p(t) with t as one more variable; past a few dozen that takes
    minutes.  Other inputs are checked against the reference only."""
    if fs[0].spec.kind == RATFUNC_T_ADIC:
        return False
    for f in fs:
        size = 1
        for v in range(f.m):
            size *= degree_in(f, v) + 1
        if size > 64:
            return False
    return True


def _oracle_gcd(F: MvPoly, G: MvPoly) -> MvPoly:
    """The gcd read off sympy's irreducible factorizations (``oracle``):
    every common factor at the smaller multiplicity."""
    if F.is_zero() or G.is_zero():
        return (F if G.is_zero() else G).normalized()
    mult = dict(squarefree_factor_oracle(F, degree_cap=ORACLE_CAP))
    out = MvPoly.one(F.spec, F.m)
    for P, e in squarefree_factor_oracle(G, degree_cap=ORACLE_CAP):
        out = out * P ** min(e, mult.get(P, 0))
    return out


@settings(max_examples=150, deadline=None)
@given(_gcd_cases())
def test_property_gcd_matches_reference_and_sympy(case):
    F, G = case
    if F.is_zero() and G.is_zero():
        return
    ours = poly_gcd(F, G)
    assert ours == ref_poly_gcd(F, G)
    if _oracle_cheap(F, G):
        assert ours == _oracle_gcd(F, G)


@st.composite
def _unit_cases(draw):
    """(f * h, g * h, h) whose remainder sequences meet unit coefficients:
    "monic" makes f, g and h monic in the main variable z_m, "constant"
    gives f another nonzero constant as leading coefficient, and "level3"
    plants the factor z1 + c in h and the term z1 * z3^k above f's degree in
    z3, a level-3 coefficient of length 1 that is not constant."""
    spec = draw(st.sampled_from(SPECS))
    shape = draw(st.sampled_from(["monic", "constant", "level3"]))
    m = 3 if shape == "level3" else draw(st.integers(2, 3))
    f, g, h = (draw(_polys(spec, m)) for _ in range(3))
    h = h or MvPoly.one(spec, m)
    z, z1 = MvPoly.variable(spec, m, m - 1), MvPoly.variable(spec, m, 0)

    def lead(x, c):
        return x + c * z ** (degree_in(x, m - 1) + 1)

    one = MvPoly.one(spec, m)
    if shape == "monic":
        f, g, h = lead(f, one), lead(g, one), lead(h, one)
    elif shape == "constant":
        c = draw(property_coeff(spec).filter(lambda c: not c.is_zero()))
        f, g = lead(f, MvPoly.constant(spec, m, c)), lead(g, one)
    else:
        f = lead(f, z1)
        h = h * (z1 + MvPoly.constant(spec, m, draw(property_coeff(spec))))
    return f * h, g * h, h


@settings(max_examples=150, deadline=None)
@given(_unit_cases())
def test_property_gcd_and_exact_div_with_unit_coefficients(case):
    F, G, H = case
    g = poly_gcd(F, G)
    assert g == ref_poly_gcd(F, G)
    for x, y in ((F, g), (G, g), (F, H)):
        assert exact_div(x, y) == ref_exact_div(x, y)


def test_content_of_a_level_3_coefficient_of_length_1():
    # z1 * z3 * (z3 + z2) and z1 * (z3 + 1): the coefficients z1 and z1 * z2
    # of z3 have the content z1, which a test of length 1 would call a unit
    for spec in SPECS:
        F = poly_from_text(spec, 3, "z1 * z3^2 + z1 * z2 * z3")
        G = poly_from_text(spec, 3, "z1 * z3 + z1")
        z1 = poly_from_text(spec, 3, "z1")
        assert poly_gcd(F, G) == z1 == ref_poly_gcd(F, G)
        assert exact_div(F, z1) == poly_from_text(spec, 3, "z3^2 + z2 * z3")


def _planted(spec, m, draw, budget=None):
    """u * v^2 * w^q (w^3 over Q), or over F_p a p^k-th power u^q alone, whose
    partial derivatives all vanish, with q drawn from p, p^2 and p^3 as
    radical_ladder stacks them; over F_p(t) optionally times the inseparable
    irreducible z_m^p - t.  The total degree stays <= budget: 12 by default,
    and <= 8 over F_p(t), where the t-coefficients of a remainder sequence
    swell: at degree 12 one decomposition can take a minute, before and after
    the dense kernel alike (the gcd tail of ROADMAP items 9 and 13).  An
    exponent past the budget falls to the largest power of p that fits."""
    p = spec.characteristic
    u, v, w = (draw(_polys(spec, m)) for _ in range(3))
    one = MvPoly.one(spec, m)
    u, v, w = (x if not x.is_zero() else one for x in (u, v, w))
    q = p ** draw(st.integers(1, 3)) if p else 3
    if p and draw(st.booleans()):
        factors = [(u, q)]
    else:
        factors = [(u, 1), (v, 2), (w, q)]
    if spec.kind == RATFUNC_T_ADIC and draw(st.booleans()):
        factors.append((MvPoly.variable(spec, m, m - 1) ** p
                        - MvPoly.constant(spec, m, spec.t()), 1))
    if budget is None:
        budget = 8 if spec.kind == RATFUNC_T_ADIC else 12
    f = one
    for x, e in factors:
        cap = budget // max(x.total_degree(), 1)
        while e > cap:
            e = e // p if p and e % p == 0 else cap
        budget -= e * x.total_degree()
        f = f * x ** e
    return f


@st.composite
def _sqf_cases(draw):
    spec = draw(st.sampled_from(SPECS))
    if spec is F3 and draw(st.booleans()):
        # one variable up to radical_ladder's degree 31, as in its (27, 2, 1) shape
        return _planted(spec, 1, draw, budget=31)
    return _planted(spec, draw(st.integers(2, 3)), draw)


def _chain_from_parts(f, parts):
    """R_{p^0}(f), ..., R_{p^top}(f) as products of the decomposition's parts
    (i, a): level s takes the a whose i p^(s+1) does not divide."""
    p, top = f.spec.characteristic, stable_radical_level(f)
    chain = []
    for s in range(top + 1):
        r = MvPoly.one(f.spec, f.m)
        for i, a in parts:
            if not p or i % p ** (s + 1):
                r = r * a
        chain.append(r)
    return chain


@settings(max_examples=150, deadline=None)
@given(_sqf_cases())
def test_property_square_free_decomposition_matches_reference(f):
    # equal parts, or NOT_A_POWER with the reference's message, at every level
    # up to the stable one; the radical chain level by level
    if f.is_zero():
        return
    for s in range(stable_radical_level(f) + 1):
        got = _outcome(lambda: square_free_decomposition(f, s))
        ref = _outcome(lambda: ref_square_free_decomposition(f, s))
        assert got == ref
        if got[1]:
            assert got[1][0] == "NOT_A_POWER" and f.spec.kind == RATFUNC_T_ADIC
    # ref is the reference at the stable level, which the chain reaches
    chain = _outcome(lambda: radical_chain(f))
    assert chain == (ref if ref[1] else (_chain_from_parts(f, ref[0]), None))
    if got[1] is None and not f.is_constant() and _oracle_cheap(f):
        # sympy's irreducible factors, grouped by multiplicity, are the parts
        want = {}
        for P, e in squarefree_factor_oracle(f, degree_cap=max(ORACLE_CAP, f.total_degree())):
            want[e] = want.get(e, MvPoly.one(f.spec, f.m)) * P
        assert dict(got[0]) == want


@pytest.mark.parametrize("spec, text, top", [
    # (z1^2 + t + 1) z2: the square root of z1^2 + t + 1 leaves F_2(t)
    (F2T, "z1^2 * z2 + (t+1) * z2", 1),
    # every partial derivative vanishes: f itself goes to the p-th root
    (F2T, "z1^2 + t * z2^2 + 1", 1),
    (F3T, "z1^3 * z2^3 + t * z3^3", 1),
    # z1^3 (z1^3 + t)^2 z2: g = z1^3 (z1^3 + t)^2 has two coefficients with no
    # cube root in F_3(t), 2t and t^2; Yun's loop divides g by constants only,
    # so g's term order decides which one the message names: the graded-lex
    # first
    (F3T, "z1^9 * z2 + 2*t * z1^6 * z2 + t^2 * z1^3 * z2", 2),
    # no partial derivative moves, so f's own term order decides the name:
    # t+1 here, and t when the two terms swap
    (F2T, "z1^4 + (t+1) * z2^2 + t * z1^2", 1),
    (F2T, "z1^4 + t * z1^2 + (t+1) * z2^2", 1),
])
def test_inseparable_inputs_fail_as_the_reference_does(spec, text, top):
    m = 3 if "z3" in text else 2
    f = poly_from_text(spec, m, text)
    got = _outcome(lambda: square_free_decomposition(f, top))
    assert got[1] is not None and got[1][0] == "NOT_A_POWER"
    assert got == _outcome(lambda: ref_square_free_decomposition(f, top))


def test_dense_p_th_root_keeps_every_p_th_slot_and_roots_the_leaves():
    # the level-2 element of (z1^2 + t^2) z2^2 + 1 over F_2(t): its square
    # root z1 z2 + t z2 + 1 keeps slots 0, 2, ... of both levels, and the
    # F_p(t) zero ((), (1,)) in an odd slot is a zero, though a truthy pair
    ring = F2T.ring
    zero, one, t2 = ring.zero, ring.one, ((0, 0, 1), (1,))
    a = ((one,), (), (t2, zero, one))
    assert _dense_root(a, 2, 2, ring) == ((one,), (((0, 1), (1,)), one))
    # an odd slot that holds a nonzero element, or a leaf without a root
    for bad in (((one,), (one,)), ((((0, 1), (1,)),),)):
        with pytest.raises(CasError):
            _dense_root(bad, 2, 2, ring)
