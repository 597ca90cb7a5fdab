"""Desk-scale irreducible factorization over the base field, used as a test
oracle for the radical and truncation machinery.

Rationals go straight to sympy.  Finite-field inputs (including F_p(t) after
clearing denominators, with t treated as one more variable) are mapped to one
variable by Kronecker substitution, factored with sympy's univariate routines
over GF(p), and recombined by trying multiplicity vectors of the univariate
factors in order of increasing size, validating every candidate by exact
division.  Smallest-first recombination makes each extracted divisor
irreducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

from .errors import CasError, NotDivisible
from .fields import PRIME_FIELD, RATIONAL_P_ADIC, FieldSpec
from .mvpoly import MvPoly, exact_div, grlex_key

DEFAULT_DEGREE_CAP = 8


def squarefree_factor_oracle(f: MvPoly, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Pairwise-coprime irreducible factorization with exact multiplicities.

    Returns [(factor, multiplicity), ...] with graded-lex monic factors in a
    deterministic order; the product reconstructs f up to a unit.
    """
    if f.is_zero():
        raise CasError("ZERO_POLY", "factorization of the zero polynomial")
    if f.total_degree() > degree_cap:
        raise CasError("DEGREE_TOO_LARGE",
                       f"degree {f.total_degree()} exceeds oracle cap {degree_cap}")
    if f.is_constant():
        return []
    if f.spec.kind == RATIONAL_P_ADIC:
        pairs = _factor_rational(f)
    elif f.spec.kind == PRIME_FIELD:
        pairs = _factor_prime_field(f)
    else:
        pairs = _factor_ratfunc(f)
    pairs = [(g.normalized(), e) for g, e in pairs]
    pairs.sort(key=lambda ge: str(ge[0]))
    pairs.sort(key=lambda ge: grlex_key(ge[0].leading_monomial()), reverse=True)
    return pairs


# ---------------------------------------------------------------------------

def _sympy_symbols(k):
    import sympy

    return sympy.symbols(f"v0:{k}")


def _factor_rational(f: MvPoly):
    import sympy

    syms = _sympy_symbols(f.m)
    expr = sympy.Integer(0)
    for e, c in f.terms.items():
        term = sympy.Rational(c.val.numerator, c.val.denominator)
        for s, k in zip(syms, e):
            if k:
                term *= s ** k
        expr += term
    _, factors = sympy.factor_list(expr, *syms)
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, *syms)
        terms = []
        for exps, coeff in poly.as_dict().items():
            q = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
            terms.append((tuple(exps), f.spec.from_fraction(q)))
        out.append((MvPoly.from_terms(f.spec, f.m, terms), int(mult)))
    return out


def _univar_factor_fp(coeffs: dict, p: int):
    """Factor a univariate int-coefficient dict over GF(p) via sympy."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly.from_dict({(e,): c for e, c in coeffs.items()}, x, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        d = {e[0]: int(c) % p for e, c in fac.as_dict().items()}
        out.append((d, int(mult)))
    return out


def _kronecker_radices(degs):
    """Mixed radices for packing exponent tuples into one exponent."""
    radix = [1]
    for d in degs[:-1]:
        radix.append(radix[-1] * (d + 1))
    return radix


def _factor_fp_multivar(spec_p: int, m: int, make_poly, f_int: dict):
    """Kronecker-based factorization of an int-coefficient exponent dict.

    ``make_poly`` turns an int dict back into the caller's polynomial type so
    division tests run in the right ring.
    """
    remaining = make_poly(f_int)
    found = []
    while not remaining.is_constant():
        r_int = _int_poly_from_int_mv(remaining, spec_p)
        degs = [max(e[i] for e in r_int) for i in range(m)]
        radix = _kronecker_radices(degs)
        image = {}
        for e, c in r_int.items():
            pos = sum(ei * ri for ei, ri in zip(e, radix))
            image[pos] = (image.get(pos, 0) + c) % spec_p
        image = {e: c for e, c in image.items() if c}
        uni = _univar_factor_fp(image, spec_p)
        extracted = False
        for vec in _multiplicity_vectors(uni):
            cand_uni = _uni_product([(uni[i][0], k) for i, k in enumerate(vec) if k], spec_p)
            cand_int = _decode_kronecker(cand_uni, degs, radix)
            if cand_int is None:
                continue
            cand = make_poly(cand_int).normalized()
            if cand.is_constant():
                continue
            if divides(cand, remaining):
                e = multiplicity(remaining, cand)
                found.append((cand, e))
                remaining = exact_div(remaining, cand ** e)
                extracted = True
                break
        if not extracted:
            raise CasError("ORACLE_FAILURE", "Kronecker recombination found no factor")
    return found


def _int_poly_from_int_mv(f: MvPoly, p: int) -> dict:
    return {e: c.val % p for e, c in f.terms.items()}


def _multiplicity_vectors(uni):
    """All multiplicity vectors below the factor multiset, smallest total first."""
    ranges = [range(mult + 1) for _, mult in uni]
    vecs = [v for v in iter_product(*ranges) if any(v)]
    vecs.sort(key=lambda v: (sum(v), v))
    return vecs


def _uni_product(parts, p):
    out = {0: 1}
    for poly, k in parts:
        for _ in range(k):
            nxt = {}
            for e1, c1 in out.items():
                for e2, c2 in poly.items():
                    key = e1 + e2
                    nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
            out = {e: c for e, c in nxt.items() if c}
    return out


def _decode_kronecker(uni: dict, degs, radix):
    """Invert the packing; None when a digit overflows its radix slot."""
    out = {}
    for pos, c in uni.items():
        exps = []
        rest = pos
        for d in degs:
            exps.append(rest % (d + 1))
            rest //= (d + 1)
        if rest:
            return None
        out[tuple(exps)] = c
    return out


def _factor_prime_field(f: MvPoly):
    p = f.spec.p

    def make_poly(int_dict):
        return MvPoly.from_terms(f.spec, f.m,
                                 [(e, f.spec.from_int(c)) for e, c in int_dict.items()])

    return _factor_fp_multivar(p, f.m, make_poly, _int_poly_from_int_mv(f, p))


def _factor_ratfunc(f: MvPoly):
    """Clear denominators into F_p[t, z...], factor, drop the t-only units."""
    spec, ring = f.spec, f.spec.ring
    # lifted polynomial in variables (t, z1..zm) with int coefficients: the
    # cleared coefficients in their F_p coordinates, one per power of t
    monos = list(f.terms)
    coords = ring.coords([ring.clear([c.val for c in f.terms.values()])])[0]
    width = len(coords) // len(monos)
    lifted = {(k % width,) + monos[k // width]: c for k, c in enumerate(coords) if c}

    fp_spec = FieldSpec(PRIME_FIELD, spec.p)

    def make_lifted(int_dict):
        return MvPoly.from_terms(fp_spec, f.m + 1,
                                 [(e, fp_spec.from_int(c)) for e, c in int_dict.items()])

    pairs = _factor_fp_multivar(spec.p, f.m + 1, make_lifted, lifted)
    t = spec.t()
    out = []
    for g, e in pairs:
        if all(exp[1:] == (0,) * f.m for exp in g.terms):
            continue  # pure t factor: a unit of F_p(t)[z]
        terms = []
        for exps, c in g.terms.items():
            coeff = spec.from_int(c.val)
            for _ in range(exps[0]):
                coeff = coeff * t
            terms.append((exps[1:], coeff))
        out.append((MvPoly.from_terms(spec, f.m, terms), e))
    return out


def divides(g: MvPoly, f: MvPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except NotDivisible:
        return False


def multiplicity(f: MvPoly, P: MvPoly) -> int:
    """Largest e with P^e | f."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "multiplicity in the zero polynomial")
    if P.is_constant():
        raise CasError("CONSTANT_DIVISOR", "multiplicity of a constant divisor")
    e = 0
    cur = f
    while True:
        try:
            cur = exact_div(cur, P)
        except NotDivisible:
            return e
        e += 1
