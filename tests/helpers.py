"""Polynomial helpers that only the tests use: order-k Hasse derivatives
along one axis, Frobenius powers, the Gauss norm at one radius, the Poisson
constant of one polynomial, a parser
for the text form that ``MvPoly.__str__`` prints, and term-by-term ``Coeff``
loops for +, -, * and exact division, the reference for ``MvPoly``'s
payload kernels, and two univariate gcds written apart from ``fields``: an
F_p[t] Euclid on ints mod p and a Euclid on lists of ``Coeff``, the
references for ``Ring.gcd`` and ``_dense_divmod``, and the collection index
of independence by one level search per field basis, the reference for
``collection_independence_index``.

    from helpers import d_axis, frobenius_power, log_gauss_norm, poisson_constant, poly_from_text
    from helpers import ref_add, ref_exact_div, ref_mul, ref_sub
    from helpers import ref_coeff_gcd, ref_fp_divmod, ref_fp_gcd
    from helpers import independent_over_power_subfield, ref_collection_index
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from polyabc.errors import CasError, NotDivisible, ParseError
from polyabc.fields import NEG_INFINITY, Coeff, FieldSpec, parse_coeff
from polyabc.hasse import hasse_derivative
from polyabc.mvpoly import MvPoly, grlex_key
from polyabc.nevanlinna import counting
from polyabc.wronskian import _component_matrix, f_independent, f_rank, poly_matrix_rank


def d_axis(f: MvPoly, j: int, k: int) -> MvPoly:
    """Hasse derivative of order k along the single axis j."""
    gamma = tuple(k if i == j else 0 for i in range(f.m))
    return hasse_derivative(f, gamma)


def frobenius_power(f: MvPoly, s: int) -> MvPoly:
    """f^(p^s) in characteristic p, via the additive Frobenius expansion."""
    if f.spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "Frobenius needs characteristic p")
    q = f.spec.p ** s
    terms = {}
    for exps, c in f.terms.items():
        terms[tuple(e * q for e in exps)] = _coeff_power(c, q)
    return MvPoly(f.spec, f.m, terms)


def _coeff_power(c: Coeff, n: int) -> Coeff:
    out = c.spec.one()
    base = c
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def poisson_constant(f: MvPoly) -> Fraction:
    """The gap between the integrated counting and the log norm of f, read
    off the one norm profile ``counting`` builds."""
    return counting(f).poisson_constant()


def log_gauss_norm(f: MvPoly, rho):
    """log_p |f|_{p^rho}: max over terms of log|a| + |gamma| rho."""
    if f.is_zero():
        return NEG_INFINITY
    rho = Fraction(rho)
    return max(c.log_abs() + sum(e) * rho for e, c in f.terms.items())


def _split_top_level(text: str, sep: str):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def poly_from_text(spec: FieldSpec, m: int, text: str) -> MvPoly:
    """Parse the term grammar "coeff * z1^e1 * z2^e2 ...", '+'-separated."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return MvPoly.zero(spec, m)
    pairs = []
    for term in _split_top_level(text, "+"):
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in {text!r}")
        exps = [0] * m
        coeff = None
        for factor in _split_top_level(term, "*"):
            factor = factor.strip()
            if factor.startswith("z") and factor[1:2].isdigit():
                name, _, power = factor.partition("^")
                idx = int(name[1:]) - 1
                if not 0 <= idx < m:
                    raise ParseError(f"variable {name!r} out of range")
                exps[idx] += int(power) if power else 1
            else:
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                c = parse_coeff(spec, factor)
                coeff = c if coeff is None else coeff * c
        if coeff is None:
            coeff = spec.one()
        pairs.append((tuple(exps), coeff))
    return MvPoly.from_terms(spec, m, pairs)


# ---------------------------------------------------------------------------
# boxed reference loops: one Coeff operation per coefficient step

def ref_add(f: MvPoly, g: MvPoly) -> MvPoly:
    f._check(g)
    out = dict(f.terms)
    for e, c in g.terms.items():
        if e in out:
            s = out[e] + c
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return MvPoly(f.spec, f.m, out)


def ref_sub(f: MvPoly, g: MvPoly) -> MvPoly:
    return ref_add(f, MvPoly(g.spec, g.m, {e: -c for e, c in g.terms.items()}))


def ref_mul(f: MvPoly, g: MvPoly) -> MvPoly:
    f._check(g)
    out: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            elif not c.is_zero():
                out[e] = c
    return MvPoly(f.spec, f.m, out)


def ref_exact_div(f: MvPoly, g: MvPoly) -> MvPoly:
    """f/g by the graded-lex division loop, for a nonzero g."""
    f._check(g)
    g_lead = g.leading_monomial()
    g_lc = g.terms[g_lead]
    rem = dict(f.terms)
    quo: dict = {}
    while rem:
        e = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(e, g_lead))
        if any(d < 0 for d in diff):
            raise NotDivisible(f"remainder has leading monomial {e}")
        q = rem[e] / g_lc
        quo[diff] = q
        for ge, gc in g.terms.items():
            ee = tuple(a + b for a, b in zip(diff, ge))
            c = rem.get(ee)
            s = (c - q * gc) if c is not None else -(q * gc)
            if s.is_zero():
                rem.pop(ee, None)
            else:
                rem[ee] = s
    return MvPoly(f.spec, f.m, quo)


# ---------------------------------------------------------------------------
# reference univariate gcds, dense, ascending powers

def ref_fp_divmod(a, b, p):
    """Quotient and remainder of int tuples mod p (no trailing zeros)."""
    if not b:
        raise CasError("DIVISION_BY_ZERO", "polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), tuple(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if c:
            q = (c * inv) % p
            quo[k - db] = q
            for j in range(db + 1):
                rem[k - db + j] = (rem[k - db + j] - q * b[j]) % p
    return _trim(quo, lambda x: x == 0), _trim(rem, lambda x: x == 0)


def ref_fp_gcd(a, b, p):
    """The monic gcd of int tuples mod p, by Euclid; () for gcd(0, 0)."""
    while b:
        _, r = ref_fp_divmod(a, b, p)
        a, b = b, r
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple((x * inv) % p for x in a)


def ref_coeff_gcd(a, b):
    """The monic gcd of lists of ``Coeff``, by Euclid with boxed arithmetic;
    [] for gcd(0, 0)."""
    a, b = list(_trim(a, Coeff.is_zero)), list(_trim(b, Coeff.is_zero))
    while b:
        inv = b[-1].inverse()
        db = len(b) - 1
        rem = list(a)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if not c.is_zero():
                q = c * inv
                for j in range(db + 1):
                    rem[k - db + j] = rem[k - db + j] - q * b[j]
        a, b = b, list(_trim(rem, Coeff.is_zero))
    if not a:
        return []
    inv = a[-1].inverse()
    return [x * inv for x in a]


def _trim(c, is_zero) -> tuple:
    n = len(c)
    while n and is_zero(c[n - 1]):
        n -= 1
    return tuple(c[:n])


# ---------------------------------------------------------------------------
# reference collection index: one level search per field basis

def independent_over_power_subfield(fs, s: int) -> bool:
    """Linear independence over the field of p^s-th-power meromorphic ratios.

    Decided by the rank of the component matrix over the fraction field of
    the compressed polynomial ring; a rank defect is exactly a syzygy with
    coefficients supported on exponents in p^s Z^m.
    """
    if fs[0].spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "power subfields need characteristic p")
    return poly_matrix_rank(_component_matrix(fs, s)) == len(fs)


def ref_collection_index(fs) -> int:
    """The largest, over every field-independent subset of d = field rank
    functions of fs, of the first level s >= 1 at which the subset stays
    independent over the p^s-th-power subfield; 1 when d = 0."""
    d = f_rank(fs)
    if d == 0:
        return 1
    best = 1
    for base in combinations(range(len(fs)), d):
        subset = [fs[i] for i in base]
        if not f_independent(subset):
            continue
        s = 1
        while not independent_over_power_subfield(subset, s):
            s += 1
        best = max(best, s)
    return best
