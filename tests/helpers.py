"""Polynomial helpers that only the tests use: order-k Hasse derivatives
along one axis, Frobenius powers, the Gauss norm at one radius, the Poisson
constant of one polynomial, a parser
for the text form that ``MvPoly.__str__`` prints, and term-by-term ``Coeff``
loops for +, -, * and exact division, the reference for ``MvPoly``'s
payload kernels, the schoolbook sum and product of F_p[t] tuples and two
univariate gcds written apart from ``fields``: an F_p[t] Euclid on ints mod
p and a Euclid on lists of ``Coeff``, the references for ``Ring.conv``,
``Ring.gcd`` and ``Ring.divmod``, and the collection index
of independence by one level search per field basis, the reference for
``collection_independence_index``, and the subresultant gcd and Yun's
square-free decomposition on ``MvPoly`` values, the references for the
recursive dense kernel behind ``poly_gcd`` and ``square_free_decomposition``.
Functions that only the tests call live here too: ``partial_derivative``,
``gen_wronskian``, and the former methods ``min_degree``, ``degree_in``,
``initial_slope``, ``is_nonnegative``, ``n_at`` and ``validate_certificate``
(``WronskianCertificate.validate``).  ``ref_upper_envelope``, a hull on
``Fraction`` values that divides to compare crossings, is the reference for
``PiecewiseLinear.upper_envelope``.

    from helpers import d_axis, frobenius_power, log_gauss_norm, poisson_constant, poly_from_text
    from helpers import partial_derivative
    from helpers import ref_add, ref_exact_div, ref_mul, ref_sub
    from helpers import ref_coeff_gcd, ref_fp_add, ref_fp_divmod, ref_fp_gcd, ref_fp_mul
    from helpers import independent_over_power_subfield, ref_collection_index
    from helpers import ref_poly_gcd, ref_square_free_decomposition
    from helpers import initial_slope, is_nonnegative, min_degree, n_at
    from helpers import degree_in, gen_wronskian, validate_certificate
    from helpers import ref_upper_envelope
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from polyabc.errors import CasError, NotDivisible, ParseError
from polyabc.fields import NEG_INFINITY, Coeff, FieldSpec, parse_coeff
from polyabc.hasse import hasse_derivative, poly_pth_root
from polyabc.mvpoly import MvPoly, exact_div, grlex_key
from polyabc.nevanlinna import PiecewiseLinear, counting
from polyabc.wronskian import (_component_matrix, bareiss_det, f_independent, f_rank,
                               poly_matrix_rank)


def d_axis(f: MvPoly, j: int, k: int) -> MvPoly:
    """Hasse derivative of order k along the single axis j."""
    gamma = tuple(k if i == j else 0 for i in range(f.m))
    return hasse_derivative(f, gamma)


def partial_derivative(f: MvPoly, j: int) -> MvPoly:
    """The formal partial derivative in variable j, term by term."""
    return MvPoly.from_terms(f.spec, f.m, [
        (e[:j] + (e[j] - 1,) + e[j + 1:], c * f.spec.from_int(e[j]))
        for e, c in f.terms.items() if e[j]])


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
# reference univariate arithmetic and gcds, dense, ascending powers

def ref_fp_add(a, b, p):
    """The sum of int tuples mod p (no trailing zeros)."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)], lambda x: x == 0)


def ref_fp_mul(a, b, p):
    """The schoolbook product of int tuples mod p (no trailing zeros)."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out, lambda x: x == 0)


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


# ---------------------------------------------------------------------------
# reference gcd and square-free decomposition on MvPoly values: the
# subresultant remainder sequence with MvPoly coefficients in the highest
# present variable, and Yun's loop over it

def _present_vars(f: MvPoly, g: MvPoly):
    return [v for v in range(f.m) if degree_in(f, v) > 0 or degree_in(g, v) > 0]


def _split_main(f: MvPoly, v: int) -> dict:
    """f as a univariate polynomial in z_v with MvPoly coefficients."""
    out: dict = {}
    for e, c in f.terms.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {d: MvPoly(f.spec, f.m, t) for d, t in out.items()}


def _join_main(spec: FieldSpec, m: int, v: int, coeffs: dict) -> MvPoly:
    terms: dict = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            terms[e[:v] + (d,) + e[v + 1:]] = c
    return MvPoly(spec, m, terms)


def _main_deg(A: dict) -> int:
    return max(A) if A else -1


def _main_mul_poly(A: dict, q: MvPoly) -> dict:
    out = {}
    for d, c in A.items():
        prod = c * q
        if not prod.is_zero():
            out[d] = prod
    return out


def _main_sub(A: dict, B: dict) -> dict:
    out = dict(A)
    for d, c in B.items():
        s = out[d] - c if d in out else -c
        if s.is_zero():
            out.pop(d, None)
        else:
            out[d] = s
    return out


def _prem(A: dict, B: dict) -> dict:
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A  mod  B, in the main variable."""
    dB = _main_deg(B)
    lcB = B[dB]
    R = dict(A)
    e = _main_deg(A) - dB + 1
    while R and _main_deg(R) >= dB:
        dR = _main_deg(R)
        lcR = R[dR]
        shifted = {d + dR - dB: c * lcR for d, c in B.items()}
        R = _main_sub(_main_mul_poly(R, lcB), shifted)
        R.pop(dR, None)
        e -= 1
    if e > 0:
        R = _main_mul_poly(R, lcB ** e)
    return R


def _content_and_pp(A: dict):
    """gcd of the main-variable coefficients and the primitive part."""
    cont = None
    for d in sorted(A):
        cont = A[d] if cont is None else ref_poly_gcd(cont, A[d])
        if cont.is_constant():
            return MvPoly.one(cont.spec, cont.m), dict(A)
    return cont, {d: exact_div(c, cont) for d, c in A.items()}


def _univariate_gcd(f: MvPoly, g: MvPoly, v: int) -> MvPoly:
    spec = f.spec

    def dense(h):
        out = [spec.zero()] * (degree_in(h, v) + 1)
        for e, c in h.terms.items():
            out[e[v]] = c
        return out

    exps = [0] * f.m
    terms = []
    for i, c in enumerate(ref_coeff_gcd(dense(f), dense(g))):
        exps[v] = i
        terms.append((tuple(exps), c))
    return MvPoly.from_terms(spec, f.m, terms)


def _grlex_ordered(f: MvPoly) -> MvPoly:
    return MvPoly(f.spec, f.m, dict(f.sorted_terms()))


def ref_poly_gcd(f: MvPoly, g: MvPoly) -> MvPoly:
    """A gcd of f and g, normalized to graded-lex leading coefficient 1: a
    subresultant remainder sequence on MvPoly coefficients in the highest
    present variable, a boxed Euclid when one variable is present.  A gcd it
    computes lists its terms in graded-lex descending order, as ``poly_gcd``
    does; only a ``NOT_A_POWER`` message can tell term orders apart."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise CasError("BOTH_ZERO", "gcd(0, 0) is undefined")
    if f.is_zero() or g.is_zero():
        return (f if g.is_zero() else g).normalized()
    if f.is_constant() or g.is_constant():
        return MvPoly.one(f.spec, f.m)
    fv = _present_vars(f, g)
    if len(fv) == 1:
        return _grlex_ordered(_univariate_gcd(f, g, fv[0]))
    v = fv[-1]
    if degree_in(f, v) == 0 or degree_in(g, v) == 0:
        # one side is free of the main variable: the gcd divides its content
        A, B = (f, g) if degree_in(f, v) == 0 else (g, f)
        cont = None
        for c in _split_main(B, v).values():
            cont = c if cont is None else ref_poly_gcd(cont, c)
            if cont.is_constant():
                return MvPoly.one(f.spec, f.m)
        return ref_poly_gcd(A, cont)
    contA, A = _content_and_pp(_split_main(f, v))
    contB, B = _content_and_pp(_split_main(g, v))
    cont = ref_poly_gcd(contA, contB)
    if _main_deg(A) < _main_deg(B):
        A, B = B, A
    one = MvPoly.one(f.spec, f.m)
    gprev, h = one, one
    while True:
        delta = _main_deg(A) - _main_deg(B)
        R = _prem(A, B)
        if not R:
            result = _join_main(f.spec, f.m, v, _content_and_pp(B)[1])
            break
        if _main_deg(R) == 0:
            result = one
            break
        divisor = gprev * (h ** delta)
        A = B
        B = {d: exact_div(c, divisor) for d, c in R.items()}
        gprev = A[_main_deg(A)]
        if delta > 0:
            h = exact_div(gprev ** delta, h ** (delta - 1)) if delta > 1 else gprev
    return _grlex_ordered((cont * result).normalized())


def ref_square_free_decomposition(f: MvPoly, top: int) -> tuple:
    """Yun's loop on MvPoly values over ``ref_poly_gcd`` and ``exact_div``:
    the pairs (i, a_i) of f = c * prod a_i^i for every i that p^(top+1) does
    not divide, in increasing i, with graded-lex monic a_i."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "square-free decomposition of the zero polynomial")
    g = f
    for j in range(f.m):
        if g.is_constant():
            break
        g = ref_poly_gcd(g, partial_derivative(f, j))
    w = exact_div(f, g)
    parts = []
    i = 1
    while not w.is_constant():
        y = ref_poly_gcd(w, g)
        a = exact_div(w, y)
        if not a.is_constant():
            parts.append((i, a.normalized()))
        w, g = y, exact_div(g, y)
        i += 1
    if top > 0 and not g.is_constant():
        p = f.spec.characteristic
        deeper = ref_square_free_decomposition(poly_pth_root(g.normalized(), 1), top - 1)
        parts += [(p * j, a) for j, a in deeper]
    return tuple(sorted(parts, key=lambda part: part[0]))


# ---------------------------------------------------------------------------
# queries that only the tests make

def min_degree(f: MvPoly) -> int:
    """The least total degree of a term of f."""
    if not f.terms:
        raise CasError("ZERO_POLY", "minimum degree of the zero polynomial")
    return min(sum(e) for e in f.terms)


def degree_in(f: MvPoly, v: int) -> int:
    """The degree of f in the variable v; -1 for the zero polynomial."""
    if not f.terms:
        return -1
    return max(e[v] for e in f.terms)


def gen_wronskian(fs, gammas) -> MvPoly:
    """det of the matrix with rows D^gamma applied across the functions."""
    fs = list(fs)
    gammas = [tuple(g) for g in gammas]
    if not fs or len(fs) != len(gammas):
        raise CasError("DIMENSION_MISMATCH", "need as many derivative indices as functions")
    m = fs[0].m
    if any(f.m != m for f in fs) or any(len(g) != m for g in gammas):
        raise CasError("DIMENSION_MISMATCH", "mixed variable counts")
    if any(g != (0,) * m for g in gammas[:1]):
        raise CasError("DIMENSION_MISMATCH", "the first derivative index must be zero")
    rows = [[hasse_derivative(f, g) for f in fs] for g in gammas]
    return bareiss_det(rows)


def validate_certificate(cert) -> bool:
    """Whether a WronskianCertificate starts at the zero index, keeps its
    step, and holds the nonzero generalized Wronskian of its indices."""
    if any(g != (0,) * cert.functions[0].m for g in cert.gammas[:1]):
        return False
    for prev, cur in zip(cert.gammas, cert.gammas[1:]):
        if sum(cur) > sum(prev) + cert.step_c:
            return False
    det = gen_wronskian(cert.functions, cert.gammas)
    return det == cert.determinant and not det.is_zero()


def initial_slope(pl) -> Fraction:
    """The slope of a PiecewiseLinear left of its first breakpoint."""
    return pl.slopes[0]


def is_nonnegative(pl) -> bool:
    """Whether a PiecewiseLinear is >= 0 everywhere."""
    if not pl.breakpoints:
        return pl.slopes[0] == 0 and pl.anchor >= 0
    return all(v >= 0 for v in pl.values) and pl.slopes[0] <= 0 and pl.slopes[-1] >= 0


def n_at(cd, rho) -> int:
    """The right-continuous step value of CountingData cd at rho."""
    rho = Fraction(rho)
    i = 0
    for b in cd.breakpoints:
        if rho >= b:
            i += 1
        else:
            break
    return cd.n_values[i]


def ref_upper_envelope(lines) -> PiecewiseLinear:
    """Envelope of (slope, intercept) pairs by a hull on Fraction values,
    whose breakpoints are the crossings of adjacent hull lines."""
    best: dict = {}
    for s, b in lines:
        s, b = Fraction(s), Fraction(b)
        if s not in best or b > best[s]:
            best[s] = b
    items = sorted(best.items())

    def cross(l1, l2):
        return (l2[1] - l1[1]) / (l1[0] - l2[0])

    hull = []
    for ln in items:
        while len(hull) >= 2 and cross(hull[-1], ln) <= cross(hull[-2], hull[-1]):
            hull.pop()
        hull.append(ln)
    bps = [cross(a, b) for a, b in zip(hull, hull[1:])]
    slopes = [s for s, _ in hull]
    if bps:
        s0, b0 = hull[0]
        anchor = s0 * bps[0] + b0
    else:
        anchor = hull[0][1]
    return PiecewiseLinear(bps, slopes, anchor)
