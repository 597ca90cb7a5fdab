"""Sparse multivariate polynomials over a FieldSpec.

Terms live in a dict mapping exponent tuples to nonzero coefficients; the
canonical term order everywhere (leading terms, serialization) is graded
lexicographic, descending.  ``+``, ``-``, ``*``, ``scale`` and ``exact_div``
run their loops on raw coefficient payloads through the field's ``Ring``
(``spec.ring``), binding its functions once per call, and box to ``Coeff``
only the terms they store.  gcd works by recursive content / primitive-part
reduction with a subresultant remainder sequence in the highest present
variable; when only one variable occurs it is the field Ring's univariate
``gcd`` on dense payload tuples.
"""

from __future__ import annotations

from operator import add as _plus, sub as _minus

from .errors import CasError, NotDivisible
from .fields import Coeff, FieldSpec, same_spec

Monomial = tuple  # exponent tuples; total degree is sum of the entries


def grlex_key(exps: Monomial):
    return (sum(exps), exps)


class MvPoly:
    __slots__ = ("spec", "m", "terms")

    def __init__(self, spec: FieldSpec, m: int, terms: dict):
        """Assumes ``terms`` has no zero coefficients; use the constructors."""
        self.spec = spec
        self.m = m
        self.terms = terms

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(spec: FieldSpec, m: int) -> "MvPoly":
        return MvPoly(spec, m, {})

    @staticmethod
    def constant(spec: FieldSpec, m: int, c: Coeff) -> "MvPoly":
        if c.is_zero():
            return MvPoly.zero(spec, m)
        return MvPoly(spec, m, {(0,) * m: c})

    @staticmethod
    def one(spec: FieldSpec, m: int) -> "MvPoly":
        return MvPoly.constant(spec, m, spec.one())

    @staticmethod
    def variable(spec: FieldSpec, m: int, i: int) -> "MvPoly":
        exps = tuple(1 if j == i else 0 for j in range(m))
        return MvPoly(spec, m, {exps: spec.one()})

    @staticmethod
    def from_terms(spec: FieldSpec, m: int, pairs) -> "MvPoly":
        terms: dict = {}
        for exps, c in pairs:
            exps = tuple(int(e) for e in exps)
            if len(exps) != m:
                raise CasError("DIMENSION_MISMATCH", f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise CasError("VALIDATION_ERROR", "negative exponent")
            if exps in terms:
                c = terms[exps] + c
            if c.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = c
        return MvPoly(spec, m, terms)

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.m in self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            raise CasError("ZERO_POLY", "minimum degree of the zero polynomial")
        return min(sum(e) for e in self.terms)

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise CasError("ZERO_POLY", "leading monomial of the zero polynomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> Coeff:
        return self.terms[self.leading_monomial()]

    def constant_coeff(self) -> Coeff:
        return self.terms.get((0,) * self.m, self.spec.zero())

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def _check(self, other: "MvPoly"):
        if not same_spec(self.spec, other.spec) or self.m != other.m:
            raise CasError("SPEC_MISMATCH", "mixed polynomial rings")

    # -- ring operations, on payloads ---------------------------------------------

    def _combine(self, other: "MvPoly", op, negate) -> "MvPoly":
        """self + other with op = ring.add; self - other with ring.sub and ring.neg."""
        self._check(other)
        spec, is_zero = self.spec, self.spec.ring.is_zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            x = out.get(e)
            if x is None:
                out[e] = Coeff(spec, negate(c.val)) if negate else c
            else:
                s = op(x.val, c.val)
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = Coeff(spec, s)
        return MvPoly(spec, self.m, out)

    def __add__(self, other: "MvPoly") -> "MvPoly":
        return self._combine(other, self.spec.ring.add, None)

    def __sub__(self, other: "MvPoly") -> "MvPoly":
        return self._combine(other, self.spec.ring.sub, self.spec.ring.neg)

    def __neg__(self) -> "MvPoly":
        spec, neg = self.spec, self.spec.ring.neg
        return MvPoly(spec, self.m, {e: Coeff(spec, neg(c.val)) for e, c in self.terms.items()})

    def __mul__(self, other: "MvPoly") -> "MvPoly":
        self._check(other)
        spec = self.spec
        add, mul, is_zero = spec.ring.add, spec.ring.mul, spec.ring.is_zero
        right = [(e, c.val) for e, c in other.terms.items()]
        acc: dict = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            v1 = c1.val
            for e2, v2 in right:
                e = tuple(map(_plus, e1, e2))
                c = mul(v1, v2)  # nonzero: a field has no zero divisors
                x = get(e)
                acc[e] = c if x is None else add(x, c)
        return MvPoly(spec, self.m, {e: Coeff(spec, v) for e, v in acc.items() if not is_zero(v)})

    def scale(self, c: Coeff) -> "MvPoly":
        if not same_spec(c.spec, self.spec):
            raise CasError("SPEC_MISMATCH", "mixed coefficient fields")
        if c.is_zero():
            return MvPoly.zero(self.spec, self.m)
        spec, mul, v = self.spec, self.spec.ring.mul, c.val
        return MvPoly(spec, self.m, {e: Coeff(spec, mul(x.val, v)) for e, x in self.terms.items()})

    def __pow__(self, n: int) -> "MvPoly":
        if n < 0:
            raise CasError("VALIDATION_ERROR", "negative power")
        out = MvPoly.one(self.spec, self.m)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MvPoly):
            return NotImplemented
        return self.spec == other.spec and self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, self.m, frozenset(self.terms.items())))

    # -- normalization ------------------------------------------------------------

    def normalized(self) -> "MvPoly":
        """Scaled so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc.is_one():
            return self
        return self.scale(lc.inverse())

    # -- text -----------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            cs = str(c)
            if any(ch in cs[1:] for ch in "+-"):
                cs = f"({cs})"
            factors = [cs]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"z{i + 1}")
                elif e > 1:
                    factors.append(f"z{i + 1}^{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MvPoly({self})"


def exact_div(f: MvPoly, g: MvPoly) -> MvPoly:
    """The quotient f/g when g divides f exactly; NotDivisible otherwise."""
    f._check(g)
    if g.is_zero():
        raise CasError("DIVISION_BY_ZERO_POLY", "polynomial division by zero")
    if f.is_zero():
        return MvPoly.zero(f.spec, f.m)
    if g.is_constant():
        return f.scale(g.constant_coeff().inverse())
    spec, ring = f.spec, f.spec.ring
    sub, neg, mul, is_zero = ring.sub, ring.neg, ring.mul, ring.is_zero
    g_lead = g.leading_monomial()
    g_lc = g.terms[g_lead].val
    g_items = [(e, c.val) for e, c in g.terms.items()]
    rem = {e: c.val for e, c in f.terms.items()}
    quo: dict = {}
    while rem:
        e = max(rem, key=grlex_key)
        diff = tuple(map(_minus, e, g_lead))
        if min(diff) < 0:
            raise NotDivisible(f"remainder has leading monomial {e}")
        q = ring.div(rem[e], g_lc)
        quo[diff] = Coeff(spec, q)
        for ge, gv in g_items:
            ee = tuple(map(_plus, diff, ge))
            c = rem.get(ee)
            if c is None:
                rem[ee] = neg(mul(q, gv))
            else:
                s = sub(c, mul(q, gv))
                if is_zero(s):
                    del rem[ee]
                else:
                    rem[ee] = s
    return MvPoly(spec, f.m, quo)


# ---------------------------------------------------------------------------
# gcd machinery

def _present_vars(f: MvPoly, g: MvPoly):
    out = []
    for v in range(f.m):
        if f.degree_in(v) > 0 or g.degree_in(v) > 0:
            out.append(v)
    return out


def _dense(f: MvPoly, v: int) -> tuple:
    """f, in which only z_v occurs, as a dense tuple of payloads in z_v."""
    out = [f.spec.ring.zero] * (f.degree_in(v) + 1)
    for e, c in f.terms.items():
        out[e[v]] = c.val
    return tuple(out)


def _from_dense(spec: FieldSpec, m: int, v: int, coeffs) -> MvPoly:
    is_zero = spec.ring.is_zero
    terms = {}
    for i, c in enumerate(coeffs):
        if not is_zero(c):
            e = [0] * m
            e[v] = i
            terms[tuple(e)] = Coeff(spec, c)
    return MvPoly(spec, m, terms)


def _gcd_single_var(f: MvPoly, g: MvPoly, v: int) -> MvPoly:
    spec = f.spec
    return _from_dense(spec, f.m, v, spec.ring.gcd(_dense(f, v), _dense(g, v)))


def _split_main(f: MvPoly, v: int) -> dict:
    """View f as a univariate polynomial in z_v with MvPoly coefficients."""
    out: dict = {}
    for e, c in f.terms.items():
        d = e[v]
        ee = e[:v] + (0,) + e[v + 1:]
        coeff = out.get(d)
        if coeff is None:
            out[d] = {ee: c}
        else:
            coeff[ee] = c
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
        if d in out:
            s = out[d] - c
            if s.is_zero():
                del out[d]
            else:
                out[d] = s
        else:
            out[d] = -c
    return out


def _prem(A: dict, B: dict, v: int) -> dict:
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
        q = lcB ** e
        R = _main_mul_poly(R, q)
    return R


def _content_and_pp(A: dict):
    """gcd of the main-variable coefficients and the primitive part."""
    cont = None
    for d in sorted(A):
        cont = A[d] if cont is None else poly_gcd(cont, A[d])
        if cont.is_constant():
            break
    if cont.is_constant():
        spec = cont.spec
        return MvPoly.one(spec, cont.m), dict(A)
    return cont, {d: exact_div(c, cont) for d, c in A.items()}


def poly_gcd(f: MvPoly, g: MvPoly) -> MvPoly:
    """A gcd of f and g, normalized to graded-lex leading coefficient 1."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise CasError("BOTH_ZERO", "gcd(0, 0) is undefined")
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    if f.is_constant() or g.is_constant():
        return MvPoly.one(f.spec, f.m)
    fv = _present_vars(f, g)
    if len(fv) == 1:
        return _gcd_single_var(f, g, fv[0])
    v = fv[-1]
    if f.degree_in(v) == 0 or g.degree_in(v) == 0:
        # one side is free of the main variable: gcd divides its content
        A = f if f.degree_in(v) == 0 else g
        B = g if f.degree_in(v) == 0 else f
        cont = None
        for _, c in _split_main(B, v).items():
            cont = c if cont is None else poly_gcd(cont, c)
            if cont.is_constant():
                return MvPoly.one(f.spec, f.m)
        return poly_gcd(A, cont)
    A = _split_main(f, v)
    B = _split_main(g, v)
    contA, A = _content_and_pp(A)
    contB, B = _content_and_pp(B)
    cont = poly_gcd(contA, contB)
    if _main_deg(A) < _main_deg(B):
        A, B = B, A
    # subresultant remainder sequence on the primitive parts
    one = MvPoly.one(f.spec, f.m)
    gprev, h = one, one
    while True:
        delta = _main_deg(A) - _main_deg(B)
        R = _prem(A, B, v)
        if not R:
            _, pp = _content_and_pp(B)
            result = _join_main(f.spec, f.m, v, pp)
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
    return (cont * result).normalized()
