"""Sparse multivariate polynomials over a FieldSpec, and the recursive dense
kernel behind their exact quotients, gcds and eliminations.

Terms live in a dict mapping exponent tuples to nonzero coefficients; the
canonical term order everywhere (leading terms, serialization) is graded
lexicographic, descending.  ``+``, ``-``, ``*`` and ``scale`` run their loops
on raw coefficient payloads through the field's ``Ring`` (``spec.ring``),
binding its functions once per call, and box to ``Coeff`` only the terms
they store.

``exact_div`` and ``poly_gcd`` convert their arguments once (``to_dense``) to
recursive dense elements: nested tuples with one level per variable that
occurs, the highest variable outermost and Ring payloads at the leaves.
``DenseLevel`` holds the operations of one level, built once per (field,
level) by ``dense_domain``: at one variable the field Ring's ``conv``,
``divmod`` and univariate ``gcd``; above it schoolbook products and exact
quotients over the level below, and the subresultant remainder sequence in
that level's variable, with contents by the gcd of the level below.  The
quotient or gcd is converted back once (``from_dense``); the gcd is
normalized to graded-lex leading coefficient 1.  On the same elements
``radicals.square_free_decomposition`` runs Yun's loop and ``wronskian``
every Bareiss elimination of a polynomial matrix.
"""

from __future__ import annotations

from operator import add as _plus, not_

from .errors import CasError, NotDivisible
from .fields import Coeff, FieldSpec, _dense_trim, same_spec

Monomial = tuple  # exponent tuples; total degree is sum of the entries


def grlex_key(exps: Monomial):
    return (sum(exps), exps)


def _term_key(term):  # grlex_key of a (monomial, coefficient) pair
    return (sum(term[0]), term[0])


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
        return sorted(self.terms.items(), key=_term_key, reverse=True)

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
                e = tuple([*map(_plus, e1, e2)])
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
        text, parts = self.spec.ring.text, []
        for exps, c in self.sorted_terms():
            cs = text(c.val)
            if "+" in cs[1:] or "-" in cs[1:]:
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
    """The quotient f/g when g divides f exactly, NotDivisible otherwise, its
    terms in graded-lex descending order: f scaled when g is a constant, else
    the recursive dense ``exquo`` in the variables that occur."""
    f._check(g)
    if g.is_zero():
        raise CasError("DIVISION_BY_ZERO_POLY", "polynomial division by zero")
    if g.is_constant():
        return MvPoly(f.spec, f.m, dict(f.sorted_terms())).scale(g.constant_coeff().inverse())
    vs = present_vars(f, g)
    q = dense_domain(f.spec, len(vs) or 1).exquo(to_dense(f, vs), to_dense(g, vs))
    return from_dense(f.spec, f.m, vs, q)


# ---------------------------------------------------------------------------
# recursive dense polynomials
#
# A polynomial in its present variables v_0 < ... < v_k is an element of level
# k + 1: a level-d element (d >= 1) is the tuple of its level-(d-1)
# coefficients of v_{d-1}^0, v_{d-1}^1, ..., without trailing zeros (zero is
# ()), and a level-0 element is a Ring payload.  The outermost level is v_k,
# the main variable of the gcd.  Tuples are built from lists (see the
# free-list note in abcengine).

def present_vars(*fs) -> list:
    """The variables that occur in any of the fs, ascending."""
    return [v for v in range(fs[0].m) if any(e[v] for f in fs for e in f.terms)]


def to_dense(f: MvPoly, vs):
    """f as an element of level len(vs) in the variables vs, which hold every
    variable of f; with no variables, f is a constant of level 1."""
    if not f.terms:
        return ()
    if not vs:
        return (f.constant_coeff().val,)
    return _nest([(e, c.val) for e, c in f.terms.items()], vs, len(vs), f.spec.ring.zero)


def _nest(items, vs, d, zero):
    v = vs[d - 1]
    if d == 1:
        out = [zero] * (max([e[v] for e, _ in items]) + 1)
        for e, c in items:
            out[e[v]] = c
        return tuple(out)
    buckets = [None] * (max([e[v] for e, _ in items]) + 1)
    for item in items:
        k = item[0][v]
        if buckets[k] is None:
            buckets[k] = [item]
        else:
            buckets[k].append(item)
    return tuple([() if b is None else _nest(b, vs, d - 1, zero) for b in buckets])


def from_dense(spec: FieldSpec, m: int, vs, a) -> MvPoly:
    """The MvPoly of the element a of ``to_dense``'s level in the variables
    vs, its terms in graded-lex descending order."""
    if not vs:
        return MvPoly(spec, m, {(0,) * m: Coeff(spec, a[0])} if a else {})
    items: list = []
    _flatten(a, len(vs), vs, [0] * m, items, spec.ring.is_zero)
    if len(vs) > 1:  # one variable comes out in descending degree already
        items.sort(key=_term_key, reverse=True)
    return MvPoly(spec, m, {e: Coeff(spec, c) for e, c in items})


def _flatten(a, d, vs, e, out, is_zero):
    v = vs[d - 1]
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        e[v] = k
        if d > 1:
            if c:
                _flatten(c, d - 1, vs, e, out, is_zero)
        elif not is_zero(c):
            out.append((tuple(e), c))
    e[v] = 0


def dense_is_const(a, d: int) -> bool:
    """Whether the level-d element a is a constant (zero included)."""
    while d:
        if len(a) != 1:
            return not a
        a = a[0]
        d -= 1
    return True


def dense_partial(a, d: int, j: int, ring):
    """The derivative of the level-d element a in the variable of level
    j + 1 <= d; ``ring`` is its field's Ring."""
    if j < d - 1:
        return _dense_trim([dense_partial(c, d - 1, j, ring) for c in a], not_)
    add, mul, one, is_zero = ring.add, ring.mul, ring.one, ring.is_zero
    out, k = [], one
    for c in a[1:]:
        out.append(_times(c, d - 1, k, mul) if not is_zero(k) else ring.zero if d == 1 else ())
        k = add(k, one)
    return _dense_trim(out, is_zero if d == 1 else not_)


def _times(a, d, s, mul):
    """The level-d element a times the nonzero payload s."""
    if not d:
        return mul(a, s)
    return tuple([_times(c, d - 1, s, mul) for c in a])


class DenseLevel:
    """The operations on level-d elements over one field, built once per
    (field, d) by ``dense_domain``: ``add``, ``sub``, ``neg``, ``mul``,
    ``pow``, ``scale`` (by a level-(d-1) element), ``exquo`` (the exact
    quotient; NotDivisible when the remainder is not zero) and ``gcd`` (the
    gcd whose lex-leading leaf is 1).  ``one`` is the element 1.

    Level 1 multiplies and takes gcds through the field's Ring (``conv`` and
    ``gcd``).  Level d > 1 runs the subresultant remainder sequence in its
    own variable over level d - 1, whose gcd gives the contents.  The
    operations are closures over the level below, never over this object, so
    the levels hold no reference cycle.
    """

    __slots__ = ("depth", "one", "add", "sub", "neg", "mul", "pow", "scale", "exquo", "gcd")

    def __init__(self, ring, inner: "DenseLevel | None"):
        d = self.depth = 1 if inner is None else inner.depth + 1
        if inner is None:
            ione = ring.one
            iadd, isub, ineg, imul, is_zero = ring.add, ring.sub, ring.neg, ring.mul, ring.is_zero
        else:
            ione = inner.one
            iadd, isub, ineg, imul, is_zero = inner.add, inner.sub, inner.neg, inner.mul, not_
            iexquo, igcd, ipow = inner.exquo, inner.gcd, inner.pow
        one = self.one = (ione,)

        def add(a, b):
            if len(a) < len(b):
                a, b = b, a
            if not b:
                return a
            out = [iadd(x, y) for x, y in zip(a, b)]
            if len(a) > len(b):
                out += a[len(b):]
                return tuple(out)
            return _dense_trim(out, is_zero)

        def sub(a, b):
            if not b:
                return a
            la, lb = len(a), len(b)
            out = [isub(x, y) for x, y in zip(a, b)]
            if la > lb:
                out += a[lb:]
            elif la < lb:
                out += [ineg(y) for y in b[la:]]
            else:
                return _dense_trim(out, is_zero)
            return tuple(out)

        def neg(a):
            return tuple([ineg(x) for x in a])

        def scale(a, c):
            return tuple([imul(x, c) for x in a])

        if inner is None:
            mul, ring_gcd, divmod_ = ring.conv, ring.gcd, ring.divmod

            def gcd(a, b):
                return one if len(a) == 1 or len(b) == 1 else ring_gcd(a, b)

            def exquo(a, b):
                quo, rem = divmod_(a, b)
                if rem:
                    raise NotDivisible("nonzero remainder in an exact quotient")
                return quo
        else:
            def mul(a, b):
                if not a or not b:
                    return ()
                out = [()] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b, i):
                            if y:
                                out[j] = iadd(out[j], imul(x, y))
                return tuple(out)  # the leading slot is a product of nonzero elements

            def exquo(a, b):
                if not a:
                    return a
                db = len(b) - 1
                if len(a) <= db:
                    raise NotDivisible("nonzero remainder in an exact quotient")
                lc, rem = b[-1], list(a)
                quo = [()] * (len(a) - db)
                for o in range(len(quo) - 1, -1, -1):
                    c = rem[o + db]
                    if c:
                        # q * lc == c exactly, so slot o + db is left as it is
                        q = quo[o] = iexquo(c, lc)
                        for j in range(db):
                            if b[j]:
                                rem[o + j] = isub(rem[o + j], imul(q, b[j]))
                if any(rem[:db]):
                    raise NotDivisible("nonzero remainder in an exact quotient")
                return tuple(quo)

            def primitive(a):
                """The gcd of a's coefficients (None when it is a constant)
                and a divided by it; a constant coefficient makes it a unit."""
                # not len(c) == 1: from level 3 up, such a c may hold lower variables
                if any(c and dense_is_const(c, d - 1) for c in a):
                    return None, a
                cont = None
                for c in a:
                    if c:
                        cont = c if cont is None else igcd(cont, c)
                        if dense_is_const(cont, d - 1):
                            return None, a
                return cont, tuple([iexquo(c, cont) for c in a])

            def prem(a, b):
                """lc(b)^(deg a - deg b + 1) * a  mod  b; nothing is scaled
                when lc(b) is 1."""
                db, lc = len(b) - 1, b[-1]
                r, e, unit = list(a), len(a) - db, lc == ione
                while len(r) > db:
                    o = len(r) - 1 - db
                    lr = r.pop()  # cancels against lc * b
                    if not unit:
                        r = [imul(x, lc) for x in r]
                    for j in range(db):
                        if b[j]:
                            r[o + j] = isub(r[o + j], imul(lr, b[j]))
                    while r and not r[-1]:
                        r.pop()
                    e -= 1
                if e > 0 and r and not unit:
                    q = ipow(lc, e)
                    r = [imul(x, q) for x in r]
                return tuple(r)

            def gcd(a, b):
                if not a or not b:
                    return monic(a or b)
                if dense_is_const(a, d) or dense_is_const(b, d):
                    return one
                if len(a) == 1 or len(b) == 1:
                    # one side is free of this level's variable: the gcd
                    # divides its content
                    if len(b) == 1:
                        a, b = b, a
                    c = a[0]
                    for y in b:
                        if y:
                            c = igcd(c, y)
                            if dense_is_const(c, d - 1):
                                return one
                    return (c,)
                ca, a = primitive(a)
                cb, b = primitive(b)
                cont = None if ca is None or cb is None else igcd(ca, cb)
                if len(a) < len(b):
                    a, b = b, a
                # subresultant remainder sequence on the primitive parts
                g = h = ione
                while True:
                    delta = len(a) - len(b)
                    r = prem(a, b)
                    if not r:
                        result = primitive(b)[1]
                        break
                    if len(r) == 1:
                        result = one
                        break
                    div = imul(g, ipow(h, delta))
                    a, b = b, r if div == ione else tuple([iexquo(x, div) for x in r])
                    g = a[-1]
                    if delta:
                        h = iexquo(ipow(g, delta), ipow(h, delta - 1)) if delta > 1 else g
                return monic(result if cont is None else scale(result, cont))

            leaf_one, leaf_mul, leaf_div = ring.one, ring.mul, ring.div

            def monic(a):
                """a scaled so that its lex-leading leaf is 1: over F_p(t) and
                Q a remainder sequence leaves a large constant factor, which
                would ride along through every later product and quotient."""
                lc = a
                for _ in range(d):
                    lc = lc[-1]
                return a if lc == leaf_one else _times(a, d, leaf_div(leaf_one, lc), leaf_mul)

        def pow(a, n):
            out = one
            while n:
                if n & 1:
                    out = mul(out, a)
                n >>= 1
                if n:
                    a = mul(a, a)
            return out

        self.add, self.sub, self.neg, self.mul, self.pow = add, sub, neg, mul, pow
        self.scale, self.exquo, self.gcd = scale, exquo, gcd


def dense_domain(spec: FieldSpec, d: int) -> DenseLevel:
    """The level-d operations over spec's field, built on first use and kept
    with the spec (``spec.dense``)."""
    levels = spec.dense
    while len(levels) < d:
        levels.append(DenseLevel(spec.ring, levels[-1] if levels else None))
    return levels[d - 1]


def poly_gcd(f: MvPoly, g: MvPoly) -> MvPoly:
    """A gcd of f and g, normalized to graded-lex leading coefficient 1: the
    recursive dense gcd in the variables that occur, converted once each
    way."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise CasError("BOTH_ZERO", "gcd(0, 0) is undefined")
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    if f.is_constant() or g.is_constant():
        return MvPoly.one(f.spec, f.m)
    vs = present_vars(f, g)
    d = len(vs)
    h = dense_domain(f.spec, d).gcd(to_dense(f, vs), to_dense(g, vs))
    if dense_is_const(h, d):
        return MvPoly.one(f.spec, f.m)
    return from_dense(f.spec, f.m, vs, h).normalized()
