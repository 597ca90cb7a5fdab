"""Exact coefficient fields carrying a computable non-Archimedean valuation.

Three field kinds are supported:

* ``rational_p_adic`` -- the rationals with the p-adic absolute value,
* ``prime_field``     -- F_p with the trivial valuation,
* ``ratfunc_t_adic``  -- F_p(t) with the t-adic valuation.

All absolute values are handled on a log-base-p scale, where all three
valuations are integers: ``a.log_abs()`` returns log_p|a| as an int and
``NEG_INFINITY`` for 0.

Everything that depends on the field kind sits in one ``Ring`` per field,
built once with its ``FieldSpec`` (``spec.ring``) and chosen once, so no
other code dispatches on the kind or knows a payload's format: over Q an int
when integral and a ``Fraction`` otherwise (never a float), an int in
[0, p), or a canonical (numerator, denominator) pair over F_p[t].  The Ring
holds the arithmetic on payloads, the univariate gcd on dense tuples of them
(Euclid for F_p and F_p(t), an integer primitive remainder sequence for Q),
the valuation, p^s-th roots, text and parsing, and the cleared exact rows
that ``wronskian`` ranks and ``abcengine`` scans for vanishing subsums.
``Coeff`` boxes one payload; ``MvPoly`` runs its loops on the payloads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm

from .errors import CasError, ParseError

RATIONAL_P_ADIC = "rational_p_adic"
PRIME_FIELD = "prime_field"
RATFUNC_T_ADIC = "ratfunc_t_adic"

FIELD_KINDS = (RATIONAL_P_ADIC, PRIME_FIELD, RATFUNC_T_ADIC)

MAX_LOAD_DEGREE = 1000  # degree of a loaded polynomial, in the z's or in t: dense paths allocate degree + 1 slots


def guard_load_degree(what: str, degree: int):
    """The one bound on the degrees of a loaded polynomial."""
    if degree > MAX_LOAD_DEGREE:
        raise CasError("DEGREE_TOO_LARGE", f"{what} {degree} exceeds the limit of {MAX_LOAD_DEGREE}")


class _NegInfinity:
    """Sentinel for log|0|, NEG_INFINITY.  Orders below every number;
    absorbs addition."""

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise CasError("BAD_LOG_VALUE", "cannot negate -infinity")

    def __repr__(self):
        return "-inf"


NEG_INFINITY = _NegInfinity()


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 37, exact below 2^64; GUARD_EXCEEDED
    from there, where the composite 318665857834031151167461 passes them all."""
    if n >= 2 ** 64:
        raise CasError("GUARD_EXCEEDED", f"p = {n} exceeds the limit of 2^64")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    for b in bases:
        x = pow(b, (n - 1) >> r, n)
        if x != 1 and n - 1 not in [pow(x, 1 << k, n) for k in range(r)]:
            return False
    return True


def int_log(p: int, x: int) -> int:
    """Largest s >= 0 with p^s <= x; 0 when x < p."""
    s = 0
    while p ** (s + 1) <= x:
        s += 1
    return s


@dataclass(frozen=True)
class FieldSpec:
    """Which coefficient field the computation runs in.  ``ring`` is its
    ``Ring``, built here once, and ``dense`` the levels of recursive dense
    polynomials over it that ``mvpoly.dense_domain`` builds on demand; neither
    is a field of the dataclass, so they stay out of equality, hashing and
    text."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise CasError("VALIDATION_ERROR", f"unknown field kind {self.kind!r}")
        if not is_prime(self.p):
            raise CasError("VALIDATION_ERROR", f"p = {self.p} is not prime")
        object.__setattr__(self, "ring", Ring(self.kind, self.p))
        object.__setattr__(self, "dense", [])

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONAL_P_ADIC else self.p

    def zero(self) -> "Coeff":
        return Coeff(self, self.ring.zero)

    def one(self) -> "Coeff":
        return Coeff(self, self.ring.one)

    def from_int(self, k: int) -> "Coeff":
        return Coeff(self, self.ring.from_int(k))

    def from_fraction(self, q: Fraction) -> "Coeff":
        if self.kind != RATIONAL_P_ADIC:
            raise CasError("VALIDATION_ERROR", "fractions only embed in characteristic 0")
        return Coeff(self, _q_canonical(Fraction(q)))

    def t(self) -> "Coeff":
        """The valuation parameter t of F_p(t)."""
        if self.kind != RATFUNC_T_ADIC:
            raise CasError("VALIDATION_ERROR", "t exists only in ratfunc fields")
        return Coeff(self, ((0, 1), (1,)))

    def __str__(self):
        if self.kind == RATIONAL_P_ADIC:
            return f"Q({self.p}-adic)"
        if self.kind == PRIME_FIELD:
            return f"F_{self.p}"
        return f"F_{self.p}(t)"


def same_spec(a: FieldSpec, b: FieldSpec) -> bool:
    # one parsed instance shares one spec object; == only for distinct copies
    return a is b or a == b


# ---------------------------------------------------------------------------
# dense univariate polynomials: tuples of payloads, ascending powers, no
# trailing zeros.  The F_p[t] parts of F_p(t) payloads (ints in [0, p)) have
# their own +, - and *; division and gcd run over any field Ring.

def _dense_trim(c: list, is_zero) -> tuple:
    """The list c, emptied of its trailing zeros, as a tuple."""
    while c and is_zero(c[-1]):
        c.pop()
    return tuple(c)


def _fpt_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _dense_trim(out, operator.not_)


def _fpt_neg(a, p):
    return tuple([(-x) % p for x in a])


def _fpt_mul(a, b, p):
    """The product over F_p, reduced once per output slot; its leading slot
    is a product of two units mod p, so nothing needs trimming.  A constant
    operand scales the other in one pass, and 1 returns it unchanged."""
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return tuple(b) if c == 1 else tuple([c * y % p for y in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple([c % p for c in out])


def _fpt_ord(a) -> int:
    """t-adic order: index of the lowest nonzero coefficient."""
    for i, x in enumerate(a):
        if x:
            return i
    raise CasError("BAD_LOG_VALUE", "order of the zero polynomial")


def _fpt_str(a) -> str:
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(parts)


def _fpt_parse(text: str, p: int):
    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty polynomial in t")
    # normalize leading sign, then split on +/-
    coeffs: dict[int, int] = {}
    i = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        i = 1
    term = ""
    tokens = []
    while i <= len(text):
        ch = text[i] if i < len(text) else None
        if ch in ("+", "-", None):
            if not term:
                raise ParseError(f"dangling sign in {text!r}")
            tokens.append((sign, term))
            if ch is None:
                break
            sign = -1 if ch == "-" else 1
            term = ""
        else:
            term += ch
        i += 1
    for sign, term in tokens:
        c, e = 1, 0
        for factor in term.split("*"):
            if not factor:
                raise ParseError(f"empty factor in {text!r}")
            if factor[0] == "t":
                if factor == "t":
                    e += 1
                elif factor.startswith("t^"):
                    e += int(factor[2:])
                else:
                    raise ParseError(f"bad factor {factor!r}")
            else:
                c *= int(factor)
        guard_load_degree("t-degree", e)
        coeffs[e] = (coeffs.get(e, 0) + sign * c) % p
    if not coeffs:
        return ()
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c % p
    return _dense_trim(out, operator.not_)


def _fpt_root(a, q):
    """The F_p[t] polynomial whose q-th power is a, for q a power of p."""
    out = [0] * ((len(a) - 1) // q + 1) if a else []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i % q:
            raise CasError("NOT_A_PTH_POWER", f"t-exponent {i} not divisible by {q}")
        out[i // q] = c  # c^q = c on F_p
    return _dense_trim(out, operator.not_)


def _split_top_level_slash(text: str):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return text[:i], text[i + 1:]
    return text, None


def _unwrap(text: str) -> str:
    """text without surrounding blanks and one enclosing pair of parentheses."""
    text = text.strip()
    return text[1:-1] if text.startswith("(") and text.endswith(")") else text


def _ratfunc_str(a) -> str:
    num, den = a
    ns = _fpt_str(num)
    if den == (1,):
        return ns
    ds = _fpt_str(den)
    if "+" in ns or "-" in ns:
        ns = f"({ns})"
    if "+" in ds or "-" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _ratfunc_parse(text: str, p: int, base):
    """The F_p(t) payload of "P(t)" or "P(t)/Q(t)"; ``base`` is the Ring of F_p.
    A sum beside the '/' must be parenthesised, so that "t+1/t" is not read
    as (t+1)/t."""
    num_s, den_s = _split_top_level_slash(text)
    for side in () if den_s is None else (num_s.strip(), den_s.strip()):
        if side == _unwrap(side) and ("+" in side[1:] or "-" in side[1:]):
            raise ParseError(f"parenthesise the sum {side!r} in {text!r}")
    num = _fpt_parse(_unwrap(num_s), p)
    den = (1,) if den_s is None else _fpt_parse(_unwrap(den_s), p)
    return _ratfunc_canonical(num, den, base)


def _dense_scale(a, c, ring) -> tuple:
    mul = ring.mul
    return tuple([mul(x, c) for x in a])


def _dense_conv(add, mul, is_zero, zero):
    """The product of dense polynomials over a field with these operations,
    skipping zero slots.  Its leading slot is a product of two nonzero
    elements: no trimming."""
    def conv(a, b):
        if not a or not b:
            return ()
        out = [zero] * (len(a) + len(b) - 1)
        terms = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
        for i, x in enumerate(a):
            if not is_zero(x):
                for j, y in terms:
                    out[i + j] = add(out[i + j], mul(x, y))
        return tuple(out)
    return conv


def _dense_divmod(sub, mul, div, is_zero, zero, one):
    """Quotient and remainder of dense polynomials a by b over a field with
    these operations, skipping the zero slots of b."""
    def divmod_(a, b):
        if not b:
            raise CasError("DIVISION_BY_ZERO", "polynomial division by zero")
        db = len(b) - 1
        if len(a) - 1 < db:
            return (), tuple(a)
        inv = div(one, b[-1])
        low = [(j, y) for j, y in enumerate(b[:db]) if not is_zero(y)]
        rem = list(a)
        quo = [zero] * (len(a) - db)
        for o in range(len(quo) - 1, -1, -1):
            c = rem[o + db]
            if not is_zero(c):
                q = quo[o] = mul(c, inv)
                for j, y in low:
                    rem[o + j] = sub(rem[o + j], mul(q, y))
        # the slots from db up are cancelled by construction
        return tuple(quo), _dense_trim(rem[:db], is_zero)
    return divmod_


def _fpt_divmod(a, b, p):
    """Quotient and remainder over F_p; a remainder slot is reduced only when
    it is read as a leading coefficient and at the end.  A constant divisor
    leaves no remainder, and 1 returns a unchanged."""
    if not b:
        raise CasError("DIVISION_BY_ZERO", "polynomial division by zero")
    if len(b) == 1:
        return (tuple(a) if b[0] == 1 else _fpt_mul(a, (pow(b[0], p - 2, p),), p)), ()
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), tuple(a)
    inv = pow(b[-1], p - 2, p)
    low = b[:db]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for o in range(len(quo) - 1, -1, -1):
        c = rem[o + db] % p
        if c:
            q = quo[o] = c * inv % p
            for j, y in enumerate(low, o):
                rem[j] -= q * y
    return tuple(quo), _dense_trim([x % p for x in rem[:db]], operator.not_)


def _dense_gcd(a, b, ring) -> tuple:
    """The monic gcd of dense polynomials over the field of ``ring``, by
    Euclid; () when both are zero."""
    divmod_, one = ring.divmod, ring.one
    while b:
        a, b = b, divmod_(a, b)[1]
    return _dense_scale(a, ring.div(one, a[-1]), ring) if a and a[-1] != one else tuple(a)


def _int_primitive(c):
    g = int_gcd(*c)
    return [x // g for x in c] if g else []


def _int_pseudo_rem(a, b):
    """Remainder of a by b over the integers, up to content (stripped later)."""
    db = len(b) - 1
    lc = b[-1]
    r = list(a)
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        head = r[-1]
        r = [x * lc for x in r]
        for j in range(db + 1):
            r[dr - db + j] -= head * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def _q_gcd(a, b) -> tuple:
    """The monic gcd of dense polynomials over Q, by an integer primitive
    remainder sequence.  Euclid over Fraction values gives the same gcd but
    its coefficients swell: it is about 2x slower at degree 5 and 170x at
    degree 60 (see ROADMAP)."""
    def to_int(c):
        den = lcm(*[x.denominator for x in c])
        return _int_primitive([x.numerator * (den // x.denominator) for x in c])

    a, b = to_int(a), to_int(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return tuple([_q_canonical(Fraction(x, a[-1])) for x in a]) if a else ()


def _q_canonical(x):
    """The Q payload of the rational x: an int when x is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def _q_parse(text: str):
    """The Q payload of "n" or "n/d": ``int`` parses integer text directly,
    and everything else, with the same errors, goes through ``Fraction``."""
    try:
        return int(text)
    except ValueError:
        return _q_canonical(Fraction(text))


def _q_log_abs(a, p):
    """log_p of the p-adic absolute value of the Q payload a."""
    if not a:
        return NEG_INFINITY
    n, d, v = a.numerator, a.denominator, 0
    while n % p == 0:
        n, v = n // p, v - 1
    while d % p == 0:
        d, v = d // p, v + 1
    return v


def _q_clear(vals) -> list:
    """The Q payloads ``vals`` times the lcm of their denominators: ints."""
    den = lcm(*[q.denominator for q in vals])
    if den == 1:  # integral payloads are ints
        return vals
    return [q.numerator * (den // q.denominator) for q in vals]


def _ratfunc_canonical(num, den, base):
    """The F_p(t) payload num/den in lowest terms with monic denominator;
    ``base`` is the Ring of F_p."""
    if not den:
        raise CasError("DIVISION_BY_ZERO", "zero denominator")
    if not num:
        return ((), (1,))
    g = _dense_gcd(num, den, base)
    if g != (1,):
        num = base.divmod(num, g)[0]
        den = base.divmod(den, g)[0]
    if den[-1] != 1:
        inv = base.div(1, den[-1])
        num, den = _dense_scale(num, inv, base), _dense_scale(den, inv, base)
    return (num, den)


def _same(x):
    return x


def _ring_step(mul, sub, div):
    """The Bareiss row step over a ring given by its (mul, sub, exact division)."""
    def step(row, prow, c, cols, prev):
        pivot, head = prow[c], row[c]
        for j in cols:
            x = sub(mul(pivot, row[j]), mul(head, prow[j]))
            row[j] = x if prev is None else div(x, prev)
        row[c] = sub(pivot, pivot)
    return step


def _int_step(p: int):
    """The Bareiss row step by inline operators over the integers (p = 0),
    where floor division is exact, and over F_p, reduced so each entry is a
    residue."""
    def step(row, prow, c, cols, prev):
        pivot, head = prow[c], row[c]
        if p:
            inv = pow(prev, p - 2, p)
            for j in cols:
                row[j] = (pivot * row[j] - head * prow[j]) * inv % p
        else:
            for j in cols:
                row[j] = (pivot * row[j] - head * prow[j]) // prev
        row[c] = 0
    return step


def _no_root(a, s):
    raise CasError("WRONG_CHARACTERISTIC", "p-th roots need characteristic p")


def _fp_root(a, s):
    if s < 1:
        raise CasError("VALIDATION_ERROR", "root exponent must be positive")
    return a  # Frobenius is the identity on F_p


def _pad_flatten(rows) -> list:
    """Rows of F_p[t] tuples as rows of residues: each entry padded with
    zeros to the longest entry's length and spread over that many slots."""
    width = max((len(a) for row in rows for a in row), default=0)
    return [[a[i] if i < len(a) else 0 for a in row for i in range(width)] for row in rows]


class Ring:
    """Everything that depends on the field kind, chosen once per field.

    Arithmetic: ``add``, ``sub``, ``neg``, ``mul`` and ``div`` (by a nonzero
    payload) take and return canonical payloads; ``is_zero`` tests one;
    ``zero``, ``one`` and ``from_int(k)`` are the payloads of 0, 1 and k.
    ``conv``, ``divmod`` and ``gcd`` take dense polynomials (tuples of
    payloads, ascending powers, no trailing zeros) and return their product,
    quotient and remainder (over F_p reduced once per slot), and monic gcd:
    Euclid for F_p and F_p(t) (``euclid``), an integer primitive remainder
    sequence over Q.  ``base``, over F_p(t), is the Ring of F_p, which holds
    the numerators and denominators; sums and products of two polynomials
    (denominator 1) are canonical as they stand.

    Valuation and text: ``log_abs(a)`` is log_p|a|, an int, NEG_INFINITY for
    0; ``root(a, s)`` the p^s-th root; ``text(a)`` the coefficient text and
    ``parse(text)`` its inverse.

    Cleared rows: ``clear(vals)`` scales payloads by one nonzero constant
    into an exact ring -- ints over Q (the lcm of the denominators), the
    residues over F_p, F_p[t] over F_p(t) (the lcm of the denominators) --
    which keeps their linear relations; ``_bareiss`` eliminates cleared rows
    with ``step`` from first divisor ``prev``, and ``coords(rows)`` lays
    them out in F_p coordinates (ints over Q) for 0/1 subsums.

    ``gcd`` is a method and every other member closes over local variables,
    never over the Ring, so a Ring is freed with its FieldSpec without the
    cyclic collector.
    """

    __slots__ = ("zero", "one", "add", "sub", "neg", "mul", "div", "is_zero", "conv", "divmod",
                 "euclid", "base", "from_int", "log_abs", "root", "text", "parse", "clear",
                 "step", "prev", "coords")

    def __init__(self, kind: str, p: int):
        self.is_zero, self.zero, self.one = operator.not_, 0, 1
        self.euclid = kind != RATIONAL_P_ADIC
        self.text, self.prev, self.coords = str, 1, _same
        if kind == RATIONAL_P_ADIC:
            self.add = lambda a, b: _q_canonical(a + b)
            self.sub = lambda a, b: _q_canonical(a - b)
            self.neg, self.mul = operator.neg, lambda a, b: _q_canonical(a * b)
            self.div = lambda a, b: _q_canonical(Fraction(a, b))  # exact, never a float
            self.from_int, self.log_abs = _same, lambda a: _q_log_abs(a, p)
            self.root, self.parse, self.clear = _no_root, _q_parse, _q_clear
            self.step = _int_step(0)
        elif kind == PRIME_FIELD:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.div = lambda a, b: a * pow(b, p - 2, p) % p
            self.from_int = lambda k: k % p
            self.parse = lambda text: int(text) % p
            self.log_abs = lambda a: 0 if a else NEG_INFINITY
            self.root, self.clear, self.step = _fp_root, _same, _int_step(p)
        else:
            one = (1,)
            self.zero, self.one = ((), one), ((1,), one)
            base = self.base = Ring(PRIME_FIELD, p)

            def add(a, b):
                (n1, d1), (n2, d2) = a, b
                if d1 == one == d2:
                    return _fpt_add(n1, n2, p), one
                num = _fpt_add(_fpt_mul(n1, d2, p), _fpt_mul(n2, d1, p), p)
                return _ratfunc_canonical(num, _fpt_mul(d1, d2, p), base)

            def mul(a, b):
                (n1, d1), (n2, d2) = a, b
                if d1 == one == d2:
                    return _fpt_mul(n1, n2, p), one
                return _ratfunc_canonical(_fpt_mul(n1, n2, p), _fpt_mul(d1, d2, p), base)

            def div(a, b):
                (n1, d1), (n2, d2) = a, b
                return _ratfunc_canonical(_fpt_mul(n1, d2, p), _fpt_mul(d1, n2, p), base)

            def root(a, s):
                num, den = _fp_root(a, s)  # checks s; each F_p coefficient is its own root
                return _fpt_root(num, p ** s), _fpt_root(den, p ** s)

            def clear(vals):
                if all(d == one for _, d in vals):
                    return [num for num, _ in vals]
                den = one
                for _, d in vals:
                    den = base.divmod(_fpt_mul(den, d, p), _dense_gcd(den, d, base))[0]
                return [_fpt_mul(n, base.divmod(den, d)[0], p) for n, d in vals]

            self.add, self.mul, self.div, self.root, self.clear = add, mul, div, root, clear
            self.from_int = lambda k: ((k % p,) if k % p else (), one)
            self.neg = lambda a: (_fpt_neg(a[0], p), a[1])
            self.sub = lambda a, b: add(a, (_fpt_neg(b[0], p), b[1]))
            self.is_zero = lambda a: not a[0]
            self.log_abs = lambda a: _fpt_ord(a[1]) - _fpt_ord(a[0]) if a[0] else NEG_INFINITY
            self.text, self.parse = _ratfunc_str, lambda text: _ratfunc_parse(text, p, base)
            # F_p[t], the level-1 recursive dense polynomials over F_p, from no divisor on
            self.step = _ring_step(base.conv, lambda a, b: _fpt_add(a, _fpt_neg(b, p), p),
                                   lambda a, b: base.divmod(a, b)[0])
            self.prev, self.coords = None, _pad_flatten
        if kind == PRIME_FIELD:
            self.conv = lambda a, b: _fpt_mul(a, b, p)
            self.divmod = lambda a, b: _fpt_divmod(a, b, p)
        else:
            self.conv = _dense_conv(self.add, self.mul, self.is_zero, self.zero)
            self.divmod = _dense_divmod(self.sub, self.mul, self.div, self.is_zero, self.zero,
                                        self.one)

    def gcd(self, a, b) -> tuple:
        return _dense_gcd(a, b, self) if self.euclid else _q_gcd(a, b)


# ---------------------------------------------------------------------------

class Coeff:
    """An element of a FieldSpec field, always kept in canonical form.

    Payloads: an int or a non-integral Fraction for the rationals, int in
    [0, p) for F_p, and a (numerator, denominator) pair of F_p[t] coefficient
    tuples for F_p(t) with monic denominator and coprime parts.
    """

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val):
        self.spec = spec
        self.val = val

    # -- predicates and arithmetic, through the field's Ring ----------------

    def is_zero(self) -> bool:
        return self.spec.ring.is_zero(self.val)

    def is_one(self) -> bool:
        return self.val == self.spec.ring.one

    def _check(self, other: "Coeff"):
        if not same_spec(self.spec, other.spec):
            raise CasError("SPEC_MISMATCH", "mixed coefficient fields")

    def __add__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        return Coeff(self.spec, self.spec.ring.add(self.val, other.val))

    def __sub__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        return Coeff(self.spec, self.spec.ring.sub(self.val, other.val))

    def __neg__(self) -> "Coeff":
        return Coeff(self.spec, self.spec.ring.neg(self.val))

    def __mul__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        return Coeff(self.spec, self.spec.ring.mul(self.val, other.val))

    def __truediv__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        if other.is_zero():
            raise CasError("DIVISION_BY_ZERO", "division by zero coefficient")
        return Coeff(self.spec, self.spec.ring.div(self.val, other.val))

    def inverse(self) -> "Coeff":
        return self.spec.one() / self

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.spec == other.spec and self.val == other.val

    def __hash__(self):
        return hash((self.spec, self.val))

    # -- valuation -----------------------------------------------------------

    def log_abs(self):
        """log_p of the absolute value, an int; NEG_INFINITY when zero."""
        return self.spec.ring.log_abs(self.val)

    def pth_root(self, s: int = 1) -> "Coeff":
        """A b with b^(p^s) = self, in the represented field."""
        return Coeff(self.spec, self.spec.ring.root(self.val, s))

    # -- text ----------------------------------------------------------------

    def __str__(self):
        return self.spec.ring.text(self.val)

    def __repr__(self):
        return f"Coeff({self.spec}, {self})"


def parse_payload(ring: Ring, text: str):
    """The payload of "n", "n/d", "k", "P(t)" or "P(t)/Q(t)"; else ParseError."""
    text = text.strip()
    if not text:
        raise ParseError("empty coefficient")
    try:
        return ring.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient {text!r}: {exc}") from exc


def parse_coeff(spec: FieldSpec, text: str) -> Coeff:
    return Coeff(spec, parse_payload(spec.ring, text))
