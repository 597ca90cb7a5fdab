"""Polynomial helpers that only the tests use: order-k Hasse derivatives
along one axis, Frobenius powers, the Gauss norm at one radius, and a parser
for the text form that ``MvPoly.__str__`` prints.

    from helpers import d_axis, frobenius_power, log_gauss_norm, poly_from_text
"""

from __future__ import annotations

from fractions import Fraction

from polyabc.errors import CasError, ParseError
from polyabc.fields import NEG_INFINITY, Coeff, FieldSpec, parse_coeff
from polyabc.hasse import hasse_derivative
from polyabc.mvpoly import MvPoly


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
