"""Radicals, higher p^s-radicals, and the square-free part.

Two identities build everything.  The radical is one chained gcd and one
division, R(f) = f / gcd(f, df/dz_1, ..., df/dz_m); it holds the irreducible
factors of f whose multiplicity p does not divide.  Dividing every power of
those factors out of f leaves u, whose multiplicities are all divisible by p,
so u = v^p, and the level-s radical (the factors whose multiplicity p^(s+1)
does not divide) is R_{p^s}(f) = R(f) * R_{p^(s-1)}(v), a product of coprime
parts.  Each step divides the degree by p, so the chain is constant as soon
as p^(s+1) exceeds the total degree, which gives the square-free part
without any limit construction.  Over F_p(t) the p-th root of u can leave
the field; that is a NOT_A_POWER error.

One pass builds every level up to s; ``higher_radical``,
``square_free_part`` and ``radical_chain`` all read their levels off it.
Callers that need several levels of one polynomial take them from one pass,
or pass an already computed radical to ``trunc_gcd`` and
``sigma_radical_gcd``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CasError
from .hasse import partial_derivative, poly_pth_root
from .mvpoly import MvPoly, exact_div, gcd_with_power, poly_gcd


def radical(f: MvPoly) -> MvPoly:
    """f / gcd(f, df/dz_1, ..., df/dz_m), graded-lex monic."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical of the zero polynomial")
    g = f
    for j in range(f.m):
        if g.is_constant():
            break
        g = poly_gcd(g, partial_derivative(f, j))
    return exact_div(f, g).normalized()


def _levels(f: MvPoly, top: int) -> list:
    """[R_{p^0}(f), ..., R_{p^top}(f)] by R_{p^s}(f) = R(f) * R_{p^(s-1)}(v).

    The two factors are coprime and graded-lex monic, so their product is
    the normalized level."""
    r0 = radical(f)
    if top == 0:
        return [r0]
    u = exact_div(f, gcd_with_power(f, r0, f.total_degree()))
    if u.is_constant():
        return [r0] * (top + 1)
    v = poly_pth_root(u.normalized(), 1)
    return [r0] + [r0 * r for r in _levels(v, top - 1)]


def higher_radical(f: MvPoly, s: int) -> MvPoly:
    """The level-s radical; contains exactly the irreducible factors whose
    multiplicity in f is not divisible by p^(s+1).  Every level past
    ``stable_radical_level(f)`` equals that one, so s is clamped there."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical of the zero polynomial")
    if s < 0:
        raise CasError("VALIDATION_ERROR", "radical level must be non-negative")
    if s > 0 and f.spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "higher radicals need characteristic p")
    return _levels(f, min(s, stable_radical_level(f)))[-1]


def square_free_part(f: MvPoly) -> MvPoly:
    """Squarefree polynomial with exactly the irreducible factors of f."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "square-free part of the zero polynomial")
    return _levels(f, stable_radical_level(f))[-1]


def stable_radical_level(f: MvPoly) -> int:
    """First s with p^(s+1) > deg f; the radical chain is constant from there."""
    p = f.spec.characteristic
    if p == 0:
        return 0
    d = max(f.total_degree(), 0)
    s = 0
    while p ** (s + 1) <= d:
        s += 1
    return s


def trunc_gcd(f: MvPoly, ell: int, sqfree: MvPoly | None = None) -> MvPoly:
    """gcd(f, S(f)^ell): every irreducible P at multiplicity min(ell, mult).

    ``sqfree`` is S(f) when the caller has already computed it."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "truncation of the zero polynomial")
    if ell < 1:
        raise CasError("VALIDATION_ERROR", "truncation level must be positive")
    return gcd_with_power(f, square_free_part(f) if sqfree is None else sqfree, ell)


def sigma_radical_gcd(f: MvPoly, a: int, sigma: int,
                      r_sigma: MvPoly | None = None) -> MvPoly:
    """gcd(f, R_{p^sigma}(f)^a), the characteristic-p counting object.

    ``r_sigma`` is R_{p^sigma}(f) when the caller has already computed it."""
    if f.spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "sigma-radical needs characteristic p")
    if f.is_zero():
        raise CasError("ZERO_POLY", "truncation of the zero polynomial")
    if a < 1 or sigma < 0:
        raise CasError("VALIDATION_ERROR", "bad truncation parameters")
    if r_sigma is None:
        r_sigma = higher_radical(f, sigma)
    return gcd_with_power(f, r_sigma, a)


@dataclass
class RadicalChain:
    """The ladder s -> R_{p^s}(f) up to the stabilization level."""

    f: MvPoly
    entries: list  # (s, MvPoly)
    terminal_s: int


def radical_chain(f: MvPoly) -> RadicalChain:
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical chain of the zero polynomial")
    top = stable_radical_level(f)
    return RadicalChain(f=f, entries=list(enumerate(_levels(f, top))), terminal_s=top)
