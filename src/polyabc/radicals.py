"""Radicals, higher p^s-radicals, and the square-free part.

The radical R(f) = lcm_j f / gcd(f, df/dz_j) is squarefree but, in
characteristic p, misses factors whose multiplicity p divides.  The higher
radical at level s>=1 recovers the factors with multiplicity divisible by
p^s but not p^(s+1): strip what level s-1 already captured, run the radical
construction with the order-p^s Hasse derivatives, peel the lower-level
residue, take a p^s-th root, and join by lcm.  On polynomials the chain
stabilizes as soon as p^(s+1) exceeds the total degree, which gives the
square-free part without any limit construction.

One pass up the chain builds each level once, from the level below it, so
the chain up to level s costs s steps; ``higher_radical``,
``square_free_part`` and ``radical_chain`` all read their levels off that
pass.  Callers that need several levels of one polynomial take them from
one pass, or pass an already computed radical to ``trunc_gcd`` and
``sigma_radical_gcd``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CasError
from .hasse import d_axis, partial_derivative, poly_pth_root
from .mvpoly import MvPoly, exact_div, gcd_with_power, poly_gcd, poly_lcm


def radical(f: MvPoly) -> MvPoly:
    """lcm over variables of f / gcd(f, df/dz_j), graded-lex monic."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical of the zero polynomial")
    out = MvPoly.one(f.spec, f.m)
    for j in range(f.m):
        g = poly_gcd(f, partial_derivative(f, j))
        h = exact_div(f, g)
        if not h.is_constant():
            out = poly_lcm(out, h) if not out.is_constant() else h.normalized()
    return out.normalized()


def _next_level(f: MvPoly, s: int, r_prev: MvPoly) -> MvPoly:
    """R_{p^s}(f) from r_prev = R_{p^(s-1)}(f)."""
    q = f.spec.p ** s
    bar = exact_div(f, gcd_with_power(f, r_prev, q))
    if bar.is_constant():
        return r_prev
    big_h = MvPoly.one(f.spec, f.m)
    for i in range(f.m):
        g_i = poly_gcd(bar, d_axis(bar, i, q))
        h_i = exact_div(bar, g_i)
        if not h_i.is_constant():
            big_h = poly_lcm(big_h, h_i) if not big_h.is_constant() else h_i.normalized()
    if big_h.is_constant():
        return r_prev
    g = exact_div(big_h, gcd_with_power(big_h, higher_radical(big_h, s - 1), q - 1))
    if g.is_constant():
        return r_prev
    root = poly_pth_root(g.normalized(), s)
    return poly_lcm(r_prev, root)


def _levels(f: MvPoly, top: int) -> list:
    """[R_{p^0}(f), ..., R_{p^top}(f)], each level built once from the one below."""
    levels = [radical(f)]
    for s in range(1, top + 1):
        levels.append(_next_level(f, s, levels[-1]))
    return levels


def higher_radical(f: MvPoly, s: int) -> MvPoly:
    """The level-s radical; contains exactly the irreducible factors whose
    multiplicity in f is not divisible by p^(s+1)."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical of the zero polynomial")
    if s < 0:
        raise CasError("VALIDATION_ERROR", "radical level must be non-negative")
    if s > 0 and f.spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "higher radicals need characteristic p")
    return _levels(f, s)[-1]


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
