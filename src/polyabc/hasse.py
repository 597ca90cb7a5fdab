"""Hasse derivatives and the p-th-power structure of the polynomial ring.

In characteristic p the divided-power derivative of multi-index gamma,
D^gamma f = sum over alpha >= gamma of C(alpha, gamma) a_alpha z^(alpha-gamma),
stays nonzero where the iterated partial derivative dies; its multinomials
are computed mod p through Lucas digit products.
"""

from __future__ import annotations

from math import comb

from .errors import CasError
from .fields import Coeff, FieldSpec
from .mvpoly import Monomial, MvPoly


def _binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas's theorem."""
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = (out * comb(nd, kd)) % p
        n //= p
        k //= p
    return out


def multinomial(alpha: Monomial, beta: Monomial, spec: FieldSpec) -> Coeff:
    """Product of per-coordinate binomials C(alpha_i, beta_i) as a field element."""
    if len(alpha) != len(beta):
        raise CasError("DIMENSION_MISMATCH", "multi-index lengths differ")
    if any(a < b for a, b in zip(alpha, beta)):
        raise CasError("INDEX_NOT_DOMINATING", f"{alpha} does not dominate {beta}")
    p = spec.characteristic
    out = 1
    for a, b in zip(alpha, beta):  # reduced mod p by from_int
        out *= _binom_mod_p(a, b, p) if p else comb(a, b)
    return spec.from_int(out)


def hasse_derivative(f: MvPoly, gamma: Monomial) -> MvPoly:
    if len(gamma) != f.m:
        raise CasError("DIMENSION_MISMATCH", "derivative index has wrong length")
    gamma = tuple(int(g) for g in gamma)
    if all(g == 0 for g in gamma):
        return f
    spec = f.spec
    terms: dict = {}
    for alpha, c in f.terms.items():
        if any(a < g for a, g in zip(alpha, gamma)):
            continue
        coef = multinomial(alpha, gamma, spec) * c
        if coef.is_zero():
            continue
        # alpha -> alpha - gamma is injective: each exponent arises once
        terms[tuple(a - g for a, g in zip(alpha, gamma))] = coef
    return MvPoly(spec, f.m, terms)


def exponents_divisible(f: MvPoly, s: int) -> bool:
    """True when every exponent of f is componentwise divisible by p^s.

    Over an algebraically closed coefficient field of characteristic p this
    is exactly the condition for f to be a p^s-th power, since coefficient
    roots always exist there.
    """
    q = f.spec.p ** s
    return all(e % q == 0 for exps in f.terms for e in exps)


def poly_pth_root(f: MvPoly, s: int) -> MvPoly:
    """The g with g^(p^s) = f; NOT_A_POWER when no such g exists."""
    if f.spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "p-th roots need characteristic p")
    q = f.spec.p ** s
    terms: dict = {}
    for exps, c in f.terms.items():
        if any(e % q for e in exps):
            raise CasError("NOT_A_POWER", f"exponent {exps} not divisible by {q}")
        try:
            root = c.pth_root(s)
        except CasError as exc:
            raise CasError("NOT_A_POWER", f"coefficient {c} has no {q}-th root") from exc
        terms[tuple(e // q for e in exps)] = root
    return MvPoly(f.spec, f.m, terms)
