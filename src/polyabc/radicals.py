"""Radicals, higher p^s-radicals, the square-free part and its truncations.

All are read off one square-free decomposition f = c * prod a_i^i, with
squarefree, pairwise coprime a_i (Yun's algorithm in all variables at once,
on the recursive dense elements of ``mvpoly``: derivatives, gcds, quotients
and p-th roots never leave them; the a_i or chain products become MvPolys).
g = gcd(f, df/dz_1, ..., df/dz_m) leaves the radical f / g, the factors whose
multiplicity p does not divide; peeling it off g layer by layer gives those
a_i.  What g keeps is v^p, and v's decomposition, its multiplicities scaled
by p, gives the rest; it is complete once p^(s+1) exceeds the degree.  Over
F_p(t) the p-th root can leave the field (NOT_A_POWER), so a decomposition
goes only as deep as its caller's level needs.  Each object is one product
prod a_i^min(i, cap) over the i that p^(s+1) does not divide: R_{p^s}(f)
(cap 1), S(f) (cap 1, every i), gcd(f, S(f)^ell) (cap ell, every i) and
gcd(f, R_{p^sigma}(f)^a) (cap a, s = sigma).  Callers that need several of
them for one polynomial pass its decomposition as ``parts``.  A tuple gets
one coprime base (``coprime_base``): every subset gcd is a lookup on it, and
the decomposition of the tuple's product is read off it, never formed.
"""

from __future__ import annotations

from functools import reduce
from operator import add, not_

from .errors import CasError
from .fields import int_log
from .hasse import poly_pth_root
from .mvpoly import (MvPoly, dense_domain, dense_is_const, dense_partial, exact_div, from_dense,
                     poly_gcd, present_vars, to_dense)


def _derivative_gcd(F, level, ring):
    """gcd(F, dF/dv_1, ..., dF/dv_d) of the level-d element F."""
    g = F
    for j in range(level.depth):
        if dense_is_const(g, level.depth):
            break
        g = level.gcd(g, dense_partial(F, level.depth, j, ring))
    return g


def _dense_root(a, d: int, p: int, ring):
    """The b with b^p = a: slots 0, p, 2p, ... at every level, leaves' roots."""
    is_zero = ring.is_zero if d == 1 else not_  # the F_p(t) zero is a truthy pair
    if any(not is_zero(c) for j in range(1, p) for c in a[j::p]):
        raise CasError("NOT_A_POWER", "an exponent is not divisible by p")
    return tuple([ring.root(c, 1) if d == 1 else _dense_root(c, d - 1, p, ring) for c in a[::p]])


def radical(f: MvPoly) -> MvPoly:
    """f / gcd(f, df/dz_1, ..., df/dz_m), graded-lex monic."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical of the zero polynomial")
    vs = present_vars(f)
    level = dense_domain(f.spec, len(vs) or 1)
    F = to_dense(f, vs)
    g = _derivative_gcd(F, level, f.spec.ring)
    return from_dense(f.spec, f.m, vs, level.exquo(F, g)).normalized()


def _dense_decomposition(f: MvPoly, top: int):
    """f's variables vs, their level, and the parts of ``square_free_decomposition``
    on it, those of v^(p^s) before v^(p^(s+1))'s.  A root of the lex-monic g
    exists when one of its graded-lex monic MvPoly does."""
    vs = present_vars(f)
    level = dense_domain(f.spec, len(vs) or 1)
    F = to_dense(f, vs)
    d, spec, q, parts = level.depth, f.spec, 1, []
    while True:
        g = _derivative_gcd(F, level, spec.ring)
        w = level.exquo(F, g)
        i = q
        while not dense_is_const(w, d):
            y = level.gcd(w, g)
            a = level.exquo(w, y)
            if not dense_is_const(a, d):
                parts.append((i, a))
            w, g = y, level.exquo(g, y)
            i += q
        if top <= 0 or dense_is_const(g, d):
            return vs, level, parts
        try:
            F = _dense_root(g, d, spec.characteristic, spec.ring)
        except CasError:  # poly_pth_root names the term that fails; when no
            # partial derivative of f moves (no part yet), it reads f's own terms
            poly_pth_root((from_dense(spec, f.m, vs, g) if parts or q > 1 else f).normalized(), 1)
            raise
        q, top = q * spec.characteristic, top - 1


def square_free_decomposition(f: MvPoly, top: int) -> tuple:
    """The pairs (i, a_i) of f = c * prod a_i^i, for every multiplicity i that
    p^(top+1) does not divide (every i in characteristic 0), in increasing i.

    The a_i are squarefree, pairwise coprime and graded-lex monic; only
    nonconstant ones are listed.  Yun's loop and the p-th roots run on
    recursive dense elements; only the a_i become MvPolys."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "square-free decomposition of the zero polynomial")
    vs, _, parts = _dense_decomposition(f, top)
    parts = [(i, from_dense(f.spec, f.m, vs, a).normalized()) for i, a in parts]
    return tuple(sorted(parts, key=lambda part: part[0]))


def _refine(base: list, a: MvPoly, ea: tuple) -> None:
    """Refine the monic a^ea into the pairwise coprime pairs (b, eb) of base,
    in place.  A nonconstant g = gcd(a, b) splits b into g (ea + eb) and b / g
    (eb), which divide b, so they are refined only against each other, and
    a / g only against them and the b after them."""
    i = 0
    while i < len(base) and not a.is_constant():
        b, eb = base[i]
        g = poly_gcd(a, b)
        if g.is_constant():
            i += 1
            continue
        pieces = [(g, tuple(map(add, ea, eb)))]
        _refine(pieces, exact_div(b, g), eb)
        base[i:i + 1], a = pieces, exact_div(a, g)
    if not a.is_constant():
        base.append((a, ea))


def coprime_base(fs) -> list:
    """Pairs (b, e): nonconstant, graded-lex monic, pairwise coprime b with
    f_j = c_j * prod b^e[j] for every j (factor refinement, Bach, Driscoll and
    Shallit 1993): gcds and exact divisions alone, so never NOT_A_POWER."""
    base = []
    for j, f in enumerate(fs):
        if f.is_zero():
            raise CasError("ZERO_POLY", "coprime base of a zero polynomial")
        if not f.is_constant():
            _refine(base, f.normalized(), tuple([int(i == j) for i in range(len(fs))]))
    return base


def product_decomposition(base) -> tuple:
    """The full square-free decomposition of F = prod f_j, pairs (mu, a) in
    increasing mu: each part (i, a) of each (b, e) of the f_j's coprime base,
    at b's stable level, with mu = i * sum(e); F is never formed, and equal mu
    are not grouped (``_product`` multiplies them)."""
    return tuple(sorted(((sum(e) * i, a) for b, e in base
                         for i, a in square_free_decomposition(b, stable_radical_level(b))),
                        key=lambda part: part[0]))


def capped_parts(f: MvPoly, parts, cap: int, s: int | None = None) -> list:
    """The pairs (min(i, cap), a_i) over the parts (i, a_i) of f, decomposed
    here to depth s (the stable level if s is None) when parts is None, for
    the i that p^(s+1) does not divide when s is given.  Given parts, f only
    fixes the ring: any polynomial of the ring the parts lie in will do."""
    if parts is None:
        parts = square_free_decomposition(f, stable_radical_level(f) if s is None else s)
    q = f.spec.characteristic ** (s + 1) if s is not None else 0
    return [(min(i, cap), a) for i, a in parts if not q or i % q]


def _product(f: MvPoly, parts, cap: int, s: int | None = None) -> MvPoly:
    """prod a^e over ``capped_parts(f, parts, cap, s)``."""
    out = MvPoly.one(f.spec, f.m)
    for e, a in capped_parts(f, parts, cap, s):
        out = out * a ** e
    return out


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
    return _product(f, None, 1, min(s, stable_radical_level(f)))


def square_free_part(f: MvPoly, parts: tuple | None = None) -> MvPoly:
    """Squarefree polynomial with exactly the irreducible factors of f."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "square-free part of the zero polynomial")
    return _product(f, parts, 1)


def stable_radical_level(f: MvPoly) -> int:
    """First s with p^(s+1) > deg f; the radical chain is constant from there."""
    p = f.spec.characteristic
    return int_log(p, f.total_degree()) if p else 0


def trunc_gcd(f: MvPoly, ell: int, parts: tuple | None = None) -> MvPoly:
    """gcd(f, S(f)^ell): every irreducible P at multiplicity min(ell, mult)."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "truncation of the zero polynomial")
    if ell < 1:
        raise CasError("VALIDATION_ERROR", "truncation level must be positive")
    return _product(f, parts, ell)


def sigma_radical_gcd(f: MvPoly, a: int, sigma: int, parts: tuple | None = None) -> MvPoly:
    """gcd(f, R_{p^sigma}(f)^a), the characteristic-p counting object; parts
    must reach depth sigma."""
    if f.spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "sigma-radical needs characteristic p")
    if f.is_zero():
        raise CasError("ZERO_POLY", "truncation of the zero polynomial")
    if a < 1 or sigma < 0:
        raise CasError("VALIDATION_ERROR", "bad truncation parameters")
    return _product(f, parts, a, min(sigma, stable_radical_level(f)))


def radical_chain(f: MvPoly) -> list:
    """[R_{p^0}(f), ..., R_{p^top}(f)], top = ``stable_radical_level(f)``: the
    last entry is the terminal level, the square-free part.  R_{p^s}(f) takes
    the parts of root levels 0 to s into one dense product."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical chain of the zero polynomial")
    top = stable_radical_level(f)
    vs, level, parts = _dense_decomposition(f, top)
    p, prod, k, chain = f.spec.characteristic, level.one, 0, []
    for s in range(top + 1):
        new = [a for i, a in parts[k:] if not p or i % p ** (s + 1)]
        k, prod = k + len(new), reduce(level.mul, new, prod)
        chain.append(from_dense(f.spec, f.m, vs, prod).normalized() if new or not chain
                     else chain[-1])
    return chain
