"""Radicals, higher p^s-radicals, the square-free part and its truncations.

All are read off one square-free decomposition f = c * prod a_i^i, with
squarefree, pairwise coprime a_i (Yun's algorithm in all variables at once,
on the recursive dense elements of ``mvpoly``: derivatives, gcds and exact
quotients never leave them, and only the a_i become ``MvPoly`` values).
g = gcd(f, df/dz_1, ..., df/dz_m) leaves the radical f / g, the factors whose
multiplicity p does not divide; peeling it off g layer by layer gives those
a_i.  What g keeps is v^p, and v's decomposition, its multiplicities scaled
by p, gives the rest; it is complete once p^(s+1) exceeds the degree.  Over
F_p(t) the p-th root can leave the field (NOT_A_POWER), so a decomposition
goes only as deep as its caller's level needs.  Each object is one product
prod a_i^min(i, cap) over the i that p^(s+1) does not divide: R_{p^s}(f)
(cap 1), S(f) (cap 1, every i), gcd(f, S(f)^ell) (cap ell, every i) and
gcd(f, R_{p^sigma}(f)^a) (cap a, s = sigma).  Callers that need several of
them for one polynomial pass its decomposition as ``parts``.  A product of
several polynomials is decomposed from its factors' decompositions
(``product_decomposition``), never from the product.
"""

from __future__ import annotations

from .errors import CasError
from .fields import int_log
from .hasse import poly_pth_root
from .mvpoly import (MvPoly, dense_domain, dense_is_const, dense_partial, exact_div, from_dense,
                     poly_gcd, present_vars, to_dense)


def _derivative_gcd(f: MvPoly):
    """f and gcd(f, df/dz_1, ..., df/dz_m) as recursive dense elements in the
    variables vs of f, with their level."""
    vs = present_vars(f)
    level = dense_domain(f.spec, len(vs))
    F = g = to_dense(f, vs)
    for j in range(len(vs)):
        if dense_is_const(g, level.depth):
            break
        g = level.gcd(g, dense_partial(F, level.depth, j, f.spec.ring))
    return vs, level, F, g


def radical(f: MvPoly) -> MvPoly:
    """f / gcd(f, df/dz_1, ..., df/dz_m), graded-lex monic."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical of the zero polynomial")
    if f.is_constant():
        return MvPoly.one(f.spec, f.m)
    vs, level, F, g = _derivative_gcd(f)
    return from_dense(f.spec, f.m, vs, level.exquo(F, g)).normalized()


def square_free_decomposition(f: MvPoly, top: int) -> tuple:
    """The pairs (i, a_i) of f = c * prod a_i^i, for every multiplicity i that
    p^(top+1) does not divide (every i in characteristic 0), in increasing i.

    The a_i are squarefree, pairwise coprime and graded-lex monic; only
    nonconstant ones are listed.  Yun's loop runs on recursive dense elements;
    only the a_i, and the v with g = v^p that it leaves, become MvPolys."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "square-free decomposition of the zero polynomial")
    if f.is_constant():
        return ()
    vs, level, F, g = _derivative_gcd(f)
    d, spec = level.depth, f.spec
    w = level.exquo(F, g)
    moving = not dense_is_const(w, d)  # some partial derivative of f is nonzero
    parts = []
    i = 1
    while not dense_is_const(w, d):
        y = level.gcd(w, g)
        a = level.exquo(w, y)
        if not dense_is_const(a, d):
            parts.append((i, from_dense(spec, f.m, vs, a).normalized()))
        w, g = y, level.exquo(g, y)
        i += 1
    if top > 0 and not dense_is_const(g, d):
        # when every partial derivative of f vanishes, g is f, and
        # poly_pth_root reads f's terms in f's own order
        g = from_dense(spec, f.m, vs, g) if moving else f
        deeper = square_free_decomposition(poly_pth_root(g.normalized(), 1), top - 1)
        parts += [(spec.characteristic * j, a) for j, a in deeper]
    return tuple(sorted(parts, key=lambda part: part[0]))


def product_decomposition(fs, coprime: bool = False) -> tuple:
    """The full square-free decomposition of F = prod fs, as pairs (mu, b) in
    increasing mu with squarefree, pairwise coprime, graded-lex monic b, read
    off each nonconstant f's decomposition at its own stable level; F itself
    is never formed.

    The parts of every f are refined into a coprime base (factor refinement):
    a part (i, a) splits each base element (mu, b) it meets into
    (mu + i, gcd(a, b)) and (mu, b / gcd(a, b)).  Parts are squarefree, so
    one pass suffices, and parts of one f are coprime, so they are never
    compared.  When the caller has proved the fs pairwise coprime, the parts
    are simply concatenated.  Equal mu are not grouped: ``_product`` takes
    the product over them."""
    base = []
    for f in fs:
        if f.is_constant():
            continue
        parts = square_free_decomposition(f, stable_radical_level(f))
        if coprime:
            base += parts
            continue
        new = []
        for i, a in parts:
            rest = []
            for mu, b in base:
                g = poly_gcd(a, b)
                if g.is_constant():
                    rest.append((mu, b))
                    continue
                new.append((mu + i, g))
                b = exact_div(b, g)
                if not b.is_constant():
                    rest.append((mu, b))
                a = exact_div(a, g)
            if not a.is_constant():
                new.append((i, a))
            base = rest
        base += new
    return tuple(sorted(base, key=lambda part: part[0]))


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
    last entry is the terminal level, the square-free part."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "radical chain of the zero polynomial")
    top = stable_radical_level(f)
    parts = square_free_decomposition(f, top)
    return [_product(f, parts, 1, s) for s in range(top + 1)]
