"""Gauss norms and zero-counting functions as exact piecewise-linear data.

Radii are restricted to r = p^rho with rational rho, so the sup-norm
log|f|_{p^rho} = max over terms of (log|a_gamma| + |gamma| rho) is the upper
envelope of finitely many lines, with integer slopes and intercepts: only
its breakpoints are ``Fraction`` values, and every quantity downstream
(counting steps, integrated counting, margins) is exact.  The maximum of
several norms, rho -> max_j log|f_j|_{p^rho}, is likewise one envelope,
taken over the terms of every f_j together.  The Gauss norm is
multiplicative: the profile of prod a^e is the sum of e * profile(a).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub

from .errors import CasError
from .mvpoly import MvPoly


def _rational(x):
    """x as an exact rational: an int, or else a Fraction."""
    return x if x.__class__ is int else Fraction(x)


class PiecewiseLinear:
    """Continuous piecewise-linear function on the whole rho line; immutable.

    Stored as ascending breakpoints and the line s * rho + c of each segment,
    as ``slopes`` and ``intercepts``; canonical: adjacent slopes differ.  The
    constructor takes the ``anchor``, the value at the first breakpoint (at
    rho = 0 when there is none), for the intercepts.
    """

    __slots__ = ("breakpoints", "slopes", "intercepts")

    def __init__(self, breakpoints, slopes, anchor):
        bp = [Fraction(x) for x in breakpoints]
        sl = [_rational(s) for s in slopes]
        if len(sl) != len(bp) + 1:
            raise CasError("VALIDATION_ERROR", "slope count must exceed breakpoint count by one")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise CasError("VALIDATION_ERROR", "breakpoints must be strictly ascending")
        c = _rational(anchor) - (sl[0] * bp[0] if bp else 0)
        self.breakpoints, self.slopes, self.intercepts = [], sl[:1], [c]
        for b, s in zip(bp, sl[1:]):  # dropping breakpoints between equal slopes
            if s != self.slopes[-1]:
                c += (self.slopes[-1] - s) * b  # continuity at b
                self.breakpoints.append(b)
                self.slopes.append(s)
                self.intercepts.append(c)

    @staticmethod
    def _of_lines(breakpoints, slopes, intercepts) -> "PiecewiseLinear":
        """The function with these canonical parts, taken as they are."""
        pl = PiecewiseLinear.__new__(PiecewiseLinear)
        pl.breakpoints, pl.slopes, pl.intercepts = breakpoints, slopes, intercepts
        return pl

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def line(slope, intercept) -> "PiecewiseLinear":
        return PiecewiseLinear._of_lines([], [_rational(slope)], [_rational(intercept)])

    @staticmethod
    def upper_envelope(lines) -> "PiecewiseLinear":
        """Envelope of (slope, intercept) pairs: max over lines of s*rho + b,
        the upper hull in ascending slope, whose crossings are compared by
        cross-multiplication; only the final breakpoints are Fractions."""
        best: dict = {}
        for s, b in lines:
            s, b = _rational(s), _rational(b)
            if s not in best or b > best[s]:
                best[s] = b
        slopes, cs = [], []
        for s, b in sorted(best.items()):  # drop lines the new one makes redundant
            while len(slopes) >= 2 and ((cs[-1] - b) * (slopes[-1] - slopes[-2])
                                        <= (cs[-2] - cs[-1]) * (s - slopes[-1])):
                slopes.pop()
                cs.pop()
            slopes.append(s)
            cs.append(b)
        bps = [Fraction(cs[i] - cs[i + 1], slopes[i + 1] - slopes[i])
               for i in range(len(slopes) - 1)]
        return PiecewiseLinear._of_lines(bps, slopes, cs)

    # -- evaluation -----------------------------------------------------------

    def value(self, rho):
        rho = _rational(rho)
        i = bisect_left(self.breakpoints, rho)
        return self.slopes[i] * rho + self.intercepts[i]

    @property
    def values(self) -> list:
        """The values at the breakpoints."""
        return [s * b + c for b, s, c in zip(self.breakpoints, self.slopes, self.intercepts)]

    @property
    def anchor(self):
        """The value at the first breakpoint; at rho = 0 when there is none."""
        return self.value(self.breakpoints[0] if self.breakpoints else 0)

    @property
    def final_slope(self):
        return self.slopes[-1]

    # -- linear operations -------------------------------------------------------

    def _merge(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        """op (add or sub) of the two functions, in one pass over both."""
        ab, asl, acs = self.breakpoints, self.slopes, self.intercepts
        bb, bsl, bcs = other.breakpoints, other.slopes, other.intercepts
        na, nb, i, j = len(ab), len(bb), 0, 0
        bps, slopes, cs = [], [op(asl[0], bsl[0])], [op(acs[0], bcs[0])]
        while i < na or j < nb:  # x, the next breakpoint of either, ends a segment
            x = ab[i] if j == nb or (i < na and ab[i] < bb[j]) else bb[j]
            i += i < na and ab[i] == x
            j += j < nb and bb[j] == x
            s = op(asl[i], bsl[j])
            if s != slopes[-1]:
                bps.append(x)
                slopes.append(s)
                cs.append(op(acs[i], bcs[j]))
        return PiecewiseLinear._of_lines(bps, slopes, cs)

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._merge(other, add)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._merge(other, sub)

    def scale(self, q) -> "PiecewiseLinear":
        q = _rational(q)
        if q == 0:
            return PiecewiseLinear.line(0, 0)
        return PiecewiseLinear._of_lines(self.breakpoints, [s * q for s in self.slopes],
                                         [c * q for c in self.intercepts])

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return (self.breakpoints == other.breakpoints and self.slopes == other.slopes
                and self.intercepts == other.intercepts)

    def __repr__(self):
        segs = ", ".join(str(s) for s in self.slopes)
        return f"PL(bp={self.breakpoints}, slopes=[{segs}], anchor={self.anchor})"


@dataclass
class CountingData:
    """Unintegrated and integrated zero counting of a polynomial.

    ``n_values`` is the right-continuous step function rho -> n_f(0, p^rho)
    (one value per segment); ``integrated`` is its exact integral normalized
    to n_f(0,0) * rho below the first breakpoint; ``profile`` is the norm
    profile rho -> log|f|_{p^rho} they were read off.
    """

    n_at_zero: int
    breakpoints: list = field(default_factory=list)
    n_values: list = field(default_factory=list)
    integrated: PiecewiseLinear = None
    profile: PiecewiseLinear = None

    def poisson_constant(self) -> Fraction:
        """The r-independent gap between integrated counting and the log norm.

        The two piecewise-linear functions share all slopes, so their
        difference must be a single constant; anything else is an internal
        inconsistency.
        """
        gap = self.integrated - self.profile
        if gap.breakpoints or gap.slopes[0] != 0:
            raise CasError("NOT_CONSTANT", f"counting/norm gap is not constant: {gap!r}")
        return gap.anchor


def norm_profile(f: MvPoly) -> PiecewiseLinear:
    """The full convex map rho -> log|f|_{p^rho}."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "norm profile of the zero polynomial")
    return PiecewiseLinear.upper_envelope([(sum(e), c.log_abs()) for e, c in f.terms.items()])


def counting(f: MvPoly) -> CountingData:
    """Zero counting read off the norm envelope; slopes are the step values."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "counting data of the zero polynomial")
    return product_counting([(1, f)])


def product_counting(powers) -> CountingData:
    """Counting data of prod a^e over the pairs (e, a) of nonzero polynomials,
    read off the factors unmultiplied: the slopes of the norm profile are the
    step values, and the profile less its first intercept is integrated."""
    prof = PiecewiseLinear.line(0, 0)
    for e, a in powers:
        prof = prof + norm_profile(a).scale(e)
    n_values = [int(s) for s in prof.slopes]
    integrated = prof - PiecewiseLinear.line(0, prof.intercepts[0])
    return CountingData(n_at_zero=n_values[0], breakpoints=list(prof.breakpoints),
                        n_values=n_values, integrated=integrated, profile=prof)


def truncated_counting(f: MvPoly, ell: int) -> CountingData:
    """Counting with multiplicities capped at ell: of gcd(f, S(f)^ell)."""
    from .radicals import capped_parts

    if f.is_zero():
        raise CasError("ZERO_POLY", "truncated counting of the zero polynomial")
    if ell < 1:
        raise CasError("VALIDATION_ERROR", "truncation level must be positive")
    return product_counting(capped_parts(f, None, ell))
