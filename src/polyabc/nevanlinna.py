"""Gauss norms and zero-counting functions as exact piecewise-linear data.

Radii are restricted to r = p^rho with rational rho, so the sup-norm
log|f|_{p^rho} = max over terms of (log|a_gamma| + |gamma| rho) is the upper
envelope of finitely many rational lines, and every quantity downstream
(counting steps, integrated counting, margins) is exact Fraction arithmetic.
The maximum of several norms, rho -> max_j log|f_j|_{p^rho}, is likewise one
envelope, taken over the terms of every f_j together.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CasError
from .mvpoly import MvPoly


class PiecewiseLinear:
    """Continuous piecewise-linear function on the whole rho line.

    Stored as ascending breakpoints, one slope per segment (one more slope
    than breakpoints) and the values at the breakpoints (a single value at
    rho = 0 when there are none).  Canonical: adjacent slopes differ.
    """

    __slots__ = ("breakpoints", "slopes", "values", "anchor")

    def __init__(self, breakpoints, slopes, anchor):
        bp = [Fraction(x) for x in breakpoints]
        sl = [Fraction(s) for s in slopes]
        anchor = Fraction(anchor)
        if len(sl) != len(bp) + 1:
            raise CasError("VALIDATION_ERROR", "slope count must exceed breakpoint count by one")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise CasError("VALIDATION_ERROR", "breakpoints must be strictly ascending")
        vals = []
        v = anchor
        for i, b in enumerate(bp):
            if i > 0:
                v += sl[i] * (b - bp[i - 1])
            vals.append(v)
        # canonical form: drop breakpoints between segments of equal slope
        nbp, nvals, nsl = [], [], [sl[0]]
        for b, v, s in zip(bp, vals, sl[1:]):
            if s != nsl[-1]:
                nbp.append(b)
                nvals.append(v)
                nsl.append(s)
        self.breakpoints = nbp
        self.slopes = nsl
        self.values = nvals
        if nbp:
            self.anchor = nvals[0]
        elif bp:
            self.anchor = vals[0] - sl[0] * bp[0]  # value at rho = 0
        else:
            self.anchor = anchor

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def line(slope, intercept) -> "PiecewiseLinear":
        return PiecewiseLinear([], [slope], intercept)

    @staticmethod
    def upper_envelope(lines) -> "PiecewiseLinear":
        """Envelope of (slope, intercept) pairs: max over lines of s*rho + b."""
        best: dict = {}
        for s, b in lines:
            s, b = Fraction(s), Fraction(b)
            if s not in best or b > best[s]:
                best[s] = b
        items = sorted(best.items())

        def cross(l1, l2):
            return (l2[1] - l1[1]) / (l1[0] - l2[0])

        hull = []
        for ln in items:
            while len(hull) >= 2 and cross(hull[-1], ln) <= cross(hull[-2], hull[-1]):
                hull.pop()
            hull.append(ln)
        bps = [cross(a, b) for a, b in zip(hull, hull[1:])]
        slopes = [s for s, _ in hull]
        if bps:
            s0, b0 = hull[0]
            anchor = s0 * bps[0] + b0
        else:
            anchor = hull[0][1]
        return PiecewiseLinear(bps, slopes, anchor)

    # -- evaluation -----------------------------------------------------------

    def value(self, rho) -> Fraction:
        rho = Fraction(rho)
        if not self.breakpoints:
            return self.anchor + self.slopes[0] * rho
        i = bisect_left(self.breakpoints, rho)
        if i == len(self.breakpoints):
            return self.values[-1] + self.slopes[-1] * (rho - self.breakpoints[-1])
        return self.values[i] + self.slopes[i] * (rho - self.breakpoints[i])

    @property
    def final_slope(self) -> Fraction:
        return self.slopes[-1]

    def _slope_before(self, right) -> Fraction:
        """Slope on a segment lying immediately left of ``right`` (None = +inf)."""
        if right is None:
            return self.slopes[-1]
        return self.slopes[bisect_left(self.breakpoints, right)]

    # -- linear operations -------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        rights = bps + [None]
        slopes = [self._slope_before(r) + other._slope_before(r) for r in rights]
        ref = bps[0] if bps else Fraction(0)
        return PiecewiseLinear(bps, slopes, self.value(ref) + other.value(ref))

    def __neg__(self) -> "PiecewiseLinear":
        ref = self.breakpoints[0] if self.breakpoints else Fraction(0)
        return PiecewiseLinear(list(self.breakpoints), [-s for s in self.slopes],
                               -self.value(ref))

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self + (-other)

    def scale(self, q) -> "PiecewiseLinear":
        q = Fraction(q)
        ref = self.breakpoints[0] if self.breakpoints else Fraction(0)
        if q == 0:
            return PiecewiseLinear.line(0, 0)
        return PiecewiseLinear(list(self.breakpoints), [s * q for s in self.slopes],
                               self.value(ref) * q)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return (self.breakpoints == other.breakpoints and self.slopes == other.slopes
                and self.anchor == other.anchor)

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
    lines = [(Fraction(sum(e)), c.log_abs()) for e, c in f.terms.items()]
    return PiecewiseLinear.upper_envelope(lines)


def counting(f: MvPoly) -> CountingData:
    """Zero counting read off the norm envelope; slopes are the step values."""
    if f.is_zero():
        raise CasError("ZERO_POLY", "counting data of the zero polynomial")
    prof = norm_profile(f)
    n_values = [int(s) for s in prof.slopes]
    n0 = n_values[0]
    bps = list(prof.breakpoints)
    anchor = Fraction(n0) * bps[0] if bps else Fraction(0)
    integrated = PiecewiseLinear(bps, [Fraction(v) for v in n_values], anchor)
    return CountingData(n_at_zero=n0, breakpoints=bps, n_values=n_values,
                        integrated=integrated, profile=prof)


def truncated_counting(f: MvPoly, ell: int) -> CountingData:
    """Counting with multiplicities capped at ell."""
    from .radicals import trunc_gcd

    if f.is_zero():
        raise CasError("ZERO_POLY", "truncated counting of the zero polynomial")
    if ell < 1:
        raise CasError("VALIDATION_ERROR", "truncation level must be positive")
    return counting(trunc_gcd(f, ell))
