"""Generalized Wronskians, nonvanishing certificates, and independence levels.

A certificate for functions f_0..f_{n-1} is a chain of derivative
multi-indices gamma^0 = 0, gamma^1, ... with |gamma^i| <= |gamma^{i-1}| + c
whose Hasse-derivative matrix has nonzero determinant.  The chain is found
greedily in graded-lex order; in characteristic p the guaranteed step is
c = p^(s-1) where s is the index of independence, decided exactly by a rank
computation on the p^s-power component decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CasError, SearchExhausted
from .hasse import hasse_derivative
from .mvpoly import MvPoly, exact_div, grlex_key


# ---------------------------------------------------------------------------
# exact linear algebra over the coefficient field

def coeff_vector_basis(fs):
    """Shared monomial basis (graded-lex descending) and dense rows."""
    monos = sorted({e for f in fs for e in f.terms}, key=grlex_key, reverse=True)
    zero = fs[0].spec.zero()
    rows = [[f.terms.get(e, zero) for e in monos] for f in fs]
    return monos, rows


def field_rank(rows) -> int:
    """Rank of a matrix of field elements, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c].inverse()
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            x = rows[i][c]
            if x.is_zero():
                continue
            factor = x * inv
            row = rows[i]
            for j in range(c, ncols):
                row[j] = row[j] - factor * prow[j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def f_independent(fs) -> bool:
    """Linear independence over the coefficient field."""
    if any(f.is_zero() for f in fs):
        return False
    _, rows = coeff_vector_basis(fs)
    return field_rank(rows) == len(fs)


def f_rank(fs) -> int:
    _, rows = coeff_vector_basis(fs)
    return field_rank(rows)


# ---------------------------------------------------------------------------
# fraction-free elimination on polynomial matrices

def _bareiss(M, ncols=None):
    """Bareiss elimination of the matrix M, in place, over the fraction field.

    Pivots are taken from the first ``ncols`` columns (all by default); any
    further columns are an augmented block that follows the row operations.
    Each step divides exactly by the previous pivot, so entries stay
    polynomials.  Returns (rank, last pivot, sign of the row permutation);
    the rows from index rank on are zero in the pivot columns.
    """
    nrows = len(M)
    width = len(M[0]) if M else 0
    ncols = width if ncols is None else ncols
    prev, sign, rank = None, 1, 0
    for c in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if not M[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            sign = -sign
        prow = M[rank]
        pivot = prow[c]
        zero = MvPoly.zero(pivot.spec, pivot.m)
        for i in range(rank + 1, nrows):
            row = M[i]
            head = row[c]
            for j in range(c + 1, width):
                num = pivot * row[j] - head * prow[j]
                row[j] = num if prev is None else exact_div(num, prev)
            row[c] = zero
        prev = pivot
        rank += 1
    return rank, prev, sign


def poly_matrix_rank(M) -> int:
    """Rank over the fraction field, by Bareiss elimination with pivoting."""
    return _bareiss([list(row) for row in M])[0]


def bareiss_det(M) -> MvPoly:
    """Fraction-free determinant of a square polynomial matrix."""
    M = [list(row) for row in M]
    if not M:
        raise CasError("DIMENSION_MISMATCH", "empty matrix")
    rank, last, sign = _bareiss(M)
    if rank < len(M):
        return MvPoly.zero(M[0][0].spec, M[0][0].m)
    return last if sign == 1 else -last


# ---------------------------------------------------------------------------

def graded_lex_indices(m: int):
    """All multi-indices of m entries, by total degree then ascending lex."""
    d = 0
    while True:
        for gamma in _compositions(d, m):
            yield gamma
        d += 1


def _compositions(total: int, m: int):
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, m - 1):
            yield (first,) + rest


@dataclass
class WronskianCertificate:
    functions: list
    gammas: list
    step_c: int
    determinant: MvPoly

    def validate(self) -> bool:
        if any(g != (0,) * self.functions[0].m for g in self.gammas[:1]):
            return False
        for prev, cur in zip(self.gammas, self.gammas[1:]):
            if sum(cur) > sum(prev) + self.step_c:
                return False
        det = gen_wronskian(self.functions, self.gammas)
        return det == self.determinant and not det.is_zero()


@dataclass
class IndependenceResult:
    index_s: int | None           # None in characteristic 0
    dependent_over: tuple | None  # (level, [witness coefficients]) when found
    search_cap: int | None = None


def gen_wronskian(fs, gammas) -> MvPoly:
    """det of the matrix with rows D^gamma applied across the functions."""
    fs = list(fs)
    gammas = [tuple(g) for g in gammas]
    if not fs or len(fs) != len(gammas):
        raise CasError("DIMENSION_MISMATCH", "need as many derivative indices as functions")
    m = fs[0].m
    if any(f.m != m for f in fs) or any(len(g) != m for g in gammas):
        raise CasError("DIMENSION_MISMATCH", "mixed variable counts")
    if any(g != (0,) * m for g in gammas[:1]):
        raise CasError("DIMENSION_MISMATCH", "the first derivative index must be zero")
    rows = [[hasse_derivative(f, g) for f in fs] for g in gammas]
    return bareiss_det(rows)


def find_certificate(fs, step_c: int) -> WronskianCertificate:
    """Greedy rank-growing search for a nonvanishing generalized Wronskian.

    Enumerates candidate multi-indices in graded-lex order, keeping the first
    that enlarges the row space over the fraction field, with the admissible
    window |gamma| <= |last accepted| + step_c.  Exhausting the window is a
    legal outcome (the step was too small for these functions).
    """
    fs = list(fs)
    if not fs:
        raise CasError("DIMENSION_MISMATCH", "no functions")
    if step_c < 1:
        raise CasError("VALIDATION_ERROR", "step must be positive")
    if any(f.is_zero() for f in fs):
        raise CasError("NOT_F_INDEPENDENT", "zero function in the tuple")
    if not f_independent(fs):
        raise CasError("NOT_F_INDEPENDENT", "functions are linearly dependent over the field")
    n = len(fs)
    m = fs[0].m
    zero_gamma = (0,) * m
    gammas = [zero_gamma]
    rows = [list(fs)]
    last_deg = 0
    if n == 1:
        return WronskianCertificate(fs, gammas, step_c, fs[0])
    gen = graded_lex_indices(m)
    next(gen)  # skip the zero index, already used
    for gamma in gen:
        if sum(gamma) > last_deg + step_c:
            raise SearchExhausted(
                f"no admissible index beyond degree {last_deg + step_c}", last_degree=last_deg)
        candidate = [hasse_derivative(f, gamma) for f in fs]
        if all(x.is_zero() for x in candidate):
            continue
        if poly_matrix_rank(rows + [candidate]) > len(rows):
            rows.append(candidate)
            gammas.append(gamma)
            last_deg = sum(gamma)
            if len(rows) == n:
                det = bareiss_det(rows)
                return WronskianCertificate(fs, gammas, step_c, det)
    raise SearchExhausted("exhausted all multi-indices", last_degree=last_deg)


# ---------------------------------------------------------------------------
# independence over the subfield of p^s-th powers

def _component_matrix(fs, s: int):
    """Rows of f's components along residues of exponents mod p^s.

    f = sum over residues delta of z^delta * g_delta(z^(p^s)); the entries
    are the g_delta written in the compressed variables.
    """
    spec = fs[0].spec
    m = fs[0].m
    q = spec.p ** s
    residues = sorted({tuple(e % q for e in exps) for f in fs for exps in f.terms})
    col = {r: i for i, r in enumerate(residues)}
    rows = []
    for f in fs:
        entries = [dict() for _ in residues]
        for exps, c in f.terms.items():
            r = tuple(e % q for e in exps)
            entries[col[r]][tuple(e // q for e in exps)] = c
        rows.append([MvPoly(spec, m, t) for t in entries])
    return rows


def independent_over_power_subfield(fs, s: int) -> bool:
    """Linear independence over the field of p^s-th-power meromorphic ratios.

    Decided by the rank of the component matrix over the fraction field of
    the compressed polynomial ring; a rank defect is exactly a syzygy with
    coefficients supported on exponents in p^s Z^m.
    """
    if fs[0].spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "power subfields need characteristic p")
    rows = _component_matrix(fs, s)
    return poly_matrix_rank(rows) == len(fs)


def _dependence_witness(fs, s: int):
    """Coefficients Q_j (supported on p^s-divisible exponents) with sum Q_j f_j = 0."""
    spec = fs[0].spec
    m = fs[0].m
    q = spec.p ** s
    rows = _component_matrix(fs, s)
    n, ncols = len(rows), len(rows[0])
    one, zero = MvPoly.one(spec, m), MvPoly.zero(spec, m)
    M = [row + [one if i == j else zero for j in range(n)] for i, row in enumerate(rows)]
    rank, _, _ = _bareiss(M, ncols)
    if rank == n:
        return None
    # row `rank` of [rows | I] is zero left of the block, so its block is a
    # syzygy; stretch the compressed variables back out: z -> z^(p^s)
    return [MvPoly(spec, m, {tuple(e * q for e in exps): c for exps, c in g.terms.items()})
            for g in M[rank][ncols:]]


def index_of_independence(fs) -> IndependenceResult:
    """Smallest s >= 1 at which the tuple stays independent over the
    p^s-th-power subfield; the search self-terminates once p^s exceeds the
    total degree, where component rank equals plain field rank."""
    fs = list(fs)
    spec = fs[0].spec
    if spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "index of independence needs characteristic p")
    if not f_independent(fs):
        raise CasError("NOT_F_INDEPENDENT", "functions are linearly dependent over the field")
    max_deg = max(f.total_degree() for f in fs)
    cap = 1
    while spec.p ** cap <= max_deg:
        cap += 1
    witness = None
    s = 1
    while True:
        if independent_over_power_subfield(fs, s):
            if s > 1 and witness is None:
                witness = _dependence_witness(fs, s - 1)
                witness = (s - 1, witness) if witness else None
            return IndependenceResult(index_s=s, dependent_over=witness, search_cap=cap)
        witness = None
        s += 1
        if s > cap + 1:
            raise CasError("SEARCH_EXHAUSTED", "independence level beyond the degree cap")


def collection_independence_index(fs) -> int:
    """Smallest s such that every field-independent subset of fs stays
    independent over the p^s-power subfield (1 when nothing binds)."""
    fs = list(fs)
    spec = fs[0].spec
    if spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "index of independence needs characteristic p")
    from itertools import combinations

    d = f_rank(fs)
    best = 1
    if d == 0:
        return 1
    for base in combinations(range(len(fs)), d):
        subset = [fs[i] for i in base]
        if not f_independent(subset):
            continue
        res = index_of_independence(subset)
        if res.index_s > best:
            best = res.index_s
    return best
