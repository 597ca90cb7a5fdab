"""Generalized Wronskians, nonvanishing certificates, and independence levels.

A certificate for functions f_0..f_{n-1} is a chain of derivative
multi-indices gamma^0 = 0, gamma^1, ... with |gamma^i| <= |gamma^{i-1}| + c
whose Hasse-derivative matrix has nonzero determinant.  The chain is found
greedily in graded-lex order; in characteristic p the guaranteed step is
c = p^(s-1) where s is the index of independence: the first level s at which
the rank of the p^s-power component matrix reaches the field rank, one rank
per level for a tuple and for a whole collection alike.

Every rank and determinant runs through one fraction-free (Bareiss)
elimination with a row step for its exact ring: the field's own step
(``Ring.step``) on cleared coefficient rows -- integers, residues mod p or
F_p[t] -- and the step of the recursive dense polynomials (``mvpoly``) on
polynomial matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CasError, SearchExhausted
from .fields import _ring_step, int_log
from .hasse import hasse_derivative
from .mvpoly import MvPoly, dense_domain, from_dense, present_vars, to_dense


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free elimination

def _bareiss(M, step, ncols=None, prev=None):
    """Bareiss elimination of the matrix M, in place, over the fraction field
    of its entries' ring, whose row step is ``step``.

    Pivots are taken from the first ``ncols`` columns (all by default); any
    further columns are an augmented block that follows the row operations.
    Each step(row, prow, c, cols, prev) sets a lower row, in place, to
    (pivot * row - head * pivot row) / prev over cols, so entries stay in
    the ring; ``prev`` stands before the first pivot (None: no division).
    Entries are tested for zero by truth value.  Returns (rank, last pivot,
    sign of the row permutation); the rows from index rank on are zero in
    the pivot columns.
    """
    nrows = len(M)
    width = len(M[0]) if M else 0
    ncols = width if ncols is None else ncols
    sign, rank = 1, 0
    for c in range(ncols):
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if M[piv][c]:
                break
        else:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            sign = -sign
        prow = M[rank]
        tail = range(c + 1, width)
        for row in M[rank + 1:]:
            step(row, prow, c, tail, prev)
        prev = prow[c]
        rank += 1
    return rank, prev, sign


def _scan_rows(fs):
    """The coefficient rows of fs over one exact ring, in a shared monomial
    basis: a subsum vanishes iff its rows sum to zero, and any set of the
    functions has the rank of its rows.

    Scaling every row by one nonzero constant keeps both, so the rows are
    the field's cleared form of the coefficients (``Ring.clear``): integers
    over Q, residues over F_p, polynomials in t over F_p(t).
    """
    spec = fs[0].spec
    monos = sorted({e for f in fs for e in f.terms})
    zero, w = spec.zero(), len(monos)
    flat = spec.ring.clear([f.terms.get(e, zero).val for f in fs for e in monos])
    return [flat[i * w:(i + 1) * w] for i in range(len(fs))]


def field_rank(rows, spec) -> int:
    """Rank over the field of ``spec`` of coefficient rows from ``_scan_rows``,
    by Bareiss elimination over the rows' ring."""
    ring = spec.ring
    return _bareiss([list(r) for r in rows], ring.step, prev=ring.prev)[0]


def f_rank(fs) -> int:
    """Rank of fs over the coefficient field."""
    return field_rank(_scan_rows(fs), fs[0].spec)


def f_independent(fs) -> bool:
    """Linear independence over the coefficient field."""
    return f_rank(fs) == len(fs)


def _dense_ring(fs):
    """The recursive dense level of the variables that occur in the MvPoly
    values fs, its ``_bareiss`` step, and the conversions to and from it."""
    f = fs[0]
    vs = present_vars(*fs)
    level = dense_domain(f.spec, len(vs) or 1)
    return (level, _ring_step(level.mul, level.sub, level.exquo), lambda x: to_dense(x, vs),
            lambda a: from_dense(f.spec, f.m, vs, a))


def poly_matrix_rank(M) -> int:
    """Rank over the fraction field, by Bareiss elimination with pivoting."""
    entries = [x for row in M for x in row]
    if not entries:
        return 0
    _, step, to, _ = _dense_ring(entries)
    return _bareiss([[to(x) for x in row] for row in M], step)[0]


def bareiss_det(M) -> MvPoly:
    """Fraction-free determinant of a square polynomial matrix."""
    if not M:
        raise CasError("DIMENSION_MISMATCH", "empty matrix")
    level, step, to, back = _dense_ring([x for row in M for x in row])
    rank, last, sign = _bareiss([[to(x) for x in row] for row in M], step)
    if rank < len(M):
        return back(())
    return back(last if sign == 1 else level.neg(last))


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


@dataclass
class IndependenceResult:
    index_s: int | None           # None in characteristic 0
    dependent_over: tuple | None  # (level, [witness coefficients]) when found
    search_cap: int | None = None


def require_f_independent(fs):
    """NOT_F_INDEPENDENT unless fs is linearly independent over the field."""
    if any(f.is_zero() for f in fs):
        raise CasError("NOT_F_INDEPENDENT", "zero function in the tuple")
    if not f_independent(fs):
        raise CasError("NOT_F_INDEPENDENT", "functions are linearly dependent over the field")


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
    require_f_independent(fs)
    n = len(fs)
    m = fs[0].m
    gammas = [(0,) * m]
    last_deg = 0
    if n == 1:
        return WronskianCertificate(fs, gammas, step_c, fs[0])
    level, step, to, back = _dense_ring(fs)
    rows = [[to(f) for f in fs]]
    gen = graded_lex_indices(m)
    next(gen)  # skip the zero index, already used
    for gamma in gen:
        if sum(gamma) > last_deg + step_c:
            raise SearchExhausted(
                f"no admissible index beyond degree {last_deg + step_c}", last_degree=last_deg)
        candidate = [hasse_derivative(f, gamma) for f in fs]
        if all(x.is_zero() for x in candidate):
            continue
        candidate = [to(x) for x in candidate]
        rank, last, sign = _bareiss([list(row) for row in rows + [candidate]], step)
        if rank > len(rows):
            rows.append(candidate)
            gammas.append(gamma)
            last_deg = sum(gamma)
            if len(rows) == n:  # the elimination above was of the final square matrix
                det = back(last if sign == 1 else level.neg(last))
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
    residues = sorted({tuple([e % q for e in exps]) for f in fs for exps in f.terms})
    col = {r: i for i, r in enumerate(residues)}
    rows = []
    for f in fs:
        entries = [dict() for _ in residues]
        for exps, c in f.terms.items():
            r = tuple([e % q for e in exps])
            entries[col[r]][tuple([e // q for e in exps])] = c
        rows.append([MvPoly(spec, m, t) for t in entries])
    return rows


def _full_rank_level(fs, d: int):
    """Smallest s >= 1 at which the component matrix of fs has rank d, and the
    search cap.

    The rank at level s is the dimension of the span of fs over K_s, the
    p^s-th-power ratios, which contain the coefficient field, so it is at most
    the field rank and never falls as s grows.  Once p^s exceeds the largest
    total degree every component is a constant and the rank is the field
    rank; the cap is the first such level.
    """
    cap = int_log(fs[0].spec.p, max(f.total_degree() for f in fs)) + 1
    for s in range(1, cap + 2):
        if poly_matrix_rank(_component_matrix(fs, s)) == d:
            return s, cap
    raise CasError("SEARCH_EXHAUSTED", "independence level beyond the degree cap")


def _dependence_witness(fs, s: int):
    """Coefficients Q_j (supported on p^s-divisible exponents) with sum Q_j f_j = 0,
    at a level s where fs is dependent over the p^s-th-power subfield."""
    spec = fs[0].spec
    m = fs[0].m
    q = spec.p ** s
    rows = _component_matrix(fs, s)
    n, ncols = len(rows), len(rows[0])
    level, step, to, back = _dense_ring([x for row in rows for x in row])
    M = [[to(x) for x in row] + [level.one if i == j else () for j in range(n)]
         for i, row in enumerate(rows)]
    rank, _, _ = _bareiss(M, step, ncols)
    # row `rank` of [rows | I] is zero left of the block, so its block is a
    # syzygy; stretch the compressed variables back out: z -> z^(p^s)
    return [MvPoly(spec, m, {tuple(e * q for e in exps): c for exps, c in back(g).terms.items()})
            for g in M[rank][ncols:]]


def index_of_independence(fs) -> IndependenceResult:
    """Smallest s >= 1 at which the tuple stays independent over the
    p^s-th-power subfield, with a dependence witness at level s - 1 when
    s > 1; the search self-terminates once p^s exceeds the total degree,
    where component rank equals plain field rank."""
    fs = list(fs)
    if fs[0].spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "index of independence needs characteristic p")
    if not f_independent(fs):
        raise CasError("NOT_F_INDEPENDENT", "functions are linearly dependent over the field")
    s, cap = _full_rank_level(fs, len(fs))
    witness = (s - 1, _dependence_witness(fs, s - 1)) if s > 1 else None
    return IndependenceResult(index_s=s, dependent_over=witness, search_cap=cap)


def collection_independence_index(fs) -> int:
    """Smallest s >= 1 such that every field-independent subset of fs stays
    independent over the p^s-th-power subfield (1 when nothing binds).

    Every field basis of fs spans what fs spans over K_s, so all of them are
    K_s-independent exactly when the component rank of fs reaches the field
    rank of fs.
    """
    fs = list(fs)
    if fs[0].spec.characteristic == 0:
        raise CasError("WRONG_CHARACTERISTIC", "index of independence needs characteristic p")
    return _full_rank_level(fs, f_rank(fs))[0]
