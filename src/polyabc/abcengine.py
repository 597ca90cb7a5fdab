"""Verification engine for the sum-zero ABC inequalities.

Pipeline for one vanishing sum: partition the index set by minimal dependent
subsets (circuit search on the coefficient vectors), build one nonvanishing
generalized Wronskian per part with the guaranteed derivative step, pool the
derivative multi-indices, and read the explicit constants off the pool:

    a     largest pooled weight,
    b     total pooled weight,
    a_bar sum of the top min(k, d) - 1 pooled weights,
    sigma largest power of p at most the largest pooled component.

Inequalities carrying an O(1) term are certified at the asymptotic-slope
(degree) level, exactly, plus a sampled margin table; the reported margin is
RHS - LHS, so a final slope >= 0 certifies the bounded form.  Instances whose
functions split into several minimal vanishing subsums are processed block by
block and recombined with the largest truncation level and the smallest log
coefficient, which is the only combination the block inequalities support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import CasError
from .fields import int_log
from .hasse import exponents_divisible
from .instances import guard_poly_count
from .mvpoly import MvPoly, exact_div, poly_gcd
from .nevanlinna import PiecewiseLinear, product_counting
from .radicals import (capped_parts, coprime_base, product_decomposition, radical,
                       sigma_radical_gcd, square_free_decomposition, stable_radical_level,
                       trunc_gcd)
from .wronskian import (WronskianCertificate, _scan_rows, collection_independence_index, f_rank,
                        find_certificate)

DEFAULT_RHOS = tuple(Fraction(x) for x in (-2, -1, 0, 1, 2, 3, 5, 8))


# ---------------------------------------------------------------------------
# subset structure: vanishing subsums, circuits, and the partition of a sum

# Tuples here are built from lists: tuple() of an iterator of unknown length
# allocates a larger tuple and shrinks it, bypassing the free list of the
# final size, whose entries then pile up (up to 2000 per size) when freed;
# over a long qp_wide run that held about 1 MB more resident memory.

def _indices(mask) -> tuple:
    """The index set of a bitmask, ascending."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def _by_size(masks) -> list:
    """The index sets of ``masks`` in (size, lex) order."""
    return sorted(map(_indices, masks), key=lambda sub: (len(sub), sub))


def _subset_sums(rows, width, p) -> list:
    """The sum of every subset of ``rows``, at the index of its bitmask, as a
    tuple reduced mod p when p is nonzero."""
    sums = [(0,) * width]
    for row in rows:
        if p:
            sums += [tuple([(a + b) % p for a, b in zip(s, row)]) for s in sums]
        else:
            sums += [tuple([a + b for a, b in zip(s, row)]) for s in sums]
    return sums


def _vanishing(fs):
    """Every index set whose subsum vanishes, in (size, lex) order.

    Meet in the middle (Horowitz and Sahni) on the exact rows of
    ``_scan_rows`` in their F_p coordinates (``Ring.coords``; integers over
    Q), on which a 0/1 subsum acts linearly.  The subset sums of the first
    half of the rows are tabulated by their vector, those of the negated
    second half are looked up in that table, and a set vanishes iff its two
    halves meet.  That forms 2 * 2^(n/2) row sums, not 2^n; over F_p and
    F_p(t) the vectors are reduced mod p.
    """
    guard_poly_count(len(fs))
    spec = fs[0].spec
    rows = spec.ring.coords(_scan_rows(fs))
    width, half, p = len(rows[0]), len(rows) // 2, spec.characteristic
    first = {}
    for mask, total in enumerate(_subset_sums(rows[:half], width, p)):
        first.setdefault(total, []).append(mask)
    negated = [[-x for x in row] for row in rows[half:]]
    return _by_size(low | high << half
                    for high, total in enumerate(_subset_sums(negated, width, p))
                    for low in first.get(total, ()) if low | high)


def _circuits(fs):
    """Minimal linearly dependent index sets, in (size, lex) order.

    One depth-first walk over the independent index sets in lex order, on
    the exact rows of ``_scan_rows``, keeps the eliminated rows of the
    current set on a stack: a child set costs one reduction of its new row
    against them, a fraction-free ``_bareiss`` step per eliminated row, and
    is dependent iff that row reduces to zero.  The pivot columns need not
    ascend: every entry is still a minor of the rows taken (Sylvester's
    identity), so each division stays exact.  A circuit minus its largest
    index is independent, so every circuit is such a dependent child; a
    dependent child is a circuit iff each of its one-smaller subsets is
    independent, that is, was visited by the walk.
    """
    ring = fs[0].spec.ring
    rows = _scan_rows(fs)
    step, prev = ring.step, ring.prev
    n, cols = len(rows), range(len(rows[0]))
    free = cols  # the columns without a pivot in the current set
    independent, dependent = {0}, []
    stack = []  # (eliminated row, pivot column, divisor of its step, index, free columns after)
    j = mask = 0
    while True:
        if j == n:
            if not stack:
                break
            _, _, prev, j, _ = stack.pop()
            free = stack[-1][4] if stack else cols
            mask ^= 1 << j
            j += 1
            continue
        row = list(rows[j])
        for prow, c, d, _, rest in stack:
            step(row, prow, c, rest, d)
        c = next((k for k in free if row[k]), None)
        if c is None:
            dependent.append(mask | 1 << j)
        else:
            mask |= 1 << j
            independent.add(mask)
            free = [k for k in free if k != c]
            stack.append((row, c, prev, j, free))
            prev = row[c]
        j += 1
    return _by_size(m for m in dependent
                    if all((m ^ 1 << i) in independent for i in _indices(m)))


@dataclass
class BmPartition:
    """Partition I_0, ..., I_{u-1} with bridge sets J_l inside earlier parts,
    such that I_0 and each I_j + J_{j-1} is a minimal dependent set."""

    I_sets: list
    J_sets: list
    u: int


def bm_partition(fs, vanishing=None) -> BmPartition:
    """Greedy circuit cover of a vanishing sum with no vanishing subsum.

    Picks the (size, lex)-first circuit as I_0, then repeatedly the first
    circuit meeting both the processed and unprocessed index sets; the
    no-vanishing-subsum hypothesis guarantees such a crossing circuit exists
    at every stage.  ``vanishing`` is ``_vanishing(fs)``, walked here if not
    given.
    """
    if vanishing is None:
        vanishing = _vanishing(fs)
    n = len(fs)
    if not vanishing or len(vanishing[-1]) < n:
        raise CasError("NOT_SUM_ZERO", "the functions do not sum to zero")
    if len(vanishing) > 1:
        raise CasError("VANISHING_SUBSUM",
                       f"proper subsum over {list(vanishing[0])} vanishes; split first")
    circuits = _circuits(fs)
    if not circuits:
        raise CasError("NOT_SUM_ZERO", "no dependent subset in a vanishing sum")
    I_sets = [list(circuits[0])]
    J_sets = []
    covered = set(circuits[0])
    while len(covered) < n:
        for c in circuits:
            cs = set(c)
            inside = cs & covered
            outside = cs - covered
            if inside and outside:
                I_sets.append(sorted(outside))
                J_sets.append(sorted(inside))
                covered |= outside
                break
        else:
            raise CasError("PARTITION_FAILURE",
                           "no crossing circuit; vanishing-subsum hypothesis violated")
    return BmPartition(I_sets=I_sets, J_sets=J_sets, u=len(I_sets))


def split_vanishing_subsums(fs, vanishing=None):
    """Partition of the index set into minimal vanishing subsums: each set of
    ``vanishing`` (default ``_vanishing(fs)``) disjoint from those taken."""
    if vanishing is None:
        vanishing = _vanishing(fs)
    if not vanishing or len(vanishing[-1]) < len(fs):
        raise CasError("NOT_SUM_ZERO", "the functions do not sum to zero")
    taken = set()
    blocks = []
    for sub in vanishing:
        if taken.isdisjoint(sub):
            blocks.append(list(sub))
            taken.update(sub)
    return blocks


# ---------------------------------------------------------------------------
# constants

@dataclass
class AbcConstants:
    d: int
    c: int
    a: int
    b: int
    a_bar: int
    sigma: int | None
    k: int
    k_bar: int

    def check_invariants(self, p: int | None):
        q = -(-self.a // self.c)  # ceil(a / c)
        chain_low = self.a * q - q * (q - 1) * self.c // 2
        problems = []
        if not (1 <= self.a <= self.c * (self.d - 1)):
            problems.append(f"a = {self.a} outside [1, c(d-1)] = [1, {self.c * (self.d - 1)}]")
        if not (self.b >= chain_low >= self.a):
            problems.append(f"b = {self.b} below the step-chain bound {chain_low}")
        abar_cap = self.c * sum(self.d - i for i in range(1, self.k_bar))
        if self.k_bar >= 2 and not (self.a_bar <= abar_cap):
            problems.append(f"a_bar = {self.a_bar} above cap {abar_cap}")
        if not (self.b >= self.a_bar >= self.a >= 1):
            problems.append(f"chain b >= a_bar >= a >= 1 fails: {self.b}, {self.a_bar}, {self.a}")
        if p is not None and self.sigma is not None and not (p ** self.sigma <= self.a):
            problems.append(f"p^sigma = {p ** self.sigma} exceeds a = {self.a}")
        if problems:
            raise CasError("CONSTANT_INVARIANT", "; ".join(problems))

    def as_dict(self):
        return {"d": self.d, "c": self.c, "a": self.a, "b": self.b,
                "a_bar": self.a_bar, "sigma": self.sigma, "k": self.k, "k_bar": self.k_bar}


def detect_k(base, indices, max_k=None) -> int | None:
    """Smallest k <= max_k (default len(indices)) with every k-subset of
    indices of gcd 1: 1 + the most indices j with e[j] > 0 for one (b, e) of
    the tuple's ``coprime_base``, and at least 2; None if above max_k."""
    k = max([2] + [1 + sum(1 for j in indices if e[j]) for _, e in base])
    return k if k <= (len(indices) if max_k is None else max_k) else None


def _first_bad_subset(base, k) -> list | None:
    """The lex-first k-subset with a nonconstant gcd, or None: the least over
    the (b, e) of the ``coprime_base`` of the k smallest j with e[j] > 0."""
    supports = ([j for j, x in enumerate(e) if x] for _, e in base)
    return min((sup[:k] for sup in supports if len(sup) >= k), default=None)


@dataclass
class BlockAnalysis:
    indices: list
    all_constant: bool
    constants: AbcConstants | None = None
    partition: BmPartition | None = None
    certificates: list = field(default_factory=list)  # (label, global indices, certificate)
    wronskian_product: MvPoly | None = None


def analyze_block(fs, indices=None, k_override=None, vanishing=None, *, base) -> BlockAnalysis:
    """Partition + certificates + constants for one minimal vanishing sum.

    ``vanishing``, the vanishing index sets of all of ``fs`` when given,
    spares the partition a walk of its own over the block; ``base``, the
    ``coprime_base`` of all of ``fs``, gives k unless ``k_override`` does.
    """
    idxs = sorted(indices if indices is not None else range(len(fs)))
    sub = [fs[i] for i in idxs]
    spec = sub[0].spec
    if all(f.is_constant() for f in sub):
        return BlockAnalysis(indices=idxs, all_constant=True)
    d = f_rank(sub)
    c = _step_c(sub)
    if vanishing is not None:
        # idxs is sorted, so relabelling keeps the (size, lex) order
        pos = {i: j for j, i in enumerate(idxs)}
        vanishing = [tuple([pos[i] for i in v]) for v in vanishing if all(i in pos for i in v)]
    part = bm_partition(sub, vanishing)
    certs = []
    pool = []
    for j, I in enumerate(part.I_sets):
        if j == 0:
            pivot = min(I)
            members = [i for i in I if i != pivot]
        else:
            members = list(I)
        if not members:
            raise CasError("PARTITION_FAILURE", "empty certificate block")
        cert = find_certificate([sub[i] for i in members], c)
        certs.append((f"W{j}", [idxs[i] for i in members], cert))
        pool.extend(cert.gammas[1:])
    pool.sort(key=lambda g: (sum(g), g))
    if not pool:
        raise CasError("CONSTANT_INVARIANT",
                       "empty multi-index pool; hypotheses exclude this")
    a = sum(pool[-1])
    b = sum(sum(g) for g in pool)
    # None: only the full set has gcd 1 (guaranteed for blocks)
    k = k_override if k_override is not None else detect_k(base, idxs) or len(idxs)
    k_bar = min(k, d)
    top = pool[::-1][:max(k_bar - 1, 0)]
    a_bar = sum(sum(g) for g in top)
    p = spec.characteristic
    sigma = int_log(p, max(max(g) for g in pool)) if p else None
    consts = AbcConstants(d=d, c=c, a=a, b=b, a_bar=a_bar, sigma=sigma, k=k, k_bar=k_bar)
    consts.check_invariants(p or None)
    wprod = MvPoly.one(spec, sub[0].m)
    for _, _, cert in certs:
        wprod = wprod * cert.determinant
    return BlockAnalysis(indices=idxs, all_constant=False, constants=consts,
                         partition=part, certificates=certs, wronskian_product=wprod)


# ---------------------------------------------------------------------------
# reporting structures

@dataclass
class AbcReport:
    instance_id: str
    check: str
    hypotheses: list = field(default_factory=list)
    verdict: str = "HOLDS"
    constants: dict | None = None
    blocks: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    margin_tables: dict = field(default_factory=dict)
    degree_checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add_hypothesis(self, name: str, ok: bool, witness: str = ""):
        self.hypotheses.append({"name": name, "ok": bool(ok), "witness": witness})
        if not ok:
            self.verdict = "HYPOTHESIS_VIOLATED"
        return ok

    def add_degree_check(self, name: str, lhs: int, rhs: int):
        ok = lhs <= rhs
        self.degree_checks[name] = {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "ok": ok}
        if not ok:
            self.verdict = "INEQUALITY_FAILED"
        return ok

    def add_margin(self, name: str, margin: PiecewiseLinear, rhos, primary=False):
        samples = [[_frac_str(r), _frac_str(margin.value(r))] for r in rhos]
        self.margin_tables[name] = {"samples": samples,
                                    "final_slope": _frac_str(margin.final_slope)}
        if primary:
            self.margins = samples

    @property
    def exit_code(self) -> int:
        if self.verdict == "HOLDS":
            return 0
        if self.verdict == "HYPOTHESIS_VIOLATED":
            return 2
        return 1

    def as_dict(self) -> dict:
        return {
            "id": self.instance_id,
            "check": self.check,
            "hypotheses": self.hypotheses,
            "constants": self.constants,
            "certificates": self.certificates,
            "margins": self.margins,
            "margin_tables": self.margin_tables,
            "degree_checks": self.degree_checks,
            "blocks": self.blocks,
            "notes": self.notes,
            "verdict": self.verdict,
        }


def _frac_str(q) -> str:
    return str(Fraction(q))  # "n" or "n/d"


def _cert_dict(label, indices, cert: WronskianCertificate):
    return {"block": label,
            "function_indices": list(indices),
            "gammas": [list(g) for g in cert.gammas],
            "step": cert.step_c,
            "determinant": str(cert.determinant)}


def _max_deg(fs) -> int:
    return max(f.total_degree() for f in fs)


def _degree(powers) -> int:
    """The total degree of prod a^e over the pairs (e, a)."""
    return sum(e * a.total_degree() for e, a in powers)


def _max_log_profile(fs) -> PiecewiseLinear:
    """rho -> max_j log|f_j|_{p^rho}: one envelope over the terms of every f_j."""
    return PiecewiseLinear.upper_envelope(
        (sum(e), c.log_abs()) for f in fs for e, c in f.terms.items())


# ---------------------------------------------------------------------------
# the basic three-function theorem

def verify_basic_abc(f0: MvPoly, f1: MvPoly, rhos=None, instance_id="") -> AbcReport:
    """Degree-level and sampled-margin check of the three-function inequality."""
    rhos = list(rhos) if rhos else list(DEFAULT_RHOS)
    rep = AbcReport(instance_id=instance_id, check="basic")
    spec = f0.spec
    f2 = f0 + f1
    rep.add_hypothesis("f0_nonzero", not f0.is_zero())
    rep.add_hypothesis("f1_nonzero", not f1.is_zero())
    if rep.verdict != "HOLDS":
        return rep
    g = poly_gcd(f0, f1)
    if not rep.add_hypothesis("coprime", g.is_constant(), witness=str(g)):
        return rep
    rep.add_hypothesis("sum_nonzero", not f2.is_zero())
    if rep.verdict != "HOLDS":
        return rep
    if spec.characteristic == 0:
        ok = not (f0.is_constant() and f1.is_constant())
        rep.add_hypothesis("one_nonconstant", ok)
    else:
        # p-th powers over the coefficient closure: support divisible by p
        ok = not (exponents_divisible(f0, 1) and exponents_divisible(f1, 1))
        rep.add_hypothesis("one_not_pth_power", ok)
    if rep.verdict != "HOLDS":
        return rep
    # f -> f / gcd(f, grad f) is multiplicative over the pairwise coprime
    # f0, f1, f2, so R(f0 f1 f2) = R(f0) R(f1) R(f2), whose degree and norm
    # profile are read off the three graded-lex monic radicals unmultiplied
    fs = [f0, f1, f2]
    R = [(1, radical(f)) for f in fs]
    rep.add_degree_check("basic", _max_deg(fs), _degree(R) - 1)
    margin = product_counting(R).profile + PiecewiseLinear.line(-1, 0) - _max_log_profile(fs)
    rep.add_margin("basic", margin, rhos, primary=True)
    rep.notes.append(f"radical_degree={_degree(R)}")
    return rep


# ---------------------------------------------------------------------------
# shared hypothesis checks for the sum-zero theorems

def _common_gates(rep: AbcReport, fs) -> bool:
    guard_poly_count(len(fs))
    rep.add_hypothesis("size", len(fs) >= 3,
                       witness=f"{len(fs)} functions")
    rep.add_hypothesis("sum_zero", sum(fs[1:], fs[0]).is_zero())
    rep.add_hypothesis("none_zero", not any(f.is_zero() for f in fs))
    if rep.verdict != "HOLDS":
        return False
    rep.add_hypothesis("not_all_constant", not all(f.is_constant() for f in fs))
    return rep.verdict == "HOLDS"


def _subsum_gcd_condition(base, vanishing):
    """The weak coprimality condition: every vanishing subsum has gcd 1.  Its
    gcd is the graded-lex monic product of b^min(e[j] for j in it) over the
    (b, e) of the ``coprime_base`` with every e[j] > 0."""
    for sub in vanishing:
        common = [b ** min(e[j] for j in sub) for b, e in base if all(e[j] for j in sub)]
        if len(sub) >= 2 and common:
            return False, f"subsum {list(sub)} vanishes with gcd {reduce(mul, common)}"
    return True, ""


def _analyze_blocks(rep: AbcReport, fs, blocks, vanishing, base):
    live = []
    for block in blocks:
        ana = analyze_block(fs, block, vanishing=vanishing, base=base)
        if ana.all_constant:
            rep.blocks.append({"indices": ana.indices, "all_constant": True})
            continue
        live.append(ana)
        rep.blocks.append({"indices": ana.indices, "all_constant": False,
                           "constants": ana.constants.as_dict()})
        for label, members, cert in ana.certificates:
            rep.certificates.append(_cert_dict(label, members, cert))
    if not live:
        raise CasError("CONSTANT_INVARIANT", "every block is constant yet not all functions are")
    return live


def _aggregate_constants(live) -> dict:
    agg = {
        "d": None, "c": None,
        "a": max(a.constants.a for a in live),
        "b": min(a.constants.b for a in live),
        "a_bar": max(a.constants.a_bar for a in live),
        "sigma": None,
        "k": None, "k_bar": None,
    }
    sigmas = [a.constants.sigma for a in live if a.constants.sigma is not None]
    if sigmas:
        agg["sigma"] = max(sigmas)
    return agg


def _divisibility_ledger(rep: AbcReport, fs, live, g_for):
    """Assert F_B divides (product of block Wronskians) * (product of G_j).

    G_j divides f_j, so that holds iff W is divisible by the product of the
    h_j = f_j / G_j: W is divided by each h_j in turn, and no product is
    formed.  Each division is exact or raises.
    """
    for ana in live:
        w = ana.wronskian_product
        try:
            for i in ana.indices:
                w = exact_div(w, exact_div(fs[i], g_for[i]))
        except CasError as exc:
            raise CasError("LEDGER_FAILURE",
                           f"block {ana.indices}: F does not divide W*G") from exc
    rep.notes.append("divisibility_ledger=ok")


# ---------------------------------------------------------------------------

def verify_abc_first(fs, rhos=None, instance_id="") -> AbcReport:
    """Sum form: max log|f_j| <= sum_j N_{G_j} - b log r + O(1)."""
    rhos = list(rhos) if rhos else list(DEFAULT_RHOS)
    rep = AbcReport(instance_id=instance_id, check="first")
    fs = list(fs)
    if not _common_gates(rep, fs):
        return rep
    vanishing, base = _vanishing(fs), coprime_base(fs)
    ok, witness = _subsum_gcd_condition(base, vanishing)
    if not rep.add_hypothesis("vanishing_subsum_gcd", ok, witness=witness):
        return rep
    blocks = split_vanishing_subsums(fs, vanishing)
    live = _analyze_blocks(rep, fs, blocks, vanishing, base)
    spec = fs[0].spec
    charp = spec.characteristic > 0

    block_of = {i: ana for ana in live for i in ana.indices}

    # the G_j are formed for the ledger; the truncated gcds only counted
    g_charp = {}
    trunc_deg = 0
    for i, f in enumerate(fs):
        ana = block_of.get(i)
        if ana is None or f.is_constant():
            g_charp[i] = MvPoly.one(spec, f.m)
            continue
        consts = ana.constants
        parts = square_free_decomposition(f, stable_radical_level(f))
        g_charp[i] = (sigma_radical_gcd(f, consts.a, consts.sigma, parts) if charp
                      else trunc_gcd(f, consts.a, parts))
        trunc_deg += _degree(capped_parts(f, parts, consts.a))

    b_star = min(a.constants.b for a in live)
    lhs_deg = _max_deg(fs)
    rhs_charp = sum(g.total_degree() for g in g_charp.values()) - b_star
    rep.notes.append("g_degrees=" + ",".join(
        str(g_charp[i].total_degree()) for i in range(len(fs))))
    rep.add_degree_check("sum_charp" if charp else "sum", lhs_deg, rhs_charp)
    if charp:
        rep.add_degree_check("sum_truncated", lhs_deg, trunc_deg - b_star)

    total_n = product_counting([(1, g) for g in g_charp.values()]).integrated
    margin = total_n + PiecewiseLinear.line(-b_star, 0) - _max_log_profile(fs)
    rep.add_margin("sum_margin", margin, rhos, primary=True)

    _divisibility_ledger(rep, fs, live, g_charp)
    if len(blocks) > 1:
        agg = _aggregate_constants(live)
        rep.notes.append(
            f"multi_block: max a_bar={agg['a_bar']} min b={agg['b']} reported separately")
        rep.constants = agg if len(live) > 1 else live[0].constants.as_dict()
    else:
        rep.constants = live[0].constants.as_dict()
    return rep


def verify_abc_second(fs, k=None, rhos=None, instance_id="") -> AbcReport:
    """Product form: max log|f_j| <= N^(a_bar)_F - b log r + O(1), plus the
    squarefree corollary and, in characteristic 0 at k = 3, the
    (2n-3)(deg R(F) - 1) bound."""
    rhos = list(rhos) if rhos else list(DEFAULT_RHOS)
    rep = AbcReport(instance_id=instance_id, check="second")
    fs = list(fs)
    if not _common_gates(rep, fs):
        return rep
    spec = fs[0].spec
    n = len(fs) - 1
    base = coprime_base(fs)
    if k is None:
        k = detect_k(base, range(len(fs)), n)
        if k is None:
            rep.add_hypothesis("k_subset_gcd", False,
                               witness="no level k <= n has all k-subset gcds equal to 1")
            return rep
        rep.notes.append(f"k_autodetected={k}")
    else:
        if not 2 <= k <= n:
            rep.add_hypothesis("k_range", False, witness=f"k={k} outside [2, {n}]")
            return rep
        bad = _first_bad_subset(base, k)
        if not rep.add_hypothesis("k_subset_gcd", bad is None,
                                  witness=f"gcd over {bad} nontrivial" if bad else ""):
            return rep
    d = f_rank(fs)
    k_bar = min(k, d)
    max_norm = _max_log_profile(fs)
    vanishing = _vanishing(fs)
    blocks = split_vanishing_subsums(fs, vanishing)
    multi = len(blocks) > 1
    # read by the squarefree section (several blocks) and the triple bound
    gcd_cond = _subsum_gcd_condition(base, vanishing)
    if k_bar > 2:
        if not rep.add_hypothesis("no_vanishing_subsum", not multi,
                                  witness=f"blocks {blocks}" if multi else ""):
            _abcsf_section(rep, fs, max_norm, None, d, k_bar, rhos, blocks, gcd_cond, base)
            return rep

    if not multi:
        ana = analyze_block(fs, k_override=k, vanishing=vanishing, base=base)
        c_global = ana.constants.c
        rep.blocks.append({"indices": ana.indices, "all_constant": False,
                           "constants": ana.constants.as_dict()})
        for label, members, cert in ana.certificates:
            rep.certificates.append(_cert_dict(label, members, cert))
        live = [ana]
        a_bar = ana.constants.a_bar
        b_star = ana.constants.b
        rep.constants = ana.constants.as_dict()
    else:
        c_global = _step_c(fs)
        # every non-constant block must support a coprimality level of its own
        for block in blocks:
            sub = [fs[i] for i in block]
            if all(f.is_constant() for f in sub):
                continue
            if len(block) < 3 or detect_k(base, block, len(block) - 1) is None:
                rep.add_hypothesis(
                    "block_coprimality", False,
                    witness=f"block {block} admits no internal coprimality level")
                _abcsf_section(rep, fs, max_norm, c_global, d, k_bar, rhos, blocks, gcd_cond,
                               base)
                return rep
        live = _analyze_blocks(rep, fs, blocks, vanishing, base)
        a_bar = max(a.constants.a_bar for a in live)
        b_star = min(a.constants.b for a in live)
        agg = _aggregate_constants(live)
        agg.update({"d": d, "c": c_global, "k": k, "k_bar": k_bar})
        rep.constants = agg
        rep.notes.append(
            f"multi_block: per-index constants max a_bar={a_bar}, min b={b_star}; "
            "no relation between them is asserted")

    # F = prod f_j is never formed: its parts are read off the coprime base,
    # and the objects of F off them unmultiplied; fs[0] fixes the ring
    parts = product_decomposition(base)
    G = capped_parts(fs[0], parts, a_bar)
    lhs_deg = _max_deg(fs)
    rep.notes.append(f"product_truncation_degree={_degree(G)}")
    rep.add_degree_check("product", lhs_deg, _degree(G) - b_star)
    margin = product_counting(G).integrated + PiecewiseLinear.line(-b_star, 0) - max_norm
    rep.add_margin("product_margin", margin, rhos, primary=True)
    _abcsf_section(rep, fs, max_norm, c_global, d, k_bar, rhos, blocks, gcd_cond, base, parts)
    if spec.characteristic == 0 and k == 3:
        _bb_section(rep, fs, _degree(capped_parts(fs[0], parts, 1)), gcd_cond)  # R(F) = S(F)
    return rep


def _step_c(fs) -> int:
    """The guaranteed derivative step c for the whole tuple: 1 in
    characteristic 0, else p^(s-1) for its collection independence index s."""
    spec = fs[0].spec
    return 1 if spec.characteristic == 0 else spec.p ** (collection_independence_index(fs) - 1)


def _abcsf_section(rep: AbcReport, fs, max_norm, c_global, d, k_bar, rhos, blocks, gcd_cond,
                   base, parts=None):
    """Squarefree-part corollary: max log|f_j| <= A (N^(1)_F - log r) + O(1),
    with max_norm the profile of max log|f_j|, parts the square-free
    decomposition of F = prod f_j, read here off the f_j's coprime base if
    not given, and gcd_cond the subsum gcd condition, read when there are
    several blocks."""
    if c_global is None:
        c_global = _step_c(fs)
    if len(blocks) > 1:
        ok, witness = gcd_cond
        if not ok:
            rep.notes.append(f"squarefree_corollary_skipped: {witness}")
            return
    big_a = c_global * sum(d - i for i in range(1, k_bar))
    if big_a < 1:
        rep.notes.append("squarefree_corollary_skipped: empty truncation bound")
        return
    if parts is None:
        parts = product_decomposition(base)
    S = capped_parts(fs[0], parts, 1)
    lhs_deg = _max_deg(fs)
    rep.add_degree_check("squarefree_corollary", lhs_deg, big_a * (_degree(S) - 1))
    margin = ((product_counting(S).integrated + PiecewiseLinear.line(-1, 0)).scale(big_a)
              - max_norm)
    rep.add_margin("squarefree_margin", margin, rhos)
    rep.notes.append(f"squarefree_corollary_bound={big_a}")


def _bb_section(rep: AbcReport, fs, deg_R, gcd_cond):
    """Characteristic-0 triple-gcd bound: max deg <= (2n-3)(deg R(F) - 1),
    with deg_R the degree of the radical of F = prod f_j and gcd_cond the
    subsum gcd condition."""
    ok, witness = gcd_cond
    if not ok:
        rep.notes.append(f"triple_bound_skipped: {witness}")
        return
    n = len(fs) - 1
    rep.add_degree_check("triple_gcd_bound", _max_deg(fs),
                         (2 * n - 3) * (deg_R - 1))


def verify_corollaries(fs, rhos=None, instance_id="") -> AbcReport:
    """Characteristic-0 corollaries: the exact degree bound through the
    truncated radical degrees, and the full sweep over truncation levels A."""
    rhos = list(rhos) if rhos else list(DEFAULT_RHOS)
    rep = AbcReport(instance_id=instance_id, check="corollaries")
    fs = list(fs)
    if fs and fs[0].spec.characteristic != 0:
        raise CasError("WRONG_CHARACTERISTIC", "these corollaries are characteristic-0 statements")
    if not _common_gates(rep, fs):
        return rep
    vanishing, base = _vanishing(fs), coprime_base(fs)
    ok, witness = _subsum_gcd_condition(base, vanishing)
    if not rep.add_hypothesis("vanishing_subsum_gcd", ok, witness=witness):
        return rep
    blocks = split_vanishing_subsums(fs, vanishing)
    live = _analyze_blocks(rep, fs, blocks, vanishing, base)
    spec = fs[0].spec
    block_of = {i: ana for ana in live for i in ana.indices}

    # exact bound via gcd(f_j, R(f_j)^a), with a taken from the block that
    # realizes the maximal degree; in characteristic 0, R(f_j) is the
    # square-free part, and one decomposition of f_j gives it and every
    # truncation, none of them formed
    parts = [square_free_decomposition(f, 0) for f in fs]
    lhs_deg = _max_deg(fs)
    j0 = max(range(len(fs)), key=lambda i: fs[i].total_degree())
    a0 = block_of[j0].constants.a
    r_values = [_degree(capped_parts(f, ps, a0)) for f, ps in zip(fs, parts)]
    rep.add_degree_check("radical_truncation_exact", lhs_deg,
                         sum(r_values) - a0 * (a0 + 1) // 2)
    rep.notes.append(f"r_a_degrees={r_values} a={a0}")
    for ana in live:
        a_b = ana.constants.a
        block_lhs = max(fs[i].total_degree() for i in ana.indices)
        block_rhs = sum(_degree(capped_parts(fs[i], parts[i], a_b))
                        for i in ana.indices) - a_b * (a_b + 1) // 2
        rep.add_degree_check(f"radical_truncation_block_{ana.indices[0]}",
                             block_lhs, block_rhs)

    # sweep over admissible truncation levels A in [d, n - C]
    d = f_rank(fs)
    n = len(fs) - 1
    n_const = sum(1 for f in fs if f.is_constant())
    radical_deg = sum(_degree(capped_parts(f, ps, 1)) for f, ps in zip(fs, parts))
    levels = range(d, n - n_const + 1)
    for A in levels:
        rep.add_degree_check(f"level_sweep_A{A}", lhs_deg, A * radical_deg - A * (A + 1) // 2)
    if not levels:
        rep.notes.append(f"level_sweep_skipped: empty range [d, n-C] = [{d}, {n - n_const}]")
    else:
        total_n1 = product_counting([(1, a) for ps in parts for _, a in ps]).integrated
        A = d
        margin = ((total_n1 + PiecewiseLinear.line(Fraction(-(A + 1), 2), 0)).scale(A)
                  - _max_log_profile(fs))
        rep.add_margin("level_sweep_margin", margin, rhos, primary=True)
    if len(live) > 1:
        rep.constants = _aggregate_constants(live)
    else:
        rep.constants = live[0].constants.as_dict()
    return rep
