"""Independent checks of polyabc machine reports.

Everything here is recomputed with sympy from the instance document (and,
for planted products, from the planted factors); nothing imports polyabc.
Over F_p(t) every polynomial is cleared of denominators and t becomes one
more variable over GF(p): f = N / D with N in GF(p)[z, t] and D in GF(p)[t].
Being constant, a gcd or a degree always refers to the z variables only.

``check_op`` returns (failed, problems): ``failed`` marks an operation that
did not complete (an error document, or INEQUALITY_FAILED), ``problems``
lists every way the output disagrees with the recomputation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import sympy
from sympy import GF, QQ, Poly

EXIT_OF_VERDICT = {"HOLDS": 0, "HYPOTHESIS_VIOLATED": 2, "INEQUALITY_FAILED": 1}
# margin table -> degree check whose slack is the margin's final slope
MARGIN_OF_CHECK = {"basic": "basic", "sum_margin": ("sum", "sum_charp"),
                   "product_margin": "product", "squarefree_margin": "squarefree_corollary"}


class Ring:
    """GF(p)[z] / QQ[z], or GF(p)[z, t] for F_p(t) instances."""

    def __init__(self, kind: str, p: int, m: int):
        self.p, self.m = p, m
        self.charp = kind != "rational_p_adic"
        self.ratfunc = kind == "ratfunc_t_adic"
        self.domain = GF(p) if self.charp else QQ
        self.t = sympy.Symbol("t")
        self.gens = tuple(sympy.symbols(f"z1:{m + 1}")) + ((self.t,) if self.ratfunc else ())
        self._coeffs = {}

    def poly(self, terms: dict) -> Poly:
        return Poly.from_dict(terms or {(0,) * len(self.gens): 0}, self.gens, domain=self.domain)

    def one(self) -> Poly:
        return self.poly({(0,) * len(self.gens): 1})

    def _ratfunc_coeff(self, text: str):
        if text not in self._coeffs:
            expr = sympy.sympify(text.replace("^", "**"), locals={"t": self.t})
            num, den = sympy.fraction(sympy.together(expr))
            self._coeffs[text] = (Poly(num, self.t, domain=self.domain),
                                  Poly(den, self.t, domain=self.domain))
        return self._coeffs[text]

    def parse_terms(self, pairs):
        """[(exponents, coefficient text)] -> (N, D) with f = N / D."""
        if not self.ratfunc:
            conv = (lambda s: int(s) % self.p) if self.charp else Fraction
            terms = {}
            for exps, cs in pairs:
                key = tuple(int(e) for e in exps)
                terms[key] = terms.get(key, 0) + conv(cs)
            return self.poly({k: (QQ(c.numerator, c.denominator) if isinstance(c, Fraction) else c)
                              for k, c in terms.items()}), self.one()
        parsed = [(tuple(int(e) for e in exps), *self._ratfunc_coeff(cs)) for exps, cs in pairs]
        den = Poly(1, self.t, domain=self.domain)
        for _, _, d in parsed:
            den = den.lcm(d)
        terms = {}
        for exps, num, d in parsed:
            for (a,), c in (num * den.exquo(d)).as_dict().items():
                key = exps + (a,)
                terms[key] = terms.get(key, 0) + int(c)
        lifted = Poly(den.as_expr(), *self.gens, domain=self.domain)
        return self.poly(terms), lifted

    def parse_text(self, text: str):
        """A polynomial as polyabc prints it: 'c * z1^2 * z2 + ...'."""
        if text.strip() == "0":
            return self.poly({}), self.one()
        pairs = []
        for term in _split_top(text, " + "):
            factors = _split_top(term, " * ")
            cs = factors[0]
            if cs.startswith("(") and cs.endswith(")"):
                cs = cs[1:-1]
            exps = [0] * self.m
            for fac in factors[1:]:
                var, _, e = fac.partition("^")
                exps[int(var[1:]) - 1] += int(e) if e else 1
            pairs.append((exps, cs))
        return self.parse_terms(pairs)

    def zdeg(self, f: Poly) -> int:
        """Total degree in the z variables; -1 for zero."""
        if f.is_zero:
            return -1
        return max(sum(mono[:self.m]) for mono in f.monoms())

    def hasse(self, f: Poly, gamma) -> Poly:
        out = {}
        for mono, c in f.as_dict().items():
            if any(a < g for a, g in zip(mono, gamma)):
                continue
            mult = math.prod(math.comb(a, g) for a, g in zip(mono, gamma))
            key = tuple(a - g for a, g in zip(mono, gamma)) + tuple(mono[self.m:])
            out[key] = out.get(key, 0) + c * mult
        return self.poly(out)


def _split_top(text: str, sep: str):
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def bareiss_det(ring: Ring, rows) -> Poly:
    M = [list(r) for r in rows]
    n, sign, prev = len(M), 1, ring.one()
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not M[i][k].is_zero), None)
        if piv is None:
            return ring.poly({})
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]).exquo(prev)
        prev = M[k][k]
    return M[n - 1][n - 1] if sign == 1 else -M[n - 1][n - 1]


class Functions:
    """The functions of one instance document, with the recomputed facts."""

    def __init__(self, doc: dict):
        fdoc = doc["field"]
        self.ring = Ring(fdoc["kind"], int(fdoc["p"]), len(doc["vars"]))
        self.fs = [self.ring.parse_terms(pd) for pd in doc["polys"]]  # (N, D)
        r = self.ring
        common = r.one()
        for _, d in self.fs:
            common = common.lcm(d)
        # numerators over one common denominator: subset sums are plain sums
        self.num = [n * common.exquo(d) for n, d in self.fs]
        self.deg = [r.zdeg(n) for n, _ in self.fs]
        self._gcd_const = {}
        self._zero_masks = self._vanishing_masks()

    def _vanishing_masks(self) -> set:
        """Bit masks of every index subset whose sum is zero."""
        dicts = [f.as_dict() for f in self.num]
        monos = sorted({k for d in dicts for k in d})
        conv = ((lambda c: int(c) % self.ring.p) if self.ring.charp
                else (lambda c: Fraction(int(c.p), int(c.q))))
        vecs = [[conv(d[k]) if k in d else 0 for k in monos] for d in dicts]
        sums, zero = [[0] * len(monos)], {0}
        for mask in range(1, 1 << len(vecs)):
            low = (mask & -mask).bit_length() - 1
            acc = [a + b for a, b in zip(sums[mask & (mask - 1)], vecs[low])]
            if self.ring.charp:
                acc = [a % self.ring.p for a in acc]
            sums.append(acc)
            if not any(acc):
                zero.add(mask)
        return zero

    def is_zero(self, i) -> bool:
        return self.num[i].is_zero

    def is_const(self, i) -> bool:
        return self.deg[i] <= 0

    def sum_zero(self, idxs) -> bool:
        return sum(1 << i for i in set(idxs)) in self._zero_masks

    def gcd_const(self, idxs) -> bool:
        idxs = tuple(idxs)
        if idxs not in self._gcd_const:
            g = self.fs[idxs[0]][0]
            for i in idxs[1:]:
                g = sympy.gcd(g, self.fs[i][0])
                if self.ring.zdeg(g) <= 0:
                    break
            self._gcd_const[idxs] = self.ring.zdeg(g) <= 0
        return self._gcd_const[idxs]

    def vanishing(self, idxs, min_size=1, max_size=None):
        """Index subsets with zero sum, by size and then lexicographically."""
        max_size = len(idxs) if max_size is None else max_size
        for size in range(min_size, max_size + 1):
            for sub in combinations(sorted(idxs), size):
                if self.sum_zero(sub):
                    yield sub

    def detect_k(self, idxs, max_k=None):
        hi = len(idxs) if max_k is None else max_k
        for k in range(2, hi + 1):
            if all(self.gcd_const(sub) for sub in combinations(sorted(idxs), k)):
                return k
        return None

    def blocks(self):
        remaining, out = list(range(len(self.fs))), []
        while remaining:
            found = next(self.vanishing(remaining), None)
            if found is None:
                return None
            out.append(list(found))
            remaining = [i for i in remaining if i not in found]
        return out


# ---------------------------------------------------------------------------
# sum-zero and three-function reports

def _expected_gate(tp: Functions, name: str, report: dict):
    n_all = len(tp.fs)
    everything = range(n_all)
    if name == "size":
        return n_all >= 3
    if name == "sum_zero":
        return tp.sum_zero(everything)
    if name == "none_zero":
        return not any(tp.is_zero(i) for i in everything)
    if name == "not_all_constant":
        return not all(tp.is_const(i) for i in everything)
    if name == "vanishing_subsum_gcd":
        return all(tp.gcd_const(sub) for sub in tp.vanishing(everything, min_size=2))
    if name == "k_subset_gcd":
        k = tp.detect_k(everything)
        ok = k is not None and k <= n_all - 1
        if ok and f"k_autodetected={k}" not in report["notes"]:
            raise ValueError(f"notes lack k_autodetected={k}")
        return ok
    if name == "no_vanishing_subsum":
        return next(tp.vanishing(everything, max_size=n_all - 1), None) is None
    if name == "block_coprimality":
        for block in tp.blocks():
            if all(tp.is_const(i) for i in block):
                continue
            if len(block) < 3 or tp.detect_k(block, max_k=len(block) - 1) is None:
                return False
        return True
    if name in ("f0_nonzero", "f1_nonzero"):
        return not tp.is_zero(int(name[1]))
    if name == "coprime":
        return tp.gcd_const((0, 1))
    if name == "sum_nonzero":
        return not tp.sum_zero((0, 1))
    if name == "one_nonconstant":
        return not (tp.is_const(0) and tp.is_const(1))
    if name == "one_not_pth_power":
        p, m = tp.ring.p, tp.ring.m
        return not all(e % p == 0 for i in (0, 1) for mono in tp.num[i].monoms()
                       for e in mono[:m])
    raise ValueError(f"unknown hypothesis {name!r}")


def _check_certificate(tp: Functions, cert: dict, problems: list):
    r = tp.ring
    idxs, gammas, step = cert["function_indices"], cert["gammas"], cert["step"]
    label = f"certificate {cert['block']} {idxs}"
    if len(gammas) != len(idxs) or not gammas:
        problems.append(f"{label}: {len(gammas)} indices for {len(idxs)} functions")
        return
    if any(gammas[0]):
        problems.append(f"{label}: first index {gammas[0]} is not 0")
    for prev, cur in zip(gammas, gammas[1:]):
        if sum(cur) > sum(prev) + step:
            problems.append(f"{label}: step {prev} -> {cur} exceeds {step}")
    det = bareiss_det(r, [[r.hasse(tp.fs[j][0], g) for j in idxs] for g in gammas])
    if det.is_zero:
        problems.append(f"{label}: recomputed determinant is zero")
    num, den = r.parse_text(cert["determinant"])
    scale = r.one()
    for j in idxs:
        scale = scale * tp.fs[j][1]
    # det(N_j columns) = prod D_j * det(f_j columns)
    if num * scale != den * det:
        problems.append(f"{label}: reported determinant differs from the recomputed one")


def _check_degrees(tp: Functions, report: dict, problems: list):
    if report["check"] == "basic":   # f0, f1 and f2 = f0 + f1
        lhs_all = max(tp.deg[0], tp.deg[1], tp.ring.zdeg(tp.num[0] + tp.num[1]))
    else:
        lhs_all = max(tp.deg)
    block_lhs = {b["indices"][0]: max(tp.deg[i] for i in b["indices"]) for b in report["blocks"]}
    for name, dc in report["degree_checks"].items():
        if name.startswith("radical_truncation_block_"):
            want = block_lhs.get(int(name.rsplit("_", 1)[1]))
        else:
            want = lhs_all
        if dc["lhs"] != want:
            problems.append(f"degree check {name}: lhs {dc['lhs']} != max degree {want}")
        if dc["slack"] != dc["rhs"] - dc["lhs"]:
            problems.append(f"degree check {name}: slack {dc['slack']} != rhs - lhs")
        if dc["ok"] != (dc["slack"] >= 0):
            problems.append(f"degree check {name}: ok {dc['ok']} with slack {dc['slack']}")
    sweeps = sorted((int(k[len("level_sweep_A"):]), k) for k in report["degree_checks"]
                    if k.startswith("level_sweep_A"))
    for table, margin in report["margin_tables"].items():
        if table == "level_sweep_margin":
            names = (sweeps[0][1],) if sweeps else ()
        else:
            names = MARGIN_OF_CHECK.get(table, ())
            names = (names,) if isinstance(names, str) else names
        dc = next((report["degree_checks"][k] for k in names if k in report["degree_checks"]), None)
        if dc is None:
            problems.append(f"margin {table}: no matching degree check")
        elif Fraction(margin["final_slope"]) != dc["slack"]:
            problems.append(f"margin {table}: final slope {margin['final_slope']} "
                            f"!= slack {dc['slack']}")


def check_abc_report(doc: dict, report: dict, code: int) -> list:
    problems = []
    tp = Functions(doc)
    hyp_ok = True
    for hyp in report["hypotheses"]:
        try:
            want = _expected_gate(tp, hyp["name"], report)
        except ValueError as exc:
            problems.append(f"hypothesis {hyp['name']}: {exc}")
            continue
        if hyp["ok"] != want:
            problems.append(f"hypothesis {hyp['name']}: reported {hyp['ok']}, recomputed {want}")
        hyp_ok = hyp_ok and hyp["ok"]
    for cert in report["certificates"]:
        _check_certificate(tp, cert, problems)
    _check_degrees(tp, report, problems)
    deg_ok = all(dc["ok"] for dc in report["degree_checks"].values())
    verdict = "INEQUALITY_FAILED" if not deg_ok else ("HOLDS" if hyp_ok else "HYPOTHESIS_VIOLATED")
    if report["verdict"] != verdict:
        problems.append(f"verdict {report['verdict']}, expected {verdict}")
    if code != EXIT_OF_VERDICT.get(report["verdict"]):
        problems.append(f"exit code {code} with verdict {report['verdict']}")
    return problems


# ---------------------------------------------------------------------------
# planted products

def check_planted(doc: dict, report: dict, planted: dict, command: str) -> list:
    problems = []
    r = Ring(doc["field"]["kind"], int(doc["field"]["p"]), len(doc["vars"]))
    p, exps = planted["p"], planted["exponents"]
    factors = [r.poly({tuple(k): c for k, c in fac}) for fac in planted["factors"]]
    for P in factors:
        if r.m == 1 and not P.is_irreducible:
            problems.append(f"planted factor {P.as_expr()} is reducible")
    f, _ = r.parse_terms(doc["polys"][0])
    prod = r.one()
    for P, e in zip(factors, exps):
        prod = prod * P ** e
    if f != prod:
        problems.append("instance polynomial is not the planted product")
    deg_f = r.zdeg(f)
    (entry,) = report["entries"]

    def same(text, idxs):
        want = r.one()
        for i in idxs:
            want = want * factors[i]
        got, _ = r.parse_text(text)
        return not got.is_zero and got.monic() == want.monic()

    if command == "sqfree":
        if not same(entry["square_free_part"], range(len(factors))):
            problems.append("square-free part is not the product of the planted factors")
        terminal = next(s for s in range(deg_f + 1) if p ** (s + 1) > deg_f)
        if entry["terminal_level"] != terminal:
            problems.append(f"terminal level {entry['terminal_level']}, expected {terminal}")
        if [s for s, _ in entry["chain"]] != list(range(terminal + 1)):
            problems.append(f"chain levels {[s for s, _ in entry['chain']]}")
        for s, text in entry["chain"]:
            keep = [i for i, e in enumerate(exps) if e % p ** (s + 1)]
            if not same(text, keep):
                problems.append(f"chain level {s} does not hold exactly the factors "
                                f"with p^{s + 1} not dividing the multiplicity")
        if entry.get("oracle_squarefree", True) is not True:
            problems.append("oracle_squarefree is false")
    else:
        ell = planted["ell"]
        want = sum(min(ell, e) * r.zdeg(P) for P, e in zip(factors, exps))
        got = Fraction(entry["truncated"]["integrated"]["final_slope"])
        if got != want:
            problems.append(f"truncated counting final slope {got}, expected {want}")
        if Fraction(entry["counting"]["integrated"]["final_slope"]) != deg_f:
            problems.append("counting final slope differs from deg f")
    return problems


# ---------------------------------------------------------------------------

def check_op(op: dict, doc_text: str, stdout: str, code: int):
    """(failed, problems) for one operation's output."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return True, [f"output is not one JSON document (exit {code})"]
    if "error" in report:
        if code != 1:
            return True, [f"error document with exit code {code}"]
        if report["error"] != op.get("expect_error"):
            return True, [f"unexpected error {report['error']}: {report.get('message', '')}"]
        return True, []
    doc = json.loads(doc_text)
    try:
        if op["planted"]:
            problems = check_planted(doc, report, op["planted"], op["argv"][0])
            if code != 0:
                problems.append(f"exit code {code}")
            return False, problems
        problems = check_abc_report(doc, report, code)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return code == 1, [f"malformed report: {type(exc).__name__}: {exc}"]
    return report.get("verdict") == "INEQUALITY_FAILED", problems
