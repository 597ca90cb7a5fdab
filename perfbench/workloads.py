"""Workload definitions: the instance documents and CLI operations of a round.

A workload is built from ``--seed`` alone; the program only ever sees the
instance documents written here.  Every round runs the same operations in
the same order, so the share of failed operations is a constant of the
workload.  This module imports polyabc (corpus generation and planted
products are part of the measured set-up), and nothing else of the program.

The make-up of each workload, and why, is recorded in README.md.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from polyabc import instances
from polyabc.fields import PRIME_FIELD, FieldSpec
from polyabc.instances import CorpusSpec, Instance, field_spec_from_code, serialize_instance
from polyabc.mvpoly import MvPoly


@dataclass
class Op:
    """One CLI invocation on one instance document."""

    doc: str                      # file name of the instance document
    argv: list                    # command and flags, without --instance / --format
    expect_error: str | None = None   # a known fault: the error code the seed code returns
    planted: dict | None = None   # radical_ladder only: p, factors, exponents

    def cli_args(self, workdir: str) -> list:
        return [self.argv[0], "--instance", os.path.join(workdir, self.doc),
                "--format", "machine", *self.argv[1:]]

    def label(self) -> str:
        return " ".join([self.argv[0], self.doc, *self.argv[1:]])


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    docs: dict = field(default_factory=dict)   # file name -> document text


# ---------------------------------------------------------------------------
# corpus-based workloads

# (field code, m, n, degree bound, coprimality mode, instances, checks).  Each
# instance of a sub-corpus gets one check, rotating through the list, so a
# round holds as many distinct inputs as its time allows.
#
# The corpora are generated at one fixed corpus seed, CORPUS_SEED, and the
# seed moves every instance by its own shift z_i -> z_i + a_i of each
# variable: new documents with the same degrees, gcds, vanishing subsums and
# ranks.  Seeded corpora made the cost of a round follow each seed's mix of
# cheap and costly instances: in 18 qp_wide operations the median operation
# time moved by a factor of two between seeds, and the seeded char-p part
# took 0.40 to 0.68 times as long as the fixed F_p(t) part of the same round
# (0.61 to 0.84 once shifted).
CORPUS_SEED = 7
QP_CHECKS = ("verify-abc1", "corollaries", "verify-abc2")
QP_CORPORA = [
    ("q2", 1, 9, 4, "pairwise", 3, QP_CHECKS),
    ("q3", 1, 9, 4, "pairwise", 3, QP_CHECKS[1:] + QP_CHECKS[:1]),
    ("q5", 1, 9, 4, "pairwise", 3, QP_CHECKS[2:] + QP_CHECKS[:2]),
    ("q2", 1, 10, 4, "pairwise", 3, QP_CHECKS),
    ("q3", 1, 10, 4, "pairwise", 3, QP_CHECKS[1:] + QP_CHECKS[:1]),
    ("q5", 1, 10, 4, "pairwise", 3, QP_CHECKS[2:] + QP_CHECKS[:2]),
]
QP_SHIFTS = range(-3, 4)

CHARP_SHIFTED = [
    ("f2", 2, 3, 8, "pairwise", 12, ("verify-abc1", "verify-basic")),
    ("f3", 2, 3, 8, "pairwise", 10, ("verify-abc1",)),
    ("f5", 2, 3, 8, "pairwise", 8, ("verify-abc1",)),
    ("f2", 2, 2, 6, "pairwise", 12, ("verify-abc2",)),
    ("f2", 2, 4, 6, "kwise", 8, ("verify-abc1", "verify-abc2")),
    ("f3", 2, 3, 6, "none", 8, ("verify-abc1",)),
    ("f5", 2, 4, 6, "kwise", 8, ("verify-abc1",)),
]

# Sub-corpora whose op cost is heavy-tailed (F_p(t) coefficients; verify-abc2
# and verify-basic in odd characteristic): seconds to minutes on some corpus
# seeds.  They run at fixed corpus seeds, each a one-instance corpus
# (m=2, n=2, degree bound 6) whose three checks all finish in well under a
# second on the seed code; the shifted part above carries the input variation.
FIXED_CHECKS = ("verify-abc1", "verify-abc2", "verify-basic")
CHARP_FIXED = {
    "f2t": (0, 1, 4, 12, 14, 24),
    "f3t": (4, 5, 7, 11, 19, 22),
    "f5t": (5, 7, 8, 9, 13, 22),
}
# F_2(t) instances on which verify-abc1 and verify-abc2 exit 1 with
# NOT_A_POWER: square_free_part reaches hasse.poly_pth_root on an inseparable
# irreducible factor z^2 + c(t) with c not a square in F_2(t).
CHARP_FAILING = {"f2t": (11, 13)}
FAILING_CHECKS = ("verify-abc1", "verify-abc2")


def _corpus(code, m, n, deg, mode, seed, count):
    spec = CorpusSpec(seed=seed, count=count, field=field_spec_from_code(code),
                      m=m, n=n, degree_bound=deg, coprimality=mode)
    return instances.generate_corpus(spec)  # by attribute, so tracing sees it


def _corpus_docs(wl: Workload, code, m, n, deg, mode, seed, count):
    names = []
    for inst in _corpus(code, m, n, deg, mode, seed, count):
        name = f"{code}-m{m}-n{n}-d{deg}-{mode}-{inst.instance_id}.json"
        wl.docs[name] = serialize_instance(inst)
        names.append(name)
    return names


def _shift(f: MvPoly, shifts) -> MvPoly:
    """f(z_1 + a_1, ..., z_m + a_m)."""
    spec, m = f.spec, f.m
    moved = [MvPoly.variable(spec, m, i) + MvPoly.constant(spec, m, spec.from_int(a))
             for i, a in enumerate(shifts)]
    out = MvPoly.zero(spec, m)
    for e, c in f.terms.items():
        term = MvPoly.constant(spec, m, c)
        for g, k in zip(moved, e):
            if k:
                term = term * g ** k
        out = out + term
    return out


def _shifted_corpora(wl: Workload, table, rng: random.Random, shifts):
    """The table's corpora at CORPUS_SEED, each instance moved by its own
    shift of every variable, drawn from shifts(p)."""
    for code, m, n, deg, mode, count, checks in table:
        for i, inst in enumerate(_corpus(code, m, n, deg, mode, CORPUS_SEED, count)):
            a = [rng.choice(shifts(inst.spec.p)) for _ in range(m)]
            inst_id = (f"{code}-m{m}-n{n}-d{deg}-{mode}-{inst.instance_id}-shift"
                       + "_".join(map(str, a)))
            wl.docs[inst_id + ".json"] = serialize_instance(Instance(
                inst_id, inst.spec, inst.var_names, [_shift(f, a) for f in inst.polys], {}))
            wl.ops.append(Op(inst_id + ".json", [checks[i % len(checks)]]))


def build_qp_wide(seed: int) -> Workload:
    wl = Workload()
    _shifted_corpora(wl, QP_CORPORA, random.Random(seed), lambda p: QP_SHIFTS)
    return wl


def build_charp_corpus(seed: int) -> Workload:
    wl = Workload()
    _shifted_corpora(wl, CHARP_SHIFTED, random.Random(seed), range)
    for code, seeds in CHARP_FIXED.items():
        for s in seeds:
            (name,) = _corpus_docs(wl, code, 2, 2, 6, "pairwise", s, 1)
            wl.ops.extend(Op(name, [chk]) for chk in FIXED_CHECKS)
    for code, seeds in CHARP_FAILING.items():
        for s in seeds:
            (name,) = _corpus_docs(wl, code, 2, 2, 6, "pairwise", s, 1)
            wl.ops.extend(Op(name, [chk], expect_error="NOT_A_POWER") for chk in FAILING_CHECKS)
            wl.ops.append(Op(name, ["verify-basic"]))
    return wl


# ---------------------------------------------------------------------------
# planted products for the p^s-radical chain

# (p, m) -> (instances, multiplicity shapes).  Instance i takes shape
# i mod 4: three distinct irreducible factors of total degrees 1, 1 and 2
# with these multiplicities.  The seed draws the factors and the truncation
# level; fixing the shapes keeps the degree and the chain levels reached, and
# with them the cost, from varying with the seed.  Multiplicities reach p^3
# in one variable; in two the degree stays <= 16 because the chain's gcds
# grow steeply with it (one p = 3 product of degree 36 takes over 10 s) and
# the largest operations' times swing most with the load on the machine.
LADDER = {
    (2, 1): (24, ((1, 2, 4), (3, 8, 1), (4, 5, 8), (8, 2, 3))),
    (3, 1): (24, ((1, 3, 9), (27, 2, 1), (4, 9, 10), (6, 10, 3))),
    (2, 2): (16, ((1, 2, 4), (3, 8, 1), (4, 5, 2), (8, 2, 3))),
    (3, 2): (16, ((9, 2, 1), (3, 1, 2), (6, 4, 1), (1, 9, 3))),
}
FACTOR_DEGREES = (1, 1, 2)


def _planted_factor(rng: random.Random, p: int, m: int, degree: int) -> dict:
    """A monic irreducible polynomial of the given total degree, as
    {exponents: residue}.

    m = 1: z + c, or a quadratic with no root in F_p.
    m = 2: z2 + a(z1) with deg a = degree (degree 1: deg a <= 1); monic of
    degree 1 in z2, hence irreducible.
    """
    if m == 1:
        if degree == 1:
            return {(1,): 1, (0,): rng.randrange(p)}
        while True:
            b, c = rng.randrange(p), rng.randrange(1, p)
            if all((x * x + b * x + c) % p for x in range(p)):
                return {(2,): 1, (1,): b, (0,): c}
    terms = {(0, 1): 1}
    for e in range(degree + 1):
        c = rng.randrange(1, p) if e == degree == 2 else rng.randrange(p)
        if c:
            terms[(e, 0)] = c
    return terms


def _planted_factors(rng: random.Random, p: int, m: int) -> list:
    factors, seen = [], set()
    for degree in FACTOR_DEGREES:
        while True:
            t = _planted_factor(rng, p, m, degree)
            key = tuple(sorted(t.items()))
            if key not in seen:
                seen.add(key)
                factors.append(t)
                break
    return factors


def build_radical_ladder(seed: int) -> Workload:
    wl = Workload()
    rng = random.Random(seed)
    for (p, m), (count, shapes) in LADDER.items():
        spec = FieldSpec(PRIME_FIELD, p)
        for i in range(count):
            factors, exps = _planted_factors(rng, p, m), list(shapes[i % len(shapes)])
            f = MvPoly.one(spec, m)
            for t, e in zip(factors, exps):
                P = MvPoly.from_terms(spec, m, [(k, spec.from_int(c)) for k, c in t.items()])
                f = f * P ** e
            inst_id = f"ladder-{seed}-p{p}-m{m}-{i:02d}"
            name = inst_id + ".json"
            wl.docs[name] = serialize_instance(
                Instance(inst_id, spec, [f"z{j + 1}" for j in range(m)], [f], {}))
            planted = {"p": p, "factors": [[[list(k), c] for k, c in t.items()] for t in factors],
                       "exponents": exps}
            ell = rng.randint(1, max(exps))
            wl.ops.append(Op(name, ["sqfree", "--oracle-degree-cap", "0"], planted=planted))
            wl.ops.append(Op(name, ["counting", "--ell", str(ell)],
                             planted=dict(planted, ell=ell)))
    return wl


WORKLOAD_FUNCTIONS = {"qp_wide": build_qp_wide, "charp_corpus": build_charp_corpus,
                      "radical_ladder": build_radical_ladder}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Build the workload and write its instance documents into workdir."""
    wl = WORKLOAD_FUNCTIONS[name](seed)
    os.makedirs(workdir, exist_ok=True)
    for doc_name, text in wl.docs.items():
        with open(os.path.join(workdir, doc_name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return wl


def op_to_json(op: Op) -> dict:
    return {"doc": op.doc, "argv": op.argv, "expect_error": op.expect_error,
            "planted": op.planted}
