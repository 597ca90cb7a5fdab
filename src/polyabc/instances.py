"""Instance documents and seeded corpus generation.

An instance is a single JSON document:

    {"id": ..., "field": {"kind": ..., "p": ...}, "vars": [...],
     "polys": [[[e1, e2, ...], "coeff"], ...], "params": {...}}

where each polynomial is a list of [exponent-vector, coefficient-string]
pairs.  Serialization is canonical (sorted keys, graded-lex descending
terms), so serialize(parse(text)) is the identity on canonical documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .errors import CasError, ParseError
from .fields import (FIELD_KINDS, PRIME_FIELD, RATFUNC_T_ADIC, RATIONAL_P_ADIC,
                     FieldSpec, guard_load_degree, parse_coeff)
from .mvpoly import MvPoly, poly_gcd

FIELD_CODES = {
    "q2": (RATIONAL_P_ADIC, 2), "q3": (RATIONAL_P_ADIC, 3), "q5": (RATIONAL_P_ADIC, 5),
    "f2": (PRIME_FIELD, 2), "f3": (PRIME_FIELD, 3), "f5": (PRIME_FIELD, 5),
    "f2t": (RATFUNC_T_ADIC, 2), "f3t": (RATFUNC_T_ADIC, 3), "f5t": (RATFUNC_T_ADIC, 5),
}

MAX_POLYS = 13     # functions per tuple: the engine's subset searches are exhaustive
MAX_DEGREE = 10    # degree bound of generated corpora
KWISE_K = 3        # kwise corpora: each shared factor divides k - 1 functions


def as_int(value, key):
    """An integer from an instance or a flag; anything else is a VALIDATION_ERROR."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CasError("VALIDATION_ERROR", f"{key} = {value!r} must be an integer")


def guard_poly_count(count: int):
    """The one bound on the number of functions a tuple may hold."""
    if count < 1:
        raise CasError("VALIDATION_ERROR", "an instance needs at least one function")
    if count > MAX_POLYS:
        raise CasError("GUARD_EXCEEDED", f"{count} functions exceed the limit of {MAX_POLYS}")


@dataclass
class Instance:
    instance_id: str
    spec: FieldSpec
    var_names: list
    polys: list
    params: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.var_names)


def field_spec_from_code(code: str) -> FieldSpec:
    if code not in FIELD_CODES:
        raise CasError("VALIDATION_ERROR",
                       f"unknown field code {code!r}; choose from {sorted(FIELD_CODES)}")
    kind, p = FIELD_CODES[code]
    return FieldSpec(kind, p)


def poly_to_structured(f: MvPoly):
    return [[list(e), str(c)] for e, c in f.sorted_terms()]


def structured_to_poly(spec: FieldSpec, m: int, data) -> MvPoly:
    pairs = []
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise CasError("VALIDATION_ERROR", f"bad term entry {item!r}")
        exps, coeff_s = item
        if not isinstance(exps, (list, tuple)):
            raise CasError("VALIDATION_ERROR", f"bad exponent vector {exps!r}")
        pairs.append((tuple(as_int(e, "exponent") for e in exps), parse_coeff(spec, str(coeff_s))))
    return MvPoly.from_terms(spec, m, pairs)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "id": inst.instance_id,
        "field": {"kind": inst.spec.kind, "p": inst.spec.p},
        "vars": list(inst.var_names),
        "polys": [poly_to_structured(f) for f in inst.polys],
        "params": inst.params,
    }


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, indent=2) + "\n"


def instance_from_dict(doc: dict) -> Instance:
    for key in ("id", "field", "vars", "polys"):
        if key not in doc:
            raise CasError("VALIDATION_ERROR", f"missing field {key!r}")
    fdoc = doc["field"]
    if not isinstance(fdoc, dict) or "kind" not in fdoc or "p" not in fdoc:
        raise CasError("VALIDATION_ERROR", "field must carry 'kind' and 'p'")
    if fdoc["kind"] not in FIELD_KINDS:
        raise CasError("VALIDATION_ERROR", f"unknown field kind {fdoc['kind']!r}")
    spec = FieldSpec(fdoc["kind"], as_int(fdoc["p"], "field p"))
    if not isinstance(doc["vars"], list) or not all(isinstance(v, str) for v in doc["vars"]):
        raise CasError("VALIDATION_ERROR", "vars must be a list of variable names")
    var_names = list(doc["vars"])
    m = len(var_names)
    if not isinstance(doc["polys"], list) or not all(isinstance(pd, list) for pd in doc["polys"]):
        raise CasError("VALIDATION_ERROR", "polys must be a list of polynomials")
    guard_poly_count(len(doc["polys"]))
    polys = [structured_to_poly(spec, m, pd) for pd in doc["polys"]]
    for f in polys:
        guard_load_degree("total degree", f.total_degree())
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise CasError("VALIDATION_ERROR", "params must be an object")
    return Instance(instance_id=str(doc["id"]), spec=spec, var_names=var_names,
                    polys=polys, params=params)


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise CasError("VALIDATION_ERROR", "instance document must be an object")
    return instance_from_dict(doc)


# ---------------------------------------------------------------------------
# seeded corpora

@dataclass
class CorpusSpec:
    seed: int
    count: int
    field: FieldSpec
    m: int = 1
    n: int = 2                  # free functions; the closure adds one more
    degree_bound: int = 4
    coprimality: str = "pairwise"   # pairwise | kwise | none

    def validate(self):
        if self.count < 0:
            raise CasError("VALIDATION_ERROR", f"count = {self.count} is negative")
        if self.m < 1:
            raise CasError("VALIDATION_ERROR", f"m = {self.m}: need at least one variable")
        guard_poly_count(self.n + 1)
        if self.degree_bound > MAX_DEGREE:
            raise CasError("GUARD_EXCEEDED",
                           f"degree bound {self.degree_bound} exceeds {MAX_DEGREE}")
        if self.coprimality not in ("pairwise", "kwise", "none"):
            raise CasError("VALIDATION_ERROR", f"bad coprimality mode {self.coprimality!r}")


def _random_coeff(rng: random.Random, spec: FieldSpec, nonzero=False):
    if spec.kind == PRIME_FIELD:
        lo = 1 if nonzero else 0
        return spec.from_int(rng.randrange(lo, spec.p))
    if spec.kind == RATIONAL_P_ADIC:
        num = rng.randint(-6, 6)
        if nonzero and num == 0:
            num = 1 + rng.randint(0, 4)
        return spec.from_int(num)
    deg = rng.randint(0, 1)
    coeffs = [rng.randrange(spec.p) for _ in range(deg + 1)]
    if nonzero and all(c == 0 for c in coeffs):
        coeffs[0] = 1 + rng.randrange(spec.p - 1)
    c = spec.zero()
    t = spec.t()
    acc = spec.one()
    for x in coeffs:
        c = c + spec.from_int(x) * acc
        acc = acc * t
    return c


def _random_factor(rng: random.Random, spec: FieldSpec, m: int) -> MvPoly:
    """A small non-constant polynomial, usually linear, as a building block."""
    while True:
        kind = rng.random()
        terms = {}
        if kind < 0.75 or m == 0:
            v = rng.randrange(m)
            e = [0] * m
            e[v] = 1
            terms[tuple(e)] = spec.one()
            const = _random_coeff(rng, spec)
            if not const.is_zero():
                terms[(0,) * m] = const
        else:
            v = rng.randrange(m)
            e = [0] * m
            e[v] = 2
            terms[tuple(e)] = spec.one()
            w = rng.randrange(m)
            e2 = [0] * m
            e2[w] = 1
            c = _random_coeff(rng, spec)
            if not c.is_zero() and tuple(e2) != tuple(e):
                terms[tuple(e2)] = c
            const = _random_coeff(rng, spec)
            if not const.is_zero():
                terms[(0,) * m] = const
        f = MvPoly(spec, m, terms)
        if not f.is_constant():
            return f


def _build_function(rng: random.Random, spec: FieldSpec, m: int, factors) -> MvPoly:
    f = MvPoly.constant(spec, m, _random_coeff(rng, spec, nonzero=True))
    for g in factors:
        f = f * g
    return f


def _pairwise_ok(polys) -> bool:
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not poly_gcd(polys[i], polys[j]).is_constant():
                return False
    return True


def generate_corpus(cs: CorpusSpec):
    """Deterministic instances; the same seed reproduces identical documents."""
    cs.validate()
    rng = random.Random(cs.seed)
    out = []
    for idx in range(cs.count):
        polys = _generate_one(rng, cs)
        inst = Instance(
            instance_id=f"{cs.seed}-{idx:04d}",
            spec=cs.field,
            var_names=[f"z{i + 1}" for i in range(cs.m)],
            polys=polys,
            params={},
        )
        out.append(inst)
    return out


def _generate_one(rng: random.Random, cs: CorpusSpec):
    spec, m, n = cs.field, cs.m, cs.n
    for _ in range(2000):
        polys = []
        if cs.coprimality == "pairwise":
            for _ in range(n):
                budget = rng.randint(0, max(cs.degree_bound - 1, 0))
                factors = []
                deg = 0
                while deg < budget:
                    g = _random_factor(rng, spec, m)
                    if g.total_degree() + deg > cs.degree_bound:
                        break
                    factors.append(g)
                    deg += g.total_degree()
                polys.append(_build_function(rng, spec, m, factors))
        elif cs.coprimality == "kwise":
            shared = [_random_factor(rng, spec, m) for _ in range(2)]
            owners = [rng.sample(range(n), min(KWISE_K - 1, n)) for _ in shared]
            for i in range(n):
                factors = [g for g, own in zip(shared, owners) if i in own]
                extra = rng.randint(0, 1)
                for _ in range(extra):
                    factors.append(_random_factor(rng, spec, m))
                if sum(g.total_degree() for g in factors) > cs.degree_bound:
                    factors = factors[:1]
                polys.append(_build_function(rng, spec, m, factors))
        else:
            for _ in range(n):
                nterms = rng.randint(1, 3)
                terms = []
                for _ in range(nterms):
                    e = tuple(rng.randint(0, max(cs.degree_bound // max(nterms, 1), 1))
                              for _ in range(m))
                    if sum(e) > cs.degree_bound:
                        e = tuple(0 for _ in range(m))
                    terms.append((e, _random_coeff(rng, spec, nonzero=True)))
                f = MvPoly.from_terms(spec, m, terms)
                if f.is_zero():
                    f = MvPoly.one(spec, m)
                polys.append(f)
        closure = MvPoly.zero(spec, m)
        for f in polys:
            closure = closure - f
        polys.append(closure)
        if any(f.is_zero() for f in polys):
            continue
        if all(f.is_constant() for f in polys):
            continue
        if cs.coprimality == "pairwise" and not _pairwise_ok(polys):
            continue
        return polys
    raise CasError("GENERATION_FAILURE", "could not satisfy the corpus constraints")
