"""Command-line interface.

Commands operate on a single instance document (``--instance``) or, for
``corpus-run``, on a seeded generated corpus.  Exit status: 0 for
HOLDS/success, 2 when a hypothesis gate fires, 1 for errors.  Reports are
deterministic: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str

from .abcengine import (DEFAULT_RHOS, _frac_str, _step_c, verify_abc_first,
                        verify_abc_second, verify_basic_abc, verify_corollaries)
from .errors import CasError, SearchExhausted
from .hasse import hasse_derivative
from .instances import (CorpusSpec, Instance, as_int, field_spec_from_code, generate_corpus,
                        instance_to_dict, parse_instance)
from .nevanlinna import counting, norm_profile, truncated_counting
from .radicals import higher_radical, radical, radical_chain
from .wronskian import find_certificate, index_of_independence, require_f_independent

COMMANDS = ("norm", "counting", "radical", "sqfree", "hasse", "wronskian",
            "independence", "verify-basic", "verify-abc1", "verify-abc2",
            "corollaries", "corpus-run")
MAX_RHO = 64  # characters and decimal exponent of a sample radius


def _parse_rhos(parts):
    try:
        texts = [str(part) for part in parts]
        for text in texts:  # before Fraction builds 10^exponent
            exp = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
            if len(text) > MAX_RHO or exp.isdecimal() and int(exp) > MAX_RHO:
                raise CasError("GUARD_EXCEEDED", f"sample radius {text[:MAX_RHO]!r} exceeds "
                               f"{MAX_RHO} characters or exponent {MAX_RHO}")
        return [Fraction(text) for text in texts]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CasError("VALIDATION_ERROR", f"bad sample radius: {exc}") from exc


def _pl_doc(pl):
    return {
        "breakpoints": [_frac_str(b) for b in pl.breakpoints],
        "slopes": [_frac_str(s) for s in pl.slopes],
        "values": [_frac_str(v) for v in pl.values],
        "final_slope": _frac_str(pl.final_slope),
    }


def _counting_doc(cd):
    return {
        "n_at_zero": cd.n_at_zero,
        "breakpoints": [_frac_str(b) for b in cd.breakpoints],
        "n_values": cd.n_values,
        "integrated": _pl_doc(cd.integrated),
    }


@cache
def build_parser():
    """The top-level parser and each command's own parser by name, built once
    per process: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(prog="polyabc",
                                     description="exact ABC-theorem verification")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--instance", help="path to an instance document")
        p.add_argument("--rho", help="comma-separated rational sample radii (log scale)")
        p.add_argument("--ell", type=int, help="truncation level")
        p.add_argument("--s", type=int, help="level parameter (radical level, power level, search step)")
        p.add_argument("--k", type=int, help="relative-primality level")
        p.add_argument("--seed", type=int, default=0, help="corpus seed")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--oracle-degree-cap", type=int)
        if name == "corpus-run":
            p.add_argument("--count", type=int, default=5)
            p.add_argument("--field", default="q2", help="field code (q2, q3, q5, f2, f3, f5, f2t, f3t, f5t)")
            p.add_argument("--m", type=int, default=1)
            p.add_argument("--n", type=int, default=2)
            p.add_argument("--deg", type=int, default=4)
            p.add_argument("--mode", choices=("pairwise", "kwise", "none"), default="pairwise")
            p.add_argument("--check", choices=tuple(_CHECKS), default="verify-abc1")
    return parser, sub.choices


def _load_instance(args) -> Instance:
    if not args.instance:
        raise CasError("VALIDATION_ERROR", "--instance is required for this command")
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CasError("UNREADABLE_INSTANCE", f"cannot read {args.instance!r}: {exc}") from exc
    return parse_instance(text)


def _rhos_for(args, inst: Instance):
    if args.rho:
        return _parse_rhos(part for part in args.rho.split(",") if part.strip())
    if inst is not None and "rho" in inst.params:
        return _parse_rhos(inst.params["rho"])
    return list(DEFAULT_RHOS)


def _param(args, inst, flag, key, default=None):
    v = getattr(args, flag)
    if v is not None:
        return v
    if inst is not None and key in inst.params:
        return inst.params[key]
    return default


def _int_param(args, inst, flag, key, default=None):
    v = _param(args, inst, flag, key, default)
    return None if v is None else as_int(v, key)


# ---------------------------------------------------------------------------
# command bodies; each returns (doc, exit_code)

def _cmd_norm(args):
    inst = _load_instance(args)
    rhos = _rhos_for(args, inst)
    entries = []
    for f in inst.polys:
        if f.is_zero():
            entries.append({"poly": "0", "zero": True})
            continue
        prof = norm_profile(f)
        vals = [[_frac_str(r), _frac_str(prof.value(r))] for r in rhos]
        entries.append({"poly": str(f), "profile": _pl_doc(prof), "values": vals})
    doc = {"id": inst.instance_id, "command": "norm", "profiles": entries}
    if "trunc_order" in inst.params:
        doc["caveat"] = (f"inputs truncated at order {inst.params['trunc_order']}: "
                         "values are exact only below the truncation's reliability radius")
    return doc, 0


def _cmd_counting(args):
    inst = _load_instance(args)
    ell = _int_param(args, inst, "ell", "ell")
    if ell is not None and ell < 1:
        raise CasError("VALIDATION_ERROR",
                       f"truncation level ell = {ell!r} must be a positive integer")
    entries = []
    for f in inst.polys:
        cd = counting(f)
        entry = {"poly": str(f), "counting": _counting_doc(cd),
                 "poisson_constant": _frac_str(cd.poisson_constant())}
        if ell is not None:
            entry["truncated"] = _counting_doc(truncated_counting(f, ell))
        entries.append(entry)
    doc = {"id": inst.instance_id, "command": "counting", "entries": entries}
    if "trunc_order" in inst.params:
        doc["caveat"] = (f"inputs truncated at order {inst.params['trunc_order']}: "
                         "values are exact only below the truncation's reliability radius")
    return doc, 0


def _oracle_check(f, cap):
    from .oracle import squarefree_factor_oracle

    if f.is_constant() or f.total_degree() > cap:
        return None
    pairs = squarefree_factor_oracle(f, degree_cap=cap)
    return all(e == 1 for _, e in pairs)


def _cmd_radical(args):
    inst = _load_instance(args)
    s = _int_param(args, inst, "s", "s", 0)
    cap = _int_param(args, inst, "oracle_degree_cap", "oracle_degree_cap", 8)
    entries = []
    for f in inst.polys:
        r = radical(f)
        entry = {"poly": str(f), "radical": str(r)}
        if s:
            entry[f"higher_radical_level_{s}"] = str(higher_radical(f, s))
        chk = _oracle_check(r, cap)
        if chk is not None:
            entry["oracle_squarefree"] = chk
        entries.append(entry)
    return {"id": inst.instance_id, "command": "radical", "entries": entries}, 0


def _cmd_sqfree(args):
    inst = _load_instance(args)
    cap = _int_param(args, inst, "oracle_degree_cap", "oracle_degree_cap", 8)
    entries = []
    for f in inst.polys:
        chain = radical_chain(f)
        sqfree = chain[-1]
        entry = {
            "poly": str(f),
            "square_free_part": str(sqfree),
            "chain": [[s, str(r)] for s, r in enumerate(chain)],
            "terminal_level": len(chain) - 1,
        }
        chk = _oracle_check(sqfree, cap)
        if chk is not None:
            entry["oracle_squarefree"] = chk
        entries.append(entry)
    return {"id": inst.instance_id, "command": "sqfree", "entries": entries}, 0


def _cmd_hasse(args):
    inst = _load_instance(args)
    gamma = inst.params.get("gamma")
    if gamma is None:
        raise CasError("VALIDATION_ERROR", "hasse needs params.gamma in the instance")
    if not (isinstance(gamma, list) and all(as_int(g, "gamma entry") >= 0 for g in gamma)):
        raise CasError("VALIDATION_ERROR",
                       f"gamma = {gamma!r} must be a list of non-negative integers")
    gamma = tuple(gamma)
    entries = [{"poly": str(f), "derivative": str(hasse_derivative(f, gamma))}
               for f in inst.polys]
    return {"id": inst.instance_id, "command": "hasse",
            "gamma": list(gamma), "entries": entries}, 0


def _cmd_wronskian(args):
    inst = _load_instance(args)
    step = _int_param(args, inst, "s", "step_c")
    if step is None:
        require_f_independent(inst.polys)  # a dependent tuple fails before its index is paid for
        step = _step_c(inst.polys)
    doc = {"id": inst.instance_id, "command": "wronskian", "step": step}
    try:
        cert = find_certificate(inst.polys, step)
        doc["certificate"] = {"gammas": [list(g) for g in cert.gammas],
                              "determinant": str(cert.determinant)}
        doc["outcome"] = "found"
    except SearchExhausted as exc:
        doc["outcome"] = "search_exhausted"
        doc["last_degree"] = exc.last_degree
    return doc, 0


def _cmd_independence(args):
    inst = _load_instance(args)
    res = index_of_independence(inst.polys)
    doc = {"id": inst.instance_id, "command": "independence",
           "index": res.index_s, "search_cap": res.search_cap}
    if res.dependent_over:
        level, qs = res.dependent_over
        doc["witness"] = {"level": level, "coefficients": [str(q) for q in qs]}
    return doc, 0


# check -> verifier(polys, k, rhos=..., instance_id=...); only verify-abc2 reads k
_CHECKS = {
    "verify-basic": lambda polys, k, **kw: verify_basic_abc(polys[0], polys[1], **kw),
    "verify-abc1": lambda polys, k, **kw: verify_abc_first(polys, **kw),
    "verify-abc2": lambda polys, k, **kw: verify_abc_second(polys, k=k, **kw),
    "corollaries": lambda polys, k, **kw: verify_corollaries(polys, **kw),
}


def _run_check(check, args, inst):
    """The report of ``check`` on inst, with --k and --rho taking precedence
    over the instance's params; the check commands and corpus-run share it."""
    if check == "verify-basic" and len(inst.polys) < 2:
        raise CasError("VALIDATION_ERROR", "verify-basic needs two polynomials")
    k = _int_param(args, inst, "k", "k") if check == "verify-abc2" else None
    return _CHECKS[check](inst.polys, k, rhos=_rhos_for(args, inst), instance_id=inst.instance_id)


def _cmd_check(args):
    rep = _run_check(args.command, args, _load_instance(args))
    return rep.as_dict(), rep.exit_code


def _cmd_corpus_run(args):
    spec = CorpusSpec(seed=args.seed, count=args.count,
                      field=field_spec_from_code(args.field), m=args.m, n=args.n,
                      degree_bound=args.deg, coprimality=args.mode)
    instances = generate_corpus(spec)
    reports = []
    worst = 0
    for inst in instances:
        rep = _run_check(args.check, args, inst)
        reports.append({"instance": instance_to_dict(inst), "report": rep.as_dict()})
        worst = max(worst, rep.exit_code)
    doc = {"command": "corpus-run", "check": args.check,
           "corpus": {"seed": spec.seed, "count": spec.count, "field": args.field,
                      "m": spec.m, "n": spec.n, "deg": spec.degree_bound,
                      "mode": spec.coprimality},
           "reports": reports}
    return doc, worst


_BODIES = {
    "norm": _cmd_norm, "counting": _cmd_counting, "radical": _cmd_radical,
    "sqfree": _cmd_sqfree, "hasse": _cmd_hasse, "wronskian": _cmd_wronskian,
    "independence": _cmd_independence, "corpus-run": _cmd_corpus_run,
    **dict.fromkeys(_CHECKS, _cmd_check),
}


# ---------------------------------------------------------------------------
# rendering

def _emit(prefix, value, out):
    if isinstance(value, dict):
        for key in sorted(value):
            _emit(f"{prefix}{key}.", value[key], out)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            out.write(f"{prefix[:-1]}: {' '.join(str(x) for x in value)}\n")
        else:
            for i, x in enumerate(value):
                _emit(f"{prefix}{i}.", x, out)
    else:
        out.write(f"{prefix[:-1]}: {value}\n")


def _render_text(doc, out):
    for key in ("id", "command", "check", "verdict"):
        if key in doc:
            out.write(f"{key}: {doc[key]}\n")
    for key in sorted(doc):
        if key in ("id", "command", "check", "verdict"):
            continue
        _emit(f"{key}.", doc[key], out)


def _json_parts(value, indent, parts):
    """Append the text of ``json.dumps(value, sort_keys=True, indent=2)`` to
    parts for a dict, list or tuple ``value`` nested at ``indent``; a leaf is
    what ``json.dumps`` writes for it.  With an indent, ``json.dumps`` takes
    the pure-Python encoder, whose nested closures refer to each other and
    leave cyclic garbage on every call."""
    if isinstance(value, dict):
        # json.dumps writes a key that is not a string as its own text
        items = [(_json_str(k if isinstance(k, str) else json.dumps(k)) + ": ", x)
                 for k, x in sorted(value.items())]
        brackets = "{}"
    else:
        items, brackets = [("", x) for x in value], "[]"
    if not items:
        parts.append(brackets)
        return
    inner = indent + "  "
    sep = brackets[0] + "\n" + inner
    for name, x in items:
        parts.append(sep + name)
        if isinstance(x, str):
            parts.append(_json_str(x))  # what json.dumps returns for a str
        elif type(x) is int:
            parts.append(repr(x))  # and for an int
        elif isinstance(x, (dict, list, tuple)):
            _json_parts(x, inner, parts)
        else:
            parts.append(json.dumps(x))
        sep = ",\n" + inner
    parts.append(f"\n{indent}{brackets[1]}")


def machine_text(doc) -> str:
    """The machine report: ``json.dumps(doc, sort_keys=True, indent=2)``
    and a newline, written without the encoder's cyclic garbage."""
    if not isinstance(doc, (dict, list, tuple)):
        return json.dumps(doc) + "\n"
    parts: list = []
    _json_parts(doc, "", parts)
    parts.append("\n")
    return "".join(parts)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    if not argv or argv[0] in ("-h", "--help"):
        parser.print_help()
        return 0 if argv else 1
    if argv[0] not in COMMANDS:
        sys.stderr.write(f"unknown command {argv[0]!r}\n")
        parser.print_usage(sys.stderr)
        return 1
    try:
        # leftovers are reported as the top-level parser reports them
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    args.command = argv[0]
    try:
        doc, code = _BODIES[args.command](args)
    except CasError as exc:
        err = {"error": exc.code, "message": str(exc)}
        if args.format == "machine":
            sys.stdout.write(machine_text(err))
        else:
            sys.stdout.write(f"error: {exc.code}\nmessage: {exc}\n")
        return 1
    if args.format == "machine":
        sys.stdout.write(machine_text(doc))
    else:
        _render_text(doc, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
