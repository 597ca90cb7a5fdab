import glob
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyabc.errors import CasError, ParseError
from polyabc.fields import parse_coeff
from polyabc.instances import (CorpusSpec, Instance, as_int, field_spec_from_code,
                               generate_corpus, instance_to_dict, parse_instance,
                               serialize_instance, structured_to_poly)
from polyabc.mvpoly import MvPoly, poly_gcd

from conftest import F2, F2T, F3, F3T, F5, Q2, Q3, property_polys


def test_parse_minimal():
    text = """{
      "id": "tiny", "field": {"kind": "rational_p_adic", "p": 2},
      "vars": ["z1"], "polys": [[[[1], "1"], [[0], "-1/2"]]], "params": {}
    }"""
    inst = parse_instance(text)
    assert inst.instance_id == "tiny"
    assert inst.m == 1
    assert len(inst.polys) == 1
    assert str(inst.polys[0]) == "1 * z1 + -1/2"


def test_parse_bad_prime():
    text = '{"id": "x", "field": {"kind": "prime_field", "p": 4}, "vars": ["z1"], "polys": []}'
    with pytest.raises(CasError) as exc:
        parse_instance(text)
    assert exc.value.code == "VALIDATION_ERROR"


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_instance("{not json")
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.line >= 1


def test_round_trip_shipped_instances():
    paths = sorted(glob.glob("instances/*.json"))
    assert paths, "shipped instances missing"
    for path in paths:
        text = open(path).read()
        inst = parse_instance(text)
        assert serialize_instance(inst) == text
        again = parse_instance(serialize_instance(inst))
        assert instance_to_dict(again) == instance_to_dict(inst)


def test_corpus_deterministic():
    cs = lambda: CorpusSpec(seed=42, count=5, field=Q2, m=1, n=2, degree_bound=4)
    a = [serialize_instance(i) for i in generate_corpus(cs())]
    b = [serialize_instance(i) for i in generate_corpus(cs())]
    assert a == b
    assert len(a) == 5
    c = [serialize_instance(i) for i in
         generate_corpus(CorpusSpec(seed=43, count=5, field=Q2, m=1, n=2, degree_bound=4))]
    assert a != c


def test_corpus_empty():
    assert generate_corpus(CorpusSpec(seed=1, count=0, field=Q2)) == []


def test_corpus_pairwise_mode():
    cs = CorpusSpec(seed=7, count=6, field=F3, m=1, n=3, degree_bound=4,
                    coprimality="pairwise")
    for inst in generate_corpus(cs):
        polys = inst.polys
        acc = MvPoly.zero(inst.spec, inst.m)
        for f in polys:
            acc = acc + f
        assert acc.is_zero()
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert poly_gcd(polys[i], polys[j]).is_constant()


def test_corpus_guards():
    with pytest.raises(CasError) as exc:
        generate_corpus(CorpusSpec(seed=1, count=1, field=Q2, n=20))
    assert exc.value.code == "GUARD_EXCEEDED"
    with pytest.raises(CasError) as exc:
        generate_corpus(CorpusSpec(seed=1, count=1, field=Q2, degree_bound=11))
    assert exc.value.code == "GUARD_EXCEEDED"


def test_field_codes():
    spec = field_spec_from_code("f3t")
    assert spec.kind == "ratfunc_t_adic" and spec.p == 3
    with pytest.raises(CasError):
        field_spec_from_code("f9")


def test_polys_must_be_a_list_of_polynomials():
    for polys in ('"oops"', "5", '["oops"]', '[[[[0], "1"]], {}]'):
        text = ('{"id": "bad", "field": {"kind": "prime_field", "p": 3}, "vars": ["z1"], '
                f'"polys": {polys}}}')
        with pytest.raises(CasError) as exc:
            parse_instance(text)
        assert exc.value.code == "VALIDATION_ERROR"
        assert "polys must be a list of polynomials" in str(exc.value)


def test_instance_poly_count_guard():
    def doc(count):
        return json.dumps({"id": "wide", "field": {"kind": "prime_field", "p": 3},
                           "vars": ["z1"], "polys": [[[[1], "1"]]] * count})
    assert len(parse_instance(doc(13)).polys) == 13
    with pytest.raises(CasError) as exc:
        parse_instance(doc(14))
    assert exc.value.code == "GUARD_EXCEEDED"


def test_corpus_rejects_negative_count_and_no_variables():
    for cs in (CorpusSpec(seed=1, count=-1, field=Q2), CorpusSpec(seed=1, count=1, field=Q2, m=0),
               CorpusSpec(seed=1, count=1, field=Q2, m=-2)):
        with pytest.raises(CasError) as exc:
            generate_corpus(cs)
        assert exc.value.code == "VALIDATION_ERROR"


def test_vars_must_be_a_list_of_variable_names():
    for vars_ in ('"zz"', "5", '["z1", 2]', '{"z1": 1}'):
        text = ('{"id": "bad", "field": {"kind": "prime_field", "p": 3}, '
                f'"vars": {vars_}, "polys": [[[[1], "1"]]]}}')
        with pytest.raises(CasError) as exc:
            parse_instance(text)
        assert exc.value.code == "VALIDATION_ERROR"
        assert "vars must be a list of variable names" in str(exc.value)


@settings(max_examples=150, deadline=None)
@given(property_polys([Q2, Q3, F2, F5, F2T, F3T], 3))
def test_property_instance_document_round_trip(polys):
    # parse(serialise(inst)) gives back the instance, over every field kind
    # and with coefficients such as -3/4 over Q_p and (1+t)/t over F_p(t)
    spec, m = polys[0].spec, polys[0].m
    inst = Instance(instance_id="prop", spec=spec, var_names=[f"z{i + 1}" for i in range(m)],
                    polys=polys, params={"k": 2})
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again.spec == spec and again.polys == polys
    assert instance_to_dict(again) == instance_to_dict(inst) and serialize_instance(again) == text


def _ref_structured_to_poly(spec, m, data):
    """The term-list loader as it was: every entry parsed to a Coeff first,
    then ``MvPoly.from_terms``, which checks lengths and signs and adds
    terms with equal exponents."""
    pairs = []
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise CasError("VALIDATION_ERROR", f"bad term entry {item!r}")
        exps, coeff_s = item
        if not isinstance(exps, (list, tuple)):
            raise CasError("VALIDATION_ERROR", f"bad exponent vector {exps!r}")
        pairs.append((tuple([as_int(e, "exponent") for e in exps]),
                      parse_coeff(spec, str(coeff_s))))
    return MvPoly.from_terms(spec, m, pairs)


def _outcome(compute):
    """The terms in their order, or the code and message of the CasError."""
    try:
        return list(compute().terms.items()), None
    except CasError as exc:
        return None, (exc.code, str(exc))


_ENTRY = st.one_of(
    st.tuples(st.lists(st.integers(-1, 2), min_size=1, max_size=3),
              st.sampled_from(["1", "2", "0", "-1", "t", "1/2", "x", "", 3])).map(list),
    st.tuples(st.lists(st.one_of(st.integers(0, 2), st.booleans(), st.just(1.0)), max_size=2),
              st.just("1")).map(list),
    st.sampled_from([None, [], [[1, 0]], [[1, 0], "1", "1"], [5, "1"]]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Q2, F3, F3T]), st.integers(1, 2), st.lists(_ENTRY, max_size=6))
def test_property_term_loader_matches_the_two_pass_reference(spec, m, data):
    # equal terms in equal order (sums, cancellations, re-insertions), or the
    # same error: entry, exponent and coefficient errors of every term before
    # the first length or sign error
    assert _outcome(lambda: structured_to_poly(spec, m, data)) == \
        _outcome(lambda: _ref_structured_to_poly(spec, m, data))
