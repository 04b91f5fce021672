"""Formula parsing, printing, evaluation, and definability agreement."""

from __future__ import annotations

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcuts import cli, formlang
from valcuts.errors import EvaluationUnsupported, ParseError, StructuralError, ValcutsError
from valcuts.formlang import (
    DEFINITIONS,
    Add,
    Approximant,
    BinOp,
    DeclaredValue,
    Domain,
    EqAtom,
    FormulaModel,
    ImmediateElement,
    InK,
    IntLit,
    Mul,
    Not,
    Pow,
    Quant,
    RatConst,
    Recip,
    Sub,
    Truth,
    ValAtom,
    Var,
    VOf,
    _SCHEDULE_DEPTH,
    _Evaluator,
    _holds,
    _Parser,
    check_definition,
    evaluate,
    exact_verdict,
    free_variables,
    membership,
    parse,
    print_formula,
    value_set,
)
from valcuts.gpsfield import (INF, FieldModel, PatternSeries, Tail, approach_segment,
                              parse_element, val_diff)
from valcuts.ogroup import Component, ConvexSubgroup, GroupDescriptor, GroupElement
from valcuts.prescribe import CharCase, build
from valcuts.scenarios import (
    abhyankar,
    declared_samples,
    example_e1,
    example_e2,
    kummer_mixed,
    perfect_series_model,
    samples_for,
    series_samples,
)
from valcuts.segment import (
    CutKind,
    Direction,
    IdealDescriptor,
    Segment,
    coarsening,
    contains,
    element_cut,
    seq_cut,
    shift,
    subgroup_cut,
)

from conftest import (
    counted_draws,
    grid_points,
    is_canonical,
    position,
    random_cut,
    random_group,
    random_group_element,
    rebuilt,
    reference_witnesses,
)


def _unreachable(*args):
    raise AssertionError("a forced walk reached a compiled answer")


@contextmanager
def forced_walk():
    """evaluate walks: _compiled_answer gives no answer, and the two kernels a
    compiled answer calls (membership in a value set, a first stop among the
    candidates) raise if reached.  Their code is swapped, so the answers
    compiled before, which hold them, raise too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formlang, "_compiled_answer", lambda *args: None)
        for kernel in (formlang._member_answer, formlang._first_stop):
            mp.setattr(kernel, "__code__", _unreachable.__code__)
        yield


NAMES = st.sampled_from(["b", "c", "x", "t", "theta", "eta", "p", "zeta_p"])
terms = st.recursive(
    st.one_of(NAMES.map(Var), st.integers(0, 30).map(IntLit)),
    lambda sub: st.one_of(
        st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub),
        st.builds(Pow, sub, st.one_of(st.integers(0, 9), st.just("p"))),
        st.builds(Recip, sub)),
    max_leaves=6)
valuations = st.builds(VOf, terms, st.booleans())
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(RatConst)
RELS = st.sampled_from(["<", "<=", "=", ">=", ">"])
# "q = q" between two rationals also reads as an equation of terms, so a
# comparison keeps a valuation on at least one side
atoms = st.one_of(
    st.builds(ValAtom, valuations, RELS, st.one_of(valuations, rationals)),
    st.builds(ValAtom, rationals, RELS, valuations),
    st.builds(EqAtom, terms, terms),
    st.builds(InK, terms))
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from(["and", "or", "->"]), sub, sub),
        st.builds(Not, sub),
        st.builds(Quant, st.sampled_from(["forall", "exists"]), NAMES,
                  st.sampled_from(list(Domain)), sub)),
    max_leaves=4)
TOKENS = ["forall", "exists", "in", "L", "K", "\\", ":", "and", "or", "->", "not",
          "inK", "v", "(", ")", "-", "+", "*", "^", "/", "<", "<=", "=", ">=", ">",
          "0", "1", "2", "b", "c", "p", "t", "v(b)", "-1/2", "1/0"]


class TestParser:
    def test_coarse_ring_body(self):
        f = parse("forall c in K : v(x^p - x - c^p + c) < v(b)")
        assert isinstance(f, Quant) and f.kind == "forall" and f.domain is Domain.K
        body = f.body
        assert isinstance(body, ValAtom) and body.rel == "<"
        assert body.left == VOf(Add(Sub(Sub(Pow(Var("x"), "p"), Var("x")),
                                        Pow(Var("c"), "p")), Var("c")))

    def test_negated_valuation(self):
        f = parse("exists c in K : v(b) >= -v(x - c)")
        assert f.body.right == VOf(Sub(Var("x"), Var("c")), negated=True)

    def test_reflexive_atom(self):
        f = parse("v(0) = v(0)")
        assert isinstance(f, ValAtom)

    def test_domains(self):
        f = parse("forall x in L\\K : inK(x^p - x) -> v(x) < 0")
        assert f.domain is Domain.L_MINUS_K
        assert isinstance(f.body, BinOp) and f.body.op == "->"
        assert f.body.right.right == RatConst(Fraction(0))

    def test_reciprocal_and_product(self):
        f = parse("v((zeta_p - 1) * (1/(x - c))) <= v(b)")
        term = f.left.term
        assert isinstance(term, Mul)
        assert term.left == Sub(Var("zeta_p"), IntLit(1))
        assert term.right == Recip(Sub(Var("x"), Var("c")))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse("forall c in K v(c) > 0")
        assert err.value.position > 0
        with pytest.raises(ParseError):
            parse("v(x >")
        with pytest.raises(ParseError):
            parse("exists in K : v(b) > 0")

    @pytest.mark.parametrize("text,message,position", [
        ("v(b) > 0 )", "trailing input ')'", 9),
        ("v(b^q) > 0", "expected an integer or p as exponent", 4),
        ("forall c in M : v(c) > 0", "expected a domain L, K, or L\\K", 12),
        # the bad character itself, not the blank before it
        ("v(b) > 0 $", "unexpected character '$'", 9),
    ])
    def test_error_names_its_position(self, text, message, position):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse(text)
        assert err.value.position == position

    def test_trailing_blanks_parse(self):
        assert parse("v(b) > 0   ") == parse("v(b) > 0")

    def test_roundtrip_on_catalog(self):
        for text in DEFINITIONS.values():
            ast = parse(text)
            assert parse(print_formula(ast)) == ast

    @settings(max_examples=400, derandomize=True)
    @given(formulas)
    def test_roundtrip_on_random_asts(self, ast):
        assert parse(print_formula(ast)) == ast

    @settings(max_examples=400, derandomize=True)
    @given(st.lists(st.sampled_from(TOKENS), max_size=16))
    def test_random_tokens_raise_only_parse_errors(self, tokens):
        try:
            parse(" ".join(tokens))
        except ParseError:
            pass

    @pytest.mark.parametrize("text,left", [
        ("0 = v(b)", RatConst(Fraction(0))),
        ("1/2 = v(b)", RatConst(Fraction(1, 2))),
        ("-1 < v(b)", RatConst(Fraction(-1))),
    ])
    def test_rational_left_of_a_valuation(self, text, left):
        f = parse(text)
        assert f == ValAtom(left, text.split()[1], VOf(Var("b")))
        assert parse(print_formula(f)) == f

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("v(b) < 1/0")

    @pytest.mark.parametrize("text", [
        "(" * 200 + "v(b) >= 0" + ")" * 200,
        "not " * 1200 + "v(t) > 0",
        "v(" + " + ".join(["t"] * 3000) + ") > 0",
    ], ids=["parentheses", "negations", "sum"])
    def test_too_deep_a_tree_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than 50 levels"):
            parse(text)

    def test_the_deepest_accepted_tree_evaluates_and_prints(self):
        # 47 negations, the atom, v( ) and t: 50 levels
        fm = abhyankar(2).fmodel
        deepest = parse("not " * 47 + "v(t) > 0")
        assert evaluate(deepest, fm).value is Truth.FALSE
        assert parse(print_formula(deepest)) == deepest   # `not (` twice a level
        assert evaluate("(" * 100 + "v(t) > 0" + ")" * 100, fm).value is Truth.TRUE
        for text in ("not " * 48 + "v(t) > 0", "(" * 101 + "v(t) > 0" + ")" * 101):
            with pytest.raises(ParseError):
                parse(text)


class TestSyntaxNodes:
    """Syntax nodes compare field by field and keep their hash and free names."""

    TEXT = DEFINITIONS["coarse-ring-kummer"]

    def test_separate_parses_are_equal_and_hash_equal(self):
        a, b = _Parser(self.TEXT).formula(), _Parser(self.TEXT).formula()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "kept"}[b] == "kept"

    def test_the_node_class_is_part_of_equality(self):
        x, y = Var("x"), Var("y")
        assert Add(x, y) != Sub(x, y)
        assert {Add(x, y): "sum"}.get(Sub(x, y)) is None

    def test_a_quantifier_frees_only_its_own_use(self):
        f = parse("v(c) > 0 and exists c in K : v(c - b) > 0")
        assert free_variables(f.right) == {"b"}
        assert free_variables(f) == {"b", "c"}
        assert free_variables(parse("forall c in K : exists c in L : v(c) > 0")) == set()

    def test_hash_and_free_names_are_found_once(self, monkeypatch):
        f = _Parser(self.TEXT).formula()
        hashed, free = hash(f), free_variables(f)
        walked = []
        original = formlang.free_variables

        def counting(node):
            walked.append(node)
            return original(node)

        def refuse(node):
            raise AssertionError("a kept hash was computed again")

        monkeypatch.setattr(formlang, "free_variables", counting)
        monkeypatch.setattr(Var, "__hash__", refuse)
        assert hash(f) == hashed and formlang.free_variables(f) == free
        assert walked == [f]

    def test_a_pickled_node_hashes_in_the_process_that_loads_it(self):
        # a str hashes differently in each process, so a kept hash must not travel
        script = ("import pickle, sys\n"
                  "from valcuts.formlang import parse\n"
                  "f = parse(sys.argv[1])\n"
                  "hash(f)\n"
                  "sys.stdout.buffer.write(pickle.dumps(f))\n")
        src = os.path.dirname(os.path.dirname(formlang.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        dumped = subprocess.run([sys.executable, "-c", script, self.TEXT],
                                capture_output=True, env=env, check=True).stdout
        loaded = pickle.loads(dumped)
        assert loaded == parse(self.TEXT) and hash(loaded) == hash(parse(self.TEXT))
        assert {parse(self.TEXT): "kept"}[loaded] == "kept"


ROUND_TRIPS = (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy)


class TestRoundTrips:
    """A scenario, its results and its formula model pickle and copy to equal
    ones, and a copy of a warm formula model answers as the original."""

    @pytest.mark.parametrize("build,p", [(abhyankar, 2), (example_e1, 2), (example_e2, 2),
                                         (kummer_mixed, 3)])
    def test_scenario(self, build, p):
        sc = build(p)
        for trip in ROUND_TRIPS:
            for x in (sc, sc.results, sc.fmodel):
                assert trip(x) == x

    def test_a_warm_formula_model(self):
        fm = example_e1(2).fmodel
        samples = series_samples(fm.model, 4, 7)
        calls = [(text, {"b": b}) for text in (DEFINITIONS["ram-ideal-as"],) + SQUARE_FORMULAS
                 for _, b, _ in samples]
        want = [evaluate(text, fm, bindings=bindings).to_json() for text, bindings in calls]
        assert fm.value_sets and fm.side_values
        for trip in ROUND_TRIPS:
            warm = trip(fm)
            assert warm == fm and warm.value_sets.keys() == fm.value_sets.keys()
            assert [evaluate(text, warm, bindings=bindings).to_json()
                    for text, bindings in calls] == want


class TestEvaluation:
    def test_reflexivity_of_infinite_valuations(self):
        sc = abhyankar(3)
        res = evaluate("v(0) = v(0)", sc.fmodel)
        assert res.value is Truth.TRUE

    @pytest.mark.parametrize("text,value", [
        ("theta^p - theta = 1/t", Truth.TRUE),   # theta is the root of X^p - X - 1/t
        ("1/t = theta^p - theta", Truth.TRUE),
        ("1/t = t", Truth.FALSE),
        ("t * (1/t) = 1", Truth.TRUE),
        ("2 = 0", Truth.FALSE),
        ("forall c in K : v(t) > 0", Truth.TRUE),   # a body without c
        ("exists c in K : v(t) < 0", Truth.FALSE),
    ])
    def test_equations_of_carriers_and_constant_bodies(self, text, value):
        res = evaluate(text, abhyankar(3).fmodel)
        assert (res.value, res.mode, res.candidates_used) == (value, "oracle", 0)

    def test_ram_ideal_member_by_oracle(self):
        sc = abhyankar(2)
        b = sc.model.monomial(1, sc.model.value_group.element(Fraction(1, 2)))
        res = evaluate(DEFINITIONS["ram-ideal-as"], sc.fmodel, bindings={"b": b})
        assert res.value is Truth.TRUE
        assert res.mode == "oracle"

    def test_ram_ideal_nonmember(self):
        sc = abhyankar(2)
        b = sc.model.monomial(1, sc.model.value_group.element(-1))
        res = evaluate(DEFINITIONS["ram-ideal-as"], sc.fmodel, bindings={"b": b})
        assert res.value is Truth.FALSE
        # cross-check against explicit approximants c = b_k
        theta = sc.fmodel.immediates[0].carrier
        from valcuts.gpsfield import val_diff

        for k in range(12):
            c = theta.partial_sum(k)
            assert not b.valuation() >= -val_diff(theta, c)

    def test_boundary_membership(self):
        sc = abhyankar(3)
        one = sc.model.one()
        inside = evaluate(DEFINITIONS["ram-ideal-as"], sc.fmodel, bindings={"b": one})
        assert inside.value is Truth.FALSE  # v = 0 sits outside the open cone
        coarse = evaluate(DEFINITIONS["coarse-ring-as"], sc.fmodel, bindings={"b": one})
        assert coarse.value is Truth.TRUE

    def test_unmatched_forall_is_unknown(self):
        # every candidate satisfies the body, but a finite pool cannot close
        # a universal claim over an infinite domain
        sc = abhyankar(2)
        res = evaluate("forall c in K : inK(c + c)", sc.fmodel)
        assert res.value is Truth.UNKNOWN
        assert res.mode == "bounded"
        assert res.candidates_used > 0

    def test_bounded_forall_refuted_by_counterexample(self):
        sc = abhyankar(2)
        res = evaluate("forall c in K : v(c * c) >= v(c)", sc.fmodel)
        assert res.value is Truth.FALSE  # any c of negative value refutes it
        assert res.witness is not None

    def test_bounded_exists_finds_witness(self):
        sc = abhyankar(2)
        res = evaluate("exists c in K : v(c) = 2", sc.fmodel)
        assert res.value is Truth.TRUE
        assert res.mode == "bounded" and res.witness is not None

    def test_oracle_agrees_with_bounded_witnesses(self):
        # where the oracle says TRUE for an existential, explicit approximants
        # must also witness it
        sc = abhyankar(3)
        theta = sc.fmodel.immediates[0].carrier
        from valcuts.gpsfield import val_diff

        g = sc.model.value_group
        for num in (1, 2, 5):
            b = sc.model.monomial(1, g.element(Fraction(num, 9)))
            res = evaluate(DEFINITIONS["ram-ideal-as"], sc.fmodel, bindings={"b": b})
            assert res.value is Truth.TRUE
            assert any(b.valuation() >= -val_diff(theta, theta.partial_sum(k))
                       for k in range(10))

    def test_missing_immediate_element_raises(self):
        sc = abhyankar(2)
        bare = FormulaModel(model=sc.model, immediates=(), constants={})
        with pytest.raises(StructuralError):
            evaluate("exists x in L\\K : v(x) < 0", bare)

    def test_unbound_variable_rejected(self):
        sc = abhyankar(2)
        with pytest.raises(StructuralError):
            evaluate("v(zz) = 0", sc.fmodel)
        # quantified occurrences are in scope
        ok = evaluate("exists zz in K : v(zz) = 0", sc.fmodel)
        assert ok.value is Truth.TRUE


    @pytest.mark.parametrize("text,value", [
        ("forall t in K : v(t) > 0", Truth.FALSE),
        ("forall p in K : v(p) >= 0", Truth.FALSE),
        ("exists t in K : v(t) < 0", Truth.TRUE),
    ])
    def test_quantifier_shadows_model_names(self, text, value):
        res = evaluate(text, abhyankar(2).fmodel)
        assert res.value is value
        assert res.mode == "bounded" and res.witness is not None

    def test_unbound_model_name_rejected(self):
        # kummer-mixed has no constant t
        with pytest.raises(StructuralError, match="'t'"):
            evaluate("v(t) > 0", kummer_mixed(3).fmodel)

    def test_builtins_and_their_shadowing(self):
        sc = kummer_mixed(3)
        g = sc.model.value_group
        assert evaluate("v(p) = 2", sc.fmodel).value is Truth.TRUE  # vp = p - 1
        assert evaluate("v(zeta_p - 1) = 1", sc.fmodel).value is Truth.TRUE
        assert evaluate("v(zeta_p) = 0", sc.fmodel).value is Truth.TRUE
        shadow = {"p": DeclaredValue(g.zero()), "zeta_p": DeclaredValue(g.element(5))}
        assert evaluate("v(p) = 0", sc.fmodel, bindings=shadow).value is Truth.TRUE
        res = evaluate("v(zeta_p - 1) = 1", sc.fmodel, bindings=shadow)
        assert res.value is Truth.FALSE  # the bound zeta_p has value 5
        assert evaluate("v(p) = v(0)", abhyankar(2).fmodel).value is Truth.TRUE

    @pytest.mark.parametrize("vb,want", [
        (None, Truth.TRUE),       # v(b) = INF: v(b + p) = v(p)
        (2, Truth.UNKNOWN),       # v(b) = v(p): the sum may cancel
        (5, Truth.TRUE),          # v(b) > v(p): the smaller value wins
    ])
    def test_min_rule_on_a_value_only_sum(self, vb, want):
        fm = kummer_mixed(3).fmodel   # v(p) = 2
        b = DeclaredValue(INF if vb is None else fm.group.element(vb))
        assert evaluate("v(b + p) = v(p)", fm, bindings={"b": b}).value is want

    def test_inner_quantifier_restores_the_outer_binding(self):
        sc = abhyankar(2)
        res = evaluate("exists c in K : (forall c in K : v(c) >= 0) or v(c) = 2",
                       sc.fmodel)
        assert res.value is Truth.TRUE
        res = evaluate("(exists b in K : v(b) = 1) and v(b) >= 0", sc.fmodel,
                       bindings={"b": sc.model.one()})
        assert res.value is Truth.TRUE

    def test_quantifier_hiding_an_immediate_skips_the_oracle(self):
        # v(theta - theta) is v(0) for every theta in K, not v(x - c)
        res = evaluate("forall theta in K : v(theta - theta) >= 0", abhyankar(2).fmodel)
        assert res.value is not Truth.FALSE and res.mode == "bounded"

    def test_zeta_outside_the_group_is_unknown(self):
        # a mixed plan's pdiv group at p = 3 holds v(p) but not v(p)/2 = v(zeta_p - 1)
        fm = FormulaModel(build(2, (1, 2), 3, CharCase.MIXED).model, ())
        res = evaluate("v(b) < v(zeta_p - 1)", fm,
                       bindings={"b": DeclaredValue(fm.group.zero())})
        assert (res.value, res.mode) == (Truth.UNKNOWN, "oracle")

    @pytest.mark.parametrize("p,mode", [(2, "oracle"), (3, "bounded"), (5, "bounded")])
    def test_kummer_shape_needs_zeta_in_the_group(self, p, mode):
        model = build(2, (1, 2), p, CharCase.MIXED).model
        g = model.value_group
        seg = element_cut(g.element(-1, 0), closed=True, direction=Direction.INITIAL)
        x = ImmediateElement("x", seg, (g.element(-2, 0), g.element(-1, 0)),
                             facts=frozenset({"one_unit"}))
        res = evaluate("forall c in K : v(x^p - c^p) < v(b)", FormulaModel(model, (x,)),
                       bindings={"b": DeclaredValue(g.zero())})
        assert res.mode == mode
        assert res.value is (Truth.TRUE if mode == "oracle" else Truth.UNKNOWN)

    def test_kummer_power_difference_below_zeta(self):
        # with every v(eta - c) < v(zeta_p - 1), each factor eta - zeta^i c of
        # eta^p - c^p has value v(eta - c), so v(eta^p - c^p) = p * v(eta - c)
        sc = kummer_mixed(3)
        g = sc.model.value_group
        eta = sc.fmodel.immediates[0]
        below_half = seq_cut(g.element(Fraction(1, 2)), g.element(2), start=1,
                             direction=Direction.INITIAL)   # {a < 1/2}
        fm = rebuilt(sc.fmodel, immediates=(rebuilt(eta, segment=below_half),))
        for text, want in (("exists c in K : v(eta^p - c^p) >= 2", Truth.FALSE),
                           ("forall c in K : v(eta^p - c^p) < 3/2", Truth.TRUE)):
            res = evaluate(text, fm)
            assert (res.value, res.mode) == (want, "oracle"), text

    @pytest.mark.parametrize("text,value,mode", [
        ("theta^0 = 1", Truth.TRUE, "oracle"),
        ("v(theta^0 - t) = 0", Truth.TRUE, "oracle"),
        ("inK(theta^0)", Truth.TRUE, "oracle"),
        ("v(theta^3 - t) < 0", Truth.TRUE, "oracle"),   # the min rule, as for theta*theta
        ("theta^3 = t", Truth.FALSE, "oracle"),   # distinct valuations
        ("inK(theta^3)", Truth.UNKNOWN, "oracle"),   # theta^3 has no pattern form
        ("inK(theta^4)", Truth.FALSE, "oracle"),   # a Frobenius image keeps its tails
    ])
    def test_powers_of_a_pattern_series(self, text, value, mode):
        # x^0 is 1, a p-power is a Frobenius image, any other power has only a value
        res = evaluate(text, abhyankar(2).fmodel)
        assert (res.value, res.mode) == (value, mode)

    @pytest.mark.parametrize("build,text,value,mode", [
        # each shape in both summand orders
        (abhyankar, "forall c in K : v(theta - c) < 0", Truth.TRUE, "oracle"),
        (abhyankar, "forall c in K : v(c - theta) < 0", Truth.TRUE, "oracle"),
        (abhyankar, "forall c in K : v(theta^p - theta - c^p + c) < 0", Truth.TRUE, "oracle"),
        (abhyankar, "forall c in K : v(c - c^p - theta + theta^p) < 0", Truth.TRUE, "oracle"),
        (abhyankar, "exists c in K : v(c^p - c - theta^3 + theta) >= -1", Truth.TRUE,
         "oracle"),
        (kummer_mixed, "forall c in K : v(eta^p - c^p) < 3", Truth.TRUE, "oracle"),
        (kummer_mixed, "forall c in K : v(c^3 - eta^p) < 3", Truth.TRUE, "oracle"),
        # an extra summand that cancels leaves the shapes: the counts differ
        (abhyankar, "forall c in K : v(theta - c + c - c) < 0", Truth.UNKNOWN, "bounded"),
        (abhyankar, "exists c in K : v(theta^p - theta - c^p + c + c - c) < -1",
         Truth.TRUE, "bounded"),
        (kummer_mixed, "forall c in K : v(eta^p - c^p + c - c) < 3", Truth.UNKNOWN,
         "bounded"),
    ])
    def test_each_shape_in_both_orders_and_with_an_extra_summand(self, build, text,
                                                                 value, mode):
        res = evaluate(text, build(3).fmodel)
        assert (res.value, res.mode) == (value, mode)

    def test_approximants_of_a_late_tail(self):
        # theta = sum_{i>=3} t^(-1/2^i): the schedule starts at -1/8 and the
        # approximant b_k = partial_sum(k) is 0 for k < 3, so v(theta - b_k)
        # is not schedule[k]
        model = perfect_series_model(2)
        theta = PatternSeries(model, model.zero(),
                              (Tail(model.residue.one(), model.value_group.unit(0, -1), 3),))
        approach = approach_segment(theta, model)
        fm = FormulaModel(model, (ImmediateElement("theta", approach.segment,
                                                   approach.schedule, carrier=theta),))
        for k in range(6):
            b_k = Approximant("theta", k, theta.partial_sum(k))
            value = val_diff(theta, theta.partial_sum(k)).coords[0]
            res = evaluate(f"v(theta - b) = {value}", fm, bindings={"b": b_k})
            assert res.value is Truth.TRUE, k
        # every c with v(theta - c) = -1/32 has v(c) = -1/8
        res = evaluate("forall c in K : not (v(theta - c) = -1/32) or v(c) <= -1/16", fm)
        assert res.value is not Truth.FALSE, res.witness


# the bounded formulas of the definability benchmark, and one with nested
# bounded quantifiers
SQUARE_FORMULAS = (
    "forall c in K : v(theta - c*c) < v(b)",
    "exists c in K : v(theta - c*c) >= v(b)",
    "forall c in K : v(theta - c*c) < v(b*t)",
    "exists c in K : v(theta - c*c) >= v(b*t)",
)
NESTED_FORMULA = "forall d in K : exists c in K : v(theta - c*c) >= v(d)"
# bounded quantifiers over one atom that evaluate answers from the candidates'
# values: every order relation, the candidate side on the right, -v on either
# side, candidate 0 with v(c) = INF, a side candidate 0 does not value
# (-v(0)), and a product kummer-mixed values from its schedule
BOUNDED_ATOMS = (
    "forall c in K : v(theta - c*c) <= v(b)",
    "forall c in K : v(theta - c*c) > v(b)",
    "forall c in K : v(theta - c*c) >= v(b)",
    "exists c in K : v(theta - c*c) < v(b)",
    "exists c in K : v(theta - c*c) <= v(b)",
    "exists c in K : v(theta - c*c) > v(b)",
    "exists c in K : v(b) > v(theta - c*c)",
    "forall c in K : v(b) <= v(theta - c*c)",
    "exists c in K : v(theta - c*c) >= -v(b)",
    "forall c in K : -v(theta - c*c) < -v(b)",
    "forall c in K : v(c) < v(b)",
    "exists c in K : v(c) >= v(b*t)",
    "exists c in K : -v(c) > v(b)",
    # cofactors folded into the keys, then terms that do not fold
    "forall c in K : v(t - c) < v(b*t)",
    "exists c in K : v(theta - c*c) >= v(t*b*t)",
    "forall c in K : v(theta - c*c) < -v(t*b)",
    "exists c in K : v(theta - c*c) >= v(b*b)",
    "forall c in K : v(theta - c*c) < v(b^3*t)",
    # a side that is INF at c = t
    "exists c in K : v(t - c) > v(b)",
    "exists c in K : v((eta - c)*(eta - c)) >= v(b)",
)


def _counts(report):
    return (report.total, report.agreements, report.unknowns,
            [d["sample"] for d in report.disagreements])


def _zero(sc):
    """The zero of a scenario: the series 0, or the value-only v = INF."""
    return sc.model.zero() if sc.model.series_capable else DeclaredValue(INF)


def _evaluated_counts(text, direct, fmodel, samples):
    """check_definition's counts, computed by one evaluate per sample."""
    agreements = unknowns = 0
    bad = []
    for label, b, value in samples:
        got = evaluate(text, fmodel, bindings={"b": b}).value
        if got is Truth.UNKNOWN:
            unknowns += 1
        elif (got is Truth.TRUE) == membership(direct, value):
            agreements += 1
        else:
            bad.append(label)
    return len(samples), agreements, unknowns, bad


class TestGeneratorFacts:
    """inK(x^p) is read from kummer_generator and inK(x^p - x) from
    as_generator, without a carrier; a carrier answers where no fact does."""

    @staticmethod
    def _with_x(fm, facts, carrier=None):
        x = ImmediateElement("x", fm.immediates[0].segment, (), carrier=carrier,
                             facts=frozenset(facts))
        return rebuilt(fm, immediates=(x,))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_the_fact_answers_without_a_carrier(self, p):
        fm = abhyankar(p).fmodel
        for facts, text, want in (
                ({"as_generator"}, "inK(x^p - x)", Truth.TRUE),
                ({"as_generator"}, f"inK(x^{p} - x)", Truth.TRUE),
                ({"as_generator"}, f"inK(x^{p * p} - x)", Truth.UNKNOWN),
                ({"as_generator"}, "inK(x^p - t)", Truth.UNKNOWN),
                ({"as_generator"}, "inK(x^p)", Truth.UNKNOWN),
                ({"kummer_generator"}, "inK(x^p - x)", Truth.UNKNOWN),
                ({"kummer_generator"}, "inK(x^p)", Truth.TRUE),
                ((), "inK(x^p - x)", Truth.UNKNOWN),
                ((), "inK(x^p)", Truth.UNKNOWN)):
            res = evaluate(text, self._with_x(fm, facts))
            assert (res.value, res.mode) == (want, "oracle"), (facts, text)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_a_carrier_answers_without_the_fact(self, p):
        # x^p - x of a pattern is a series: each tail's Frobenius image starts
        # one place earlier, so the two cancel past its first term; x^p keeps
        # the tails
        fm = abhyankar(p).fmodel
        root = fm.immediates[0].carrier
        m = root.model
        late = PatternSeries(m, m.one(), tuple(Tail(t.coeff, t.gamma, t.start + 1)
                                               for t in root.tails))
        for carrier in (root, late, -root):
            for text, want in (("inK(x^p - x)", Truth.TRUE), ("inK(x^p)", Truth.FALSE)):
                res = evaluate(text, self._with_x(fm, (), carrier))
                assert (res.value, res.mode) == (want, "oracle"), (carrier, text)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_the_fact_answers_in_either_summand_order(self, p):
        # x - x^p is the negative of x^p - x, so it lies in K with it
        fm = abhyankar(p).fmodel
        orders = ("inK(x^p - x)", "inK(x - x^p)")
        for facts, texts, want in (
                ({"as_generator"}, orders, Truth.TRUE),
                ((), orders, Truth.UNKNOWN),
                ({"kummer_generator"}, orders, Truth.UNKNOWN),
                ({"as_generator"}, (f"inK(x^{p * p} - x)", f"inK(x - x^{p * p})"),
                 Truth.UNKNOWN),
                ({"as_generator"}, ("inK(t - x^p)", "inK(x^p - x^p)"), Truth.UNKNOWN)):
            for text in texts:
                res = evaluate(text, self._with_x(fm, facts))
                assert (res.value, res.mode) == (want, "oracle"), (facts, text)
        root = fm.immediates[0].carrier
        for text in orders:   # a carrier without the fact still answers
            res = evaluate(text, self._with_x(fm, (), root))
            assert (res.value, res.mode) == (Truth.TRUE, "oracle"), text

    def test_the_definitions_compile_from_the_fact_alone(self):
        for build in (abhyankar, example_e1):
            for p in (2, 3):
                fm = build(p).fmodel
                bare = rebuilt(fm, immediates=tuple(rebuilt(im, carrier=None)
                                                    for im in fm.immediates))
                for name in ("ram-ideal-as", "max-ideal"):
                    want = value_set(DEFINITIONS[name], fm)
                    assert want is not None
                    assert value_set(DEFINITIONS[name], bare) == want, (build, p, name)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_declared_as_generator_has_a_base_field_image(self, p):
        # the as_generator fact stands for theta^p - theta in K, which the
        # carrier shows: its Frobenius minus itself has no tails
        seen = 0
        for build in (abhyankar, example_e1, example_e2):
            sc = build(p, depth=6)
            carriers = [im.carrier for im in sc.fmodel.immediates
                        if "as_generator" in im.facts]
            carriers += [r.datum.generator for r in sc.results]
            for theta in carriers:
                assert theta is not None and theta.has_tails
                assert not (theta.frobenius() - theta).has_tails
                seen += 1
        assert seen == 2 + 3 + 2   # example-e1 declares theta_x and theta_t


class TestCandidatePool:
    """Each formula model builds one bounded candidate pool."""

    @staticmethod
    def outcomes(fmodel, samples):
        return [evaluate(text, fmodel, bindings={"b": b}).to_json()
                for text in SQUARE_FORMULAS for _, b, _ in samples]

    def test_reused_pool_gives_fresh_results(self):
        shared = example_e1(2).fmodel
        samples = series_samples(shared.model, 4, 3)
        for _ in range(2):
            fresh = example_e1(2).fmodel
            assert self.outcomes(shared, samples) == self.outcomes(fresh, samples)
            assert shared.candidates is shared.candidates
        assert len(shared.candidates) == 44

    def test_models_do_not_share_a_pool(self):
        a = example_e1(2).fmodel
        pool = a.candidates
        for other in (example_e1(2).fmodel, rebuilt(a), abhyankar(2).fmodel):
            own = other.candidates
            assert own is not pool
            assert dict(own)["0"].model == other.model
        assert a.candidates is pool

    def test_pool_is_the_fraction_builders(self):
        # the monomials built on integers are those Fraction and the checked
        # element build, in labels, values and order
        pools = [build(p).fmodel for build, primes in ((abhyankar, (2, 3, 5, 7)),
                                                        (example_e1, (2, 3, 5)),
                                                        (example_e2, (2, 3)),
                                                        (kummer_mixed, (3,)))
                 for p in primes]
        # the classes of the last coordinate skip what is outside the group
        pools += [FormulaModel(FieldModel("F", p, GroupDescriptor(classes, p)), ())
                  for classes in ((Component.INT,), (Component.PDIV, Component.INT),
                                  (Component.INT, Component.RAT), (Component.RAT,))
                  for p in (2, 3)]
        for fm in pools:
            assert tuple(fm._witnesses()) == tuple(reference_witnesses(fm)), fm.model.name
            assert fm.candidates == tuple(islice(reference_witnesses(fm), 64))
        assert sum(len(fm.candidates) for fm in pools[:9]) == 516

    def test_check_definition_batch_matches_fresh_evaluation(self):
        sc = example_e1(2)
        samples = series_samples(sc.model, 8, 5)
        direct = ConvexSubgroup(sc.model.value_group, 1)
        rep = check_definition(SQUARE_FORMULAS[1], direct, sc.fmodel, samples)
        assert _counts(rep) == _evaluated_counts(SQUARE_FORMULAS[1], direct,
                                                 example_e1(2).fmodel, samples)


class TestCandidateValuations:
    """The one valuation a model keeps, a compiled bounded side's value on each
    candidate, is shared by every formula with that side and changes no answer."""

    @staticmethod
    def calls(fmodel):
        samples = series_samples(fmodel.model, 4, 7)
        calls = [(text, {"b": b}) for text in SQUARE_FORMULAS for _, b, _ in samples]
        calls.append((NESTED_FORMULA, {}))
        # the inner c is an element of L\K, not the candidate the outer c holds
        calls += [("exists c in K : v(c) < -5 or (exists c in L\\K : v(c - t) > 0)", {}),
                  ("forall c in K : v(c - t) < 0", {})]
        # theta bound by the caller hides the model's theta
        calls += [(text, {"theta": samples[1][1], "b": samples[2][1]})
                  for text in SQUARE_FORMULAS[:2]]
        # a term that names only an element of L\K, read under a K loop
        calls += [("exists x in L\\K : forall c in K : v(x - c*c) < v(x)", {}),
                  ("v(b) >= 0 and (exists b in L\\K : forall c in K : v(b - c*c) < v(b))",
                   {"b": samples[1][1]})]
        # each quantified variable hides a name the other formula reads from
        # the model, so v(theta - t) means two things on one candidate
        calls += [("forall t in K : v(theta - t) < 0", {}),
                  ("forall theta in K : v(theta - t) < 0", {})]
        return calls

    @pytest.mark.parametrize("build", [abhyankar, example_e1])
    def test_cache_never_changes_an_answer(self, build):
        shared = build(2).fmodel
        calls = self.calls(shared)
        for _ in range(2):   # the second pass reads a warm cache throughout
            for text, bindings in calls:
                warm = evaluate(text, shared, bindings=bindings).to_json()
                cold = evaluate(text, rebuilt(shared), bindings=bindings).to_json()
                for key, value in cold.items():
                    assert warm[key] == value, (text, sorted(bindings), key)
        # one value per candidate for each side the compiler kept
        assert shared.side_values and rebuilt(shared).side_values == {}
        own = {*shared.constants, *(im.name for im in shared.immediates), "p", "zeta_p"}
        for (side, var), values in shared.side_values.items():
            assert len(values) == len(shared.candidates)
            names = free_variables(side)
            # the quantified variable, otherwise only names of the model
            assert var in names and names - {var} <= own and "b" not in names, side

    @pytest.mark.parametrize("build,p", [(abhyankar, 2), (abhyankar, 5), (example_e1, 2),
                                         (example_e1, 3), (example_e2, 2), (kummer_mixed, 3)])
    def test_side_values_are_the_carriers(self, build, p):
        # each side value is v of the carrier built whole, x ± s for a pattern
        # x, where the walk values x against s by one val_diff
        fm = build(p).fmodel
        for text in SQUARE_FORMULAS + BOUNDED_ATOMS + (DEFINITIONS["coarse-ring-as"],):
            if free_variables(parse(text)) <= fm.names | {"b"}:
                formlang._compiled(parse(text), fm, "b")
        patterns = 0
        for (side, var), values in fm.side_values.items():
            for (label, cand), got in zip(fm.candidates, values):
                ev = _Evaluator(fm, {var: cand})
                try:
                    carrier = ev.term_carrier(side.term)
                except EvaluationUnsupported:
                    continue
                want = formlang._carrier_valuation(carrier)
                if side.negated:
                    want = None if want is INF else -want
                assert got == want, (print_formula(side), label)
                patterns += isinstance(carrier, PatternSeries) and carrier.has_tails
        assert patterns >= (0 if build is kummer_mixed else len(fm.candidates))

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_pattern_and_a_series_in_either_order(self, p):
        # v(x ± s) and v(s ± x) for theta, -theta and a shifted theta against
        # the approximants, 0, t and -t: one val_diff, as the carrier x ± s
        fm = abhyankar(p).fmodel
        model = fm.model
        theta = fm.immediates[0].carrier
        t = fm.constants["t"]
        xs = (theta, -theta, theta + model.monomial(1, model.value_group.element(-3)))
        ss = [theta.partial_sum(k) for k in range(6)]
        ss += [model.zero(), t, -t, -theta.partial_sum(2)]
        for x in xs:
            for s in ss:
                ev = _Evaluator(fm, {"x": x, "s": s})
                for node, carrier in ((Sub(Var("x"), Var("s")), x - s),
                                      (Sub(Var("s"), Var("x")), s - x),
                                      (Add(Var("x"), Var("s")), x + s),
                                      (Add(Var("s"), Var("x")), s + x)):
                    assert ev.term_valuation(node) == formlang._carrier_valuation(carrier)

    @pytest.mark.parametrize("build", [abhyankar, example_e1])
    def test_the_sq_formulas_share_one_side_computation(self, build, monkeypatch):
        theta_minus_square = Sub(Var("theta"), Mul(Var("c"), Var("c")))
        original = _Evaluator.term_valuation
        valued = []

        def counting(self, t):
            valued.append(t)
            return original(self, t)

        monkeypatch.setattr(_Evaluator, "term_valuation", counting)
        fm = build(2).fmodel
        for model in (fm, rebuilt(fm)):   # a copy starts with an empty table
            assert model.side_values == {}
            valued.clear()
            for text in SQUARE_FORMULAS:
                assert formlang._compiled(parse(text), model, "b")[1]
            assert valued.count(theta_minus_square) == len(model.candidates)


# formulas in which a quantifier rebinds b or c after v(b) or v(b*t) was
# valued, or that value one term under many bindings, with their answers on
# example_e1(2) at b = t^(7,0) and t^(-1/2,0), as (value, mode, witness,
# candidates_used); each answer is the same whether a walk values every term
# afresh or keeps v(term) per candidate and per evaluate
SHADOWING = {
    "exists c in K : v(theta - c*c) >= v(b) and forall b in K : v(theta - c*c) < v(b)": (
        ("UNKNOWN", "bounded", "theta~1", 594), ("UNKNOWN", "bounded", "theta~1", 594)),
    "v(b) >= 0 and (exists b in L\\K : v(b) < 0)": (
        ("TRUE", "oracle", None, 0), ("FALSE", "oracle", None, 0)),
    "(exists b in L\\K : v(b) < 0) and v(b) >= 0": (
        ("TRUE", "oracle", None, 0), ("FALSE", "oracle", None, 0)),
    "v(b*t) > 0 and (forall b in L\\K : v(b*t) < 0) and v(b*t) > v(theta)": (
        ("TRUE", "oracle", None, 0), ("FALSE", "oracle", None, 0)),
    "forall c in K : v(theta - c*c) < v(b*t) or (exists c in L\\K : v(c) < v(b))": (
        ("UNKNOWN", "bounded", None, 44), ("UNKNOWN", "bounded", None, 44)),
    "exists c in K : (exists b in L\\K : v(b - c) >= v(b)) and v(theta - c*c) >= v(b)": (
        ("UNKNOWN", "bounded", None, 44), ("TRUE", "bounded", "theta~0", 1)),
    "forall c in K : v(theta - c*c) < v(b) or (forall b in L\\K : v(b) > v(c)) or v(b) > 0": (
        ("UNKNOWN", "bounded", None, 44), ("FALSE", "bounded", "theta~0", 1)),
    SQUARE_FORMULAS[0]: (
        ("UNKNOWN", "bounded", None, 44), ("FALSE", "bounded", "theta~0", 1)),
    SQUARE_FORMULAS[2]: (
        ("UNKNOWN", "bounded", None, 44), ("UNKNOWN", "bounded", None, 44)),
    NESTED_FORMULA: (
        ("UNKNOWN", "bounded", "theta~0", 1507), ("UNKNOWN", "bounded", "theta~0", 1507)),
    "exists x in L\\K : forall c in K : v(x - c*c) < v(b)": (
        ("UNKNOWN", "bounded", None, 44), ("FALSE", "bounded", "theta~0", 1)),
    "v(b) >= 0 and (exists b in L\\K : v(b) < 0) and v(b) >= 0": (
        ("TRUE", "oracle", None, 0), ("FALSE", "oracle", None, 0)),
    "(exists b in L\\K : v(b) < v(t)) and v(b) >= v(t)": (
        ("TRUE", "oracle", None, 0), ("FALSE", "oracle", None, 0)),
    "exists x in L\\K : exists c in K : v(x*b) < v(c) and v(c) > 100": (
        ("UNKNOWN", "bounded", None, 44), ("UNKNOWN", "bounded", None, 44)),
    "exists x in L\\K : exists c in K : v(x - c*c) < v(x) and v(c) > 100": (
        ("UNKNOWN", "bounded", None, 44), ("UNKNOWN", "bounded", None, 44)),
}


class TestCallerValuations:
    """A name a quantifier rebinds is read under its new binding."""

    @pytest.mark.parametrize("text", list(SHADOWING))
    def test_a_rebound_name_is_valued_again(self, text):
        fm = example_e1(2).fmodel
        for b, want in zip(("t^(7,0)", "t^(-1/2,0)"), SHADOWING[text]):
            for _ in range(2):   # cold, then with the candidate valuations warm
                res = evaluate(text, fm, bindings={"b": parse_element(fm.model, b)})
                assert (res.value.value, res.mode, res.witness, res.candidates_used) == want


class TestForcedBoundedAgreesWithOracle:
    """Bounded enumeration, forced by an oracle that declines every quantifier,
    gives the oracle's answer wherever both decide.

    The five definitions on their scenarios (as in the definability benchmark)
    on 20 seeded samples each make 140 pairs.  Bounded enumeration decides 64
    of them (46%); the oracle decides all 140.  On kummer-mixed, with value-only
    samples and approximants without carriers, bounded enumeration decides 11
    of 40, all of them ram-ideal-kummer.
    """

    TARGETS = (
        (abhyankar, 2, ("ram-ideal-as", "max-ideal", "coarse-ring-as")),
        (example_e1, 2, ("ram-ideal-as", "max-ideal")),
        (kummer_mixed, 3, ("ram-ideal-kummer", "coarse-ring-kummer")),
    )

    def test_forced_bounded_matches_the_oracle(self, monkeypatch):
        pairs = decided = 0
        for build, p, names in self.TARGETS:
            sc = build(p)
            fm = sc.fmodel
            samples = (series_samples(sc.model, 20, 29) if sc.model.series_capable
                       else declared_samples(sc.model.value_group, 20, 29))
            oracle = {(name, label): evaluate(DEFINITIONS[name], fm, bindings={"b": b})
                      for name in names for label, b, _ in samples}
            with monkeypatch.context() as patch, forced_walk():
                # neither the oracle nor a compiled value set answers
                patch.setattr(_Evaluator, "_oracle", lambda self, q: None)
                for name in names:
                    for label, b, _ in samples:
                        cold = evaluate(DEFINITIONS[name], rebuilt(fm), bindings={"b": b})
                        warm = evaluate(DEFINITIONS[name], fm, bindings={"b": b})
                        assert cold == warm, (name, label)
                        want = oracle[name, label]
                        assert want.mode == "oracle"
                        pairs += 1
                        if cold.value is not Truth.UNKNOWN:
                            decided += 1
                            assert cold.value is want.value, (name, label)
        assert (pairs, decided) == (140, 64)


class TestValueSet:
    """Each definition compiles to its value set, and the compiled answer is
    the one evaluate gives sample by sample."""

    TARGETS = (
        (abhyankar, "theta", ("ram-ideal-as", "max-ideal", "coarse-ring-as")),
        (example_e1, "theta_x", ("ram-ideal-as", "max-ideal")),
        (kummer_mixed, "eta", ("ram-ideal-kummer", "coarse-ring-kummer")),
    )

    @staticmethod
    def direct(res, name):
        if name.startswith("coarse-ring"):
            return res.H_E
        return res.max_ideal if name == "max-ideal" else res.ram_ideal

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_definitions_compile_to_the_direct_object(self, p):
        for build, result, names in self.TARGETS:
            sc = build(p)
            res = sc.result(result)
            for name in names:
                direct = self.direct(res, name)
                want = (coarsening(direct.group, direct.level)[1].values
                        if name.startswith("coarse-ring") else direct.values)
                assert value_set(DEFINITIONS[name], sc.fmodel) == want, (
                    build.__name__, name)
                # 0 lies in every ideal and ring
                assert evaluate(DEFINITIONS[name], sc.fmodel,
                                bindings={"b": _zero(sc)}).value is Truth.TRUE

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_compiled_answer_is_the_evaluated_one(self, p):
        for build, result, names in self.TARGETS:
            sc = build(p)
            res = sc.result(result)
            for seed in (0, 1, 2):
                samples = samples_for(sc, 50, seed)
                for name in names:
                    values = value_set(DEFINITIONS[name], sc.fmodel)
                    for label, b, v in samples:
                        got = evaluate(DEFINITIONS[name], sc.fmodel, bindings={"b": b})
                        assert got.value is Truth.of(contains(values, v)), (name, label)
                    direct = self.direct(res, name)
                    rep = check_definition(DEFINITIONS[name], direct, sc.fmodel, samples)
                    assert _counts(rep) == _evaluated_counts(
                        DEFINITIONS[name], direct, sc.fmodel, samples)

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_zero_sample_is_evaluated(self, p):
        # a compiled set holds finite values only; b = 0 takes evaluate's answer
        for build, result, names in self.TARGETS:
            sc = build(p)
            res = sc.result(result)
            samples = [("0", _zero(sc), INF), *samples_for(sc, 8, 5)]
            for name in names:
                direct = self.direct(res, name)
                rep = check_definition(DEFINITIONS[name], direct, sc.fmodel, samples)
                assert _counts(rep) == _evaluated_counts(
                    DEFINITIONS[name], direct, sc.fmodel, samples)
                assert rep.passed and rep.unknowns == 0, name
        # FALSE at b = 0 although the value set is compiled
        sc = abhyankar(p)
        text = "exists c in K : v(theta - c) >= v(b)"
        assert value_set(text, sc.fmodel) is not None
        assert evaluate(text, sc.fmodel, bindings={"b": _zero(sc)}).value is Truth.FALSE
        samples = [("0", _zero(sc), INF), *samples_for(sc, 8, 5)]
        direct = sc.result("theta").ram_ideal
        rep = check_definition(text, direct, sc.fmodel, samples)
        assert _counts(rep) == _evaluated_counts(text, direct, sc.fmodel, samples)

    def test_a_value_of_another_group_raises(self):
        # the compiled membership test keeps contains' foreign-group error
        fm = abhyankar(2).fmodel
        other = GroupDescriptor((Component.PDIV,), 3)
        for name in ("ram-ideal-as", "max-ideal", "coarse-ring-as"):
            with pytest.raises(StructuralError, match="different group descriptor"):
                evaluate(DEFINITIONS[name], fm,
                         bindings={"b": DeclaredValue(other.element(Fraction(1, 3)))})

    OUTSIDE = (
        "forall c in K : v(theta^p - theta - c^p + c) < v(b*t)",
        "inK(b)",
    ) + SQUARE_FORMULAS

    @pytest.mark.parametrize("text", OUTSIDE)
    def test_outside_the_shapes_falls_back_to_evaluation(self, text):
        sc = example_e1(2)
        assert value_set(text, sc.fmodel) is None
        samples = series_samples(sc.model, 6, 23)
        direct = sc.result("theta_x").max_ideal
        rep = check_definition(text, direct, sc.fmodel, samples)
        assert _counts(rep) == _evaluated_counts(text, direct, sc.fmodel, samples)

    def test_merge_declines_what_is_no_nested_pair(self):
        g = GroupDescriptor((Component.PDIV,), 2)
        final = element_cut(g.element(1))
        initial = element_cut(g.element(1), direction=Direction.INITIAL)
        for union in (True, False):
            assert formlang._merge(None, final, union) is None
            assert formlang._merge(final, None, union) is None
            # cuts of opposite directions are not nested
            assert formlang._merge(initial, final, union) is None
            # True absorbs a union and False an intersection; the other is neutral
            assert formlang._merge(union, final, union) is union
            assert formlang._merge(final, not union, union) is final

    def test_elements_of_L_minus_K_merge_nested_cuts(self):
        # both wild witnesses of example-e1 as elements of L\K: H_1 and H_2
        sc = example_e1(2)
        fm = rebuilt(sc.fmodel, immediates=tuple(
            ImmediateElement(r.datum.name, r.approach.segment, r.approach.schedule,
                             carrier=r.datum.generator, facts=frozenset({"as_generator"}))
            for r in sc.results))
        ideals = [r.ram_ideal.values for r in sc.results]
        assert ideals[0] != ideals[1]
        some = DEFINITIONS["ram-ideal-as"]
        every = some.replace("exists x", "forall x", 1)
        for text, want in ((some, ideals[1]), (every, ideals[0])):
            values = value_set(text, fm)
            assert values == want
            for label, b, v in series_samples(sc.model, 30, 4):
                got = evaluate(text, fm, bindings={"b": b}).value
                assert got is Truth.of(contains(values, v)), (text, label)

    def test_a_guard_is_evaluated_once(self):
        sc = abhyankar(3)
        atom = "v(theta^p - theta - c^p + c) < v(b)"
        inner = value_set(f"forall c in K : {atom}", sc.fmodel)
        samples = series_samples(sc.model, 20, 8)
        # inK(theta) is FALSE, inK(theta^p - theta) and inK(t) are TRUE; nested
        # guards fold from the inside out
        for body, want in ((f"inK(theta) and {atom}", False),
                           (f"inK(theta) -> {atom}", True),
                           (f"inK(theta^p - theta) and {atom}", inner),
                           (f"inK(theta^p - theta) -> {atom}", inner),
                           (f"inK(t) and (inK(theta) and {atom})", False),
                           (f"inK(theta) -> (inK(t) and {atom})", True),
                           (f"inK(t) and (inK(theta) -> {atom})", True),
                           (f"inK(t) -> (inK(t) and {atom})", inner)):
            text = f"forall c in K : {body}"
            assert value_set(text, sc.fmodel) == want, text
            for label, b, v in samples:
                got = evaluate(text, sc.fmodel, bindings={"b": b})
                assert (got.value, got.mode) == (Truth.of(_holds(want, v)), "oracle"), (
                    text, label)
        # an UNKNOWN guard leaves the formula to evaluation
        assert evaluate("inK(theta * theta)", sc.fmodel).value is Truth.UNKNOWN
        assert value_set(f"forall c in K : inK(theta * theta) and {atom}",
                         sc.fmodel) is None

    def test_a_shape_needs_its_segment_below_the_bound(self):
        # v(y^p - y) = p * v(y) needs every v(x - c) below 0, and
        # v(x^p - c^p) = p * v(x - c) every v(x - c) below v(zeta_p - 1) = 1
        for build, fact, text, bound in (
                (abhyankar, "as_generator",
                 "forall c in K : v(x^p - x - c^p + c) < v(b)", 0),
                (kummer_mixed, "kummer_generator",
                 "forall c in K : v(x^p - c^p) < v(b)", 1)):
            fm = build(3).fmodel
            g = fm.group
            facts = frozenset({fact, "one_unit"})
            for end, closed, compiles in ((bound, False, True), (bound, True, False),
                                          (bound - 1, True, True), (bound + 1, False, False)):
                seg = element_cut(g.element(end), closed=closed, direction=Direction.INITIAL)
                x = rebuilt(fm, immediates=(ImmediateElement("x", seg, (), facts=facts),))
                assert (value_set(text, x) is not None) is compiles, (text, seg)
                got = evaluate(text, x, bindings={"b": DeclaredValue(g.element(5))})
                assert (got.mode == "oracle") is compiles, (text, seg)

    @pytest.mark.parametrize("closed", [True, False])
    def test_every_quantifier_and_relation_against_brute_force(self, closed):
        # x with v(x - K) = {s <= -1} or {s < -1}, and value-only samples b
        fm = kummer_mixed(3).fmodel
        g = fm.group
        top = Fraction(-1)
        seg = element_cut(g.element(top), closed=closed, direction=Direction.INITIAL)
        fm = rebuilt(fm, immediates=(ImmediateElement("x", seg, ()),))
        # a monotone relation over s in the segment is decided at its two ends
        ends = (top if closed else top - Fraction(1, 10**6), top - 10**6)
        ops = {"<": Fraction.__lt__, "<=": Fraction.__le__, ">": Fraction.__gt__,
               ">=": Fraction.__ge__}
        grid = [top + Fraction(k, 2) for k in range(-6, 7)]
        for kind in ("exists", "forall"):
            for rel in ("<", "<=", "=", ">=", ">"):
                for c_sign, b_sign in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    text = (f"{kind} c in K : {'-' * (c_sign < 0)}v(x - c) {rel} "
                            f"{'-' * (b_sign < 0)}v(b)")
                    values = value_set(text, fm)
                    for w in grid:
                        r = b_sign * w
                        if rel == "=":   # r is a value of the c side, never all of them
                            hit = c_sign * r < top or (closed and c_sign * r == top)
                            want = kind == "exists" and hit
                        else:
                            tests = [ops[rel](c_sign * s, r) for s in ends]
                            want = any(tests) if kind == "exists" else all(tests)
                        got = evaluate(text, fm, bindings={"b": DeclaredValue(g.element(w))})
                        assert (got.value, got.mode) == (Truth.of(want), "oracle"), (text, w)
                        assert _holds(values, g.element(w)) is want, (text, w)

    def test_zeroth_power_is_the_constant_zero(self):
        fm = abhyankar(3).fmodel
        g = fm.group
        for text, want in (("forall c in K : v((theta - c)^0) < v(t)", Truth.TRUE),
                           ("exists c in K : v((theta - c)^0) >= v(t)", Truth.FALSE),
                           ("forall c in K : v((theta - c)^0 * t) <= v(t)", Truth.TRUE)):
            res = evaluate(text, fm)
            assert (res.value, res.mode) == (want, "oracle"), text
        # the compiled path: {w : 0 < w} and {w : 0 >= w}, shifted by a cofactor
        for text, want in (
                ("forall c in K : v((theta - c)^0) < v(b)",
                 element_cut(g.zero(), closed=False)),
                ("exists c in K : v((theta - c)^0) >= v(b)",
                 element_cut(g.zero(), direction=Direction.INITIAL)),
                ("exists c in K : -v(t * (theta - c)^0) > v(b)",
                 element_cut(g.element(-1), closed=False, direction=Direction.INITIAL))):
            assert value_set(text, fm) == want, text
        # {w : w = 0} is no cut
        assert value_set("exists c in K : v((theta - c)^0) = v(b)", fm) is None


def _cli_targets():
    """Each (scenario, p, definition name, direct object) a scenario report checks."""
    for command, build in (("abhyankar", abhyankar), ("example-e1", example_e1),
                           ("kummer-mixed", kummer_mixed)):
        for p in (2, 3, 5, 7):
            sc = build(p)
            for name, direct in cli._definability_targets(command, sc):
                yield sc, p, name, direct


def _edge_samples(sc, seg):
    """Samples at the shift of the cut seg and one unit to either side, in its
    cut class and, below it, in the last class."""
    g = sc.model.value_group
    units = [g.unit(seg.level - 1, k) for k in (-1, 1)]
    if seg.level < g.rank:
        units += [g.unit(g.rank - 1, k) for k in (-1, 1)]
    points = [seg.shift] + [seg.shift + u for u in units]
    carrier = sc.model.monomial if sc.model.series_capable else None
    return [(f"edge {v}", carrier(1, v) if carrier else DeclaredValue(v), v) for v in points]


class TestCutComplement:
    def test_complement_and_maximum_removal_are_canonical(self):
        # the complement flips closedness, so over a discrete class it must be
        # closed again one unit over: both go through the full constructor
        rng = random.Random(2903)
        reclosed = 0
        for _ in range(400):
            G = random_group(rng)
            seg = random_cut(rng, G)
            out = formlang._complement(seg)
            assert out == Segment(seg.direction.flipped(), seg.level, seg.shift, not seg.closed)
            assert is_canonical(out), out
            reclosed += out.closed == seg.closed
            for x in (random_group_element(rng, G) for _ in range(6)):
                assert contains(out, x) != contains(seg, x)
            if not seg.is_final:
                less = formlang._without_max(seg)
                assert is_canonical(less), less
                assert less == (Segment(seg.direction, seg.level, seg.shift, False)
                                if seg.kind is CutKind.ELEMENT else seg)
                assert not contains(less, seg.shift) or seg.kind is not CutKind.ELEMENT
        assert reclosed >= 50


class TestExactComparison:
    """check_definition compares a definition's compiled value set with the
    direct object's once; while they are equal, a sample whose carrier has its
    declared finite valuation agrees without an evaluate call."""

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def counting(phi, fmodel, bindings=None):
            calls.append(bindings)
            return evaluate(phi, fmodel, bindings)

        monkeypatch.setattr(formlang, "evaluate", counting)
        return calls

    def test_every_cli_target_is_settled_without_evaluate(self, monkeypatch):
        calls = self.counted(monkeypatch)
        checked = 0
        for sc, p, name, direct in _cli_targets():
            edges = _edge_samples(sc, formlang._direct_values(direct))
            samples = [*samples_for(sc, 50, p), *edges]
            rep = check_definition(DEFINITIONS[name], direct, sc.fmodel, samples)
            assert not calls, (name, p)
            want = _evaluated_counts(DEFINITIONS[name], direct, sc.fmodel, samples)
            calls.clear()
            assert _counts(rep) == want and rep.passed and not rep.unknowns, (name, p)
            checked += 1
        assert checked == 28

    @pytest.mark.parametrize("command,build", [("abhyankar", abhyankar),
                                               ("example-e1", example_e1),
                                               ("kummer-mixed", kummer_mixed)])
    def test_a_wrong_direct_object_is_evaluated_sample_by_sample(self, monkeypatch,
                                                                  command, build):
        calls = self.counted(monkeypatch)
        sc = build(3)
        g = sc.model.value_group
        targets = cli._definability_targets(command, sc)
        disagreeing = 0
        for name, direct in targets:
            seg = formlang._direct_values(direct)
            samples = [*samples_for(sc, 20, 4), *_edge_samples(sc, seg)]
            # shifted by one coset of its cut class, and flipped open/closed
            for wrong in (shift(seg, g.unit(seg.level - 1)),
                          Segment(seg.direction, seg.level, seg.shift, not seg.closed)):
                assert wrong != seg
                wrong = IdealDescriptor(wrong)
                rep = check_definition(DEFINITIONS[name], wrong, sc.fmodel, samples)
                assert len(calls) == len(samples), name
                calls.clear()
                assert _counts(rep) == _evaluated_counts(DEFINITIONS[name], wrong,
                                                         sc.fmodel, samples), name
                disagreeing += bool(rep.disagreements)
        assert disagreeing == 2 * len(targets)

    def test_infinite_and_mislabelled_samples_are_evaluated(self, monkeypatch):
        calls = self.counted(monkeypatch)
        for p in (2, 3):
            sc = abhyankar(p)
            res = sc.result("theta")
            g = sc.model.value_group
            # 0 has no finite valuation; t^1 is declared to have value 0
            odd = [("0", sc.model.zero(), INF),
                   ("t labelled 1", sc.model.monomial(1, g.element(1)), g.zero())]
            samples = [*samples_for(sc, 10, 1), *odd]
            for name, direct in (("ram-ideal-as", res.ram_ideal),
                                 ("max-ideal", res.max_ideal),
                                 ("coarse-ring-as", res.H_E)):
                rep = check_definition(DEFINITIONS[name], direct, sc.fmodel, samples)
                assert [b["b"] for b in calls] == [b for _, b, _ in odd], name
                want = _evaluated_counts(DEFINITIONS[name], direct, sc.fmodel, samples)
                calls.clear()
                assert _counts(rep) == want, name
            # v(t) = 1 lies in the maximal ideal and its declared 0 does not
            rep = check_definition(DEFINITIONS["max-ideal"], res.max_ideal, sc.fmodel, odd)
            assert [d["sample"] for d in rep.disagreements] == ["t labelled 1"]
            calls.clear()
        # kummer-mixed's eta has a schedule and no series, so no valuation
        sc = kummer_mixed(3)
        res = sc.result("eta")
        eta = sc.fmodel.immediate("eta")
        samples = [*samples_for(sc, 10, 1), ("eta", eta, sc.model.value_group.zero())]
        rep = check_definition(DEFINITIONS["coarse-ring-kummer"], res.H_E, sc.fmodel, samples)
        assert [b["b"] for b in calls] == [eta]
        calls.clear()
        assert _counts(rep) == _evaluated_counts(DEFINITIONS["coarse-ring-kummer"], res.H_E,
                                                 sc.fmodel, samples)

    def test_a_b_the_model_names_is_evaluated(self, monkeypatch):
        # the compiled set equals the direct one, but evaluate walks: b is a
        # constant of the model, which no compiled answer reads
        calls = self.counted(monkeypatch)
        sc = abhyankar(3)
        res = sc.result("theta")
        b = sc.model.monomial(1, sc.model.value_group.element(5))
        fm = rebuilt(sc.fmodel, constants={**sc.fmodel.constants, "b": b})
        samples = samples_for(sc, 10, 2)
        for name, direct in (("ram-ideal-as", res.ram_ideal), ("coarse-ring-as", res.H_E)):
            assert value_set(DEFINITIONS[name], fm) == formlang._direct_values(direct)
            rep = check_definition(DEFINITIONS[name], direct, fm, samples)
            assert len(calls) == len(samples), name
            calls.clear()
            assert _counts(rep) == _evaluated_counts(DEFINITIONS[name], direct, fm, samples)

    def test_a_direct_object_of_no_kind_is_rejected(self):
        # a formula answered from its candidates has no value set either
        sc = example_e1(2)
        seg = sc.result("theta_x").max_ideal.values
        for text in (DEFINITIONS["max-ideal"], SQUARE_FORMULAS[0]):
            with pytest.raises(StructuralError, match="must be an ideal or a convex"):
                check_definition(text, seg, sc.fmodel, samples_for(sc, 5, 0))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_coarsening_cut_is_membership(self, rank):
        for components in ([Component.INT] * rank, [Component.PDIV] * rank,
                           [Component.INT, Component.RAT, Component.PDIV, Component.INT][:rank]):
            g = GroupDescriptor(tuple(components), 2)
            points = list(grid_points(g, 2, 1 if rank < 4 else 0))
            for level in range(1, rank + 1):
                H = ConvexSubgroup(g, level)
                cut = subgroup_cut(H, closed=True)
                assert all(contains(cut, v) == membership(H, v) for v in points), level
            # H_0 is the whole group: every value, which a cut cannot describe
            assert all(membership(ConvexSubgroup(g, 0), v) for v in points)

    def test_membership_reads_the_direct_value_set(self):
        # a coarsening by H holds the values not below H, brute force, at
        # every level; an ideal holds its value set; both hold INF
        rng = random.Random(35)
        for _ in range(60):
            g = random_group(rng)
            points = [g.zero(), *(random_group_element(rng, g) for _ in range(25))]
            for level in range(g.rank + 1):
                H = ConvexSubgroup(g, level)
                assert membership(H, INF), level
                for v in points:
                    assert membership(H, v) == (position(v, H) >= 0), (g, level, v)
            I = IdealDescriptor(Segment(Direction.FINAL, rng.randint(1, g.rank),
                                        random_group_element(rng, g), rng.random() < 0.5))
            assert membership(I, INF)
            assert all(membership(I, v) == contains(I.values, v) for v in points), I

    def test_a_direct_object_of_no_kind_raises_from_membership_and_the_verdict(self):
        sc = example_e1(2)
        g = sc.model.value_group
        for direct in (sc.result("theta_x").max_ideal.values, g.zero(), None):
            for value in (g.zero(), INF):
                with pytest.raises(StructuralError, match="must be an ideal or a convex"):
                    membership(direct, value)
            with pytest.raises(StructuralError, match="must be an ideal or a convex"):
                exact_verdict(DEFINITIONS["max-ideal"], direct, sc.fmodel)


class TestSampleDraw:
    """samples_for draws when its samples are first iterated, and a check whose
    exact verdict is True never iterates them."""

    @pytest.mark.parametrize("build,p", [(abhyankar, 2), (abhyankar, 5), (example_e1, 3),
                                         (example_e2, 2), (kummer_mixed, 3)])
    def test_a_draw_once_read_is_the_generated_list(self, monkeypatch, build, p):
        sc = build(p)
        draws = counted_draws(monkeypatch)
        for count, seed in ((0, 3), (1, 0), (8, 5), (50, 12345)):
            draws.clear()
            samples = samples_for(sc, count, seed)
            assert len(samples) == max(count, 1) and draws == []
            first = list(samples)
            assert len(draws) == 1
            assert [s is t for s, t in zip(samples, first)] == [True] * len(first)
            assert len(draws) == 1   # kept, not drawn again
            want = (series_samples(sc.model, count, seed) if sc.model.series_capable
                    else declared_samples(sc.model.value_group, count, seed))
            assert first == want and len(first) == len(samples)
            # each carrier has the finite valuation it is listed with
            for label, b, v in first:
                assert v is not INF and formlang._bound_valuation("b", b) == v, label

    def test_the_exact_verdict(self):
        checked = 0
        for sc, p, name, direct in _cli_targets():
            assert exact_verdict(DEFINITIONS[name], direct, sc.fmodel) is True, (name, p)
            seg = formlang._direct_values(direct)
            wrong = IdealDescriptor(shift(seg, sc.model.value_group.unit(seg.level - 1)))
            assert exact_verdict(DEFINITIONS[name], wrong, sc.fmodel) is False, (name, p)
            checked += 1
        assert checked == 28
        sc = example_e1(2)
        direct = sc.result("theta_x").max_ideal
        for text in TestValueSet.OUTSIDE:
            assert exact_verdict(text, direct, sc.fmodel) is None, text

    @pytest.mark.parametrize("command", ["abhyankar", "example-e1", "kummer-mixed"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_shifted_direct_object_draws_once(self, monkeypatch, command, seed):
        # the first direct object, shifted by one coset of its cut class
        targets = cli._definability_targets

        def shifted(cmd, sc):
            (name, direct), *rest = targets(cmd, sc)
            seg = direct.values
            return [(name, IdealDescriptor(shift(seg, sc.model.value_group.unit(
                seg.level - 1)))), *rest]

        monkeypatch.setattr(cli, "_definability_targets", shifted)
        draws = counted_draws(monkeypatch)
        report = cli.scenario_report(command, 3, 12, seed)
        assert len(draws) == 1
        sc = cli.SCENARIOS[command](3, depth=12)
        samples = list(samples_for(sc, 50, seed))
        checks = report["definability"]
        for check, (name, direct) in zip(checks, shifted(command, sc), strict=True):
            want = _evaluated_counts(DEFINITIONS[name], direct, sc.fmodel, samples)
            assert (check["samples"], check["agreements"], check["unknowns"],
                    [d["sample"] for d in check["disagreements"]]) == want, name
        # the 50 samples notice the shift; the checks left exact draw nothing more
        assert checks[0]["disagreements"]
        assert all(c["samples"] == c["agreements"] == 50 for c in checks[1:])


class TestPointwiseImage:
    """`exists c in K : v((x - c)^k) = w` holds on the image k * v(x - K),
    which is a cut only when the group is |k|-divisible in every class.
    Elsewhere the oracle decides it at w: the one candidate is w/k."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_equality_against_brute_force(self, p, k):
        fm = abhyankar(p).fmodel
        g = fm.group
        text = f"exists c in K : v((theta - c)^{k}) = v(b)"
        # v(theta - c) ranges over the negative elements of Z[1/p]
        reach = [Fraction(n, p**4) for n in range(-3 * p**4, 0)]
        compiled = value_set(text, fm)
        assert (compiled is not None) is (k == p)
        for n in range(-2 * p**2, 2 * p**2 + 1):
            w = Fraction(n, p**2)
            want = Truth.of(any(k * s == w for s in reach))
            got = evaluate(text, fm, bindings={"b": DeclaredValue(g.element(w))})
            assert (got.value, got.mode) == (want, "oracle"), w
            if k == p:
                assert _holds(compiled, g.element(w)) is (want is Truth.TRUE), w

    def test_no_cube_root_of_minus_one_in_the_dyadics(self):
        text = "exists c in K : v((theta - c)^3) = -1"
        got = evaluate(text, abhyankar(2).fmodel)
        assert (got.value, got.mode) == (Truth.FALSE, "oracle")

    @pytest.mark.parametrize("w,want", [("v(t)", Truth.FALSE), ("-1", Truth.FALSE),
                                        ("-2", Truth.TRUE)])
    def test_squares_in_the_triadics(self, w, want):
        # 2s = w with s < 0 in Z[1/3]: no s for w = 1 or -1, s = -1 for w = -2
        text = f"exists c in K : v((theta - c)^2) = {w}"
        got = evaluate(text, abhyankar(3).fmodel)
        assert (got.value, got.mode) == (want, "oracle")

    def test_forced_bounded_agrees_where_it_decides(self, monkeypatch):
        shapes = ["v((theta - c)^2)", "v((theta - c)^3)", "-v((theta - c)^2)",
                  "v(1/((theta - c)^2))", "v(t * (theta - c)^2)", "v((theta - c)^2 * (1/t))"]
        pairs = decided = 0
        for p in (2, 3, 5):
            fm = abhyankar(p).fmodel
            b = parse_element(fm.model, "t^-2")
            values = ["v(t)", "-v(t)", "v(b)", "0", "-1", "-2", "-3", "2", f"-2/{p}",
                      f"-4/{p * p}"]
            texts = [f"exists c in K : {shape} = {w}" for shape in shapes for w in values]
            oracle = {text: evaluate(text, fm, bindings={"b": b}) for text in texts}
            with monkeypatch.context() as patch, forced_walk():
                patch.setattr(_Evaluator, "_oracle", lambda self, q: None)
                for text in texts:
                    want = oracle[text]
                    assert want.mode == "oracle", text
                    got = evaluate(text, rebuilt(fm), bindings={"b": b})
                    pairs += 1
                    if got.value is not Truth.UNKNOWN:
                        decided += 1
                        assert got.value is want.value, (p, text)
        assert (pairs, decided) == (180, 47)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_discrete_class_against_brute_force(self, k):
        # v(x - K) = {s : s_0 <= -1} over Z x Z[1/2]: the open cut below H_1,
        # closed one unit further in over the discrete class 0
        G = GroupDescriptor((Component.INT, Component.PDIV), 2)
        model = FieldModel(name="int x dyadic", char=0, residue_char=2, value_group=G)
        seg = subgroup_cut(ConvexSubgroup(G, 1), direction=Direction.INITIAL)
        fm = FormulaModel(model, (ImmediateElement("x", seg, ()),))
        # a monotone relation over the segment is decided at its ends
        ends = [G.element(a, y) for a in (-1, -2, -10**6) for y in (-10**6, 0, 10**6)]
        grid = [G.element(a, Fraction(n, 4)) for a in range(-4, 0) for n in range(-8, 9)]
        ops = {"<": GroupElement.__lt__, "<=": GroupElement.__le__,
               ">=": GroupElement.__ge__, ">": GroupElement.__gt__}
        for kind in ("exists", "forall"):
            for rel in ("<", "<=", "=", ">=", ">"):
                text = f"{kind} c in K : v((x - c)^{k}) {rel} v(b)"
                compiled = value_set(text, fm)
                exact = rel != "=" or k == 1 or kind == "forall"
                assert (compiled is not None) is exact, text
                for w in (G.element(a, Fraction(n, 2)) for a in range(-4, 2)
                          for n in range(-2, 3)):
                    if rel == "=":
                        want = kind == "exists" and any(s * k == w for s in grid)
                    else:
                        tests = [ops[rel](s * k, w) for s in ends]
                        want = any(tests) if kind == "exists" else all(tests)
                    got = evaluate(text, fm, bindings={"b": DeclaredValue(w)})
                    assert (got.value, got.mode) == (Truth.of(want), "oracle"), (text, w)
                    if exact:
                        assert _holds(compiled, w) is want, (text, w)


@lru_cache(maxsize=None)
def _shape_model(name: str, p: int) -> FormulaModel:
    return {"abhyankar": abhyankar, "kummer-mixed": kummer_mixed}[name](p).fmodel


class TestGeneratedShapesAgree:
    """On generated K-quantified formulas of every recognized shape, the
    compiled value set, the oracle and forced bounded enumeration agree
    wherever each decides."""

    # c-free factors: v(t) = 1 and v(theta) = -1/p; v(p) = p - 1,
    # v(zeta_p - 1) = 1, and eta is schedule-only, so it has no valuation
    FACTORS = {"abhyankar": ("t", "1/t", "theta", "t^2"),
               "kummer-mixed": ("p", "(zeta_p - 1)", "1/(zeta_p - 1)", "eta")}
    GUARDS = {Truth.TRUE: "v(1) = 0", Truth.FALSE: "v(1) > 0",
              Truth.UNKNOWN: "inK({x} * {x})"}

    @staticmethod
    def shapes(x: str, e: str):   # e is "p" or the prime itself
        return (f"{x} - c", f"c - {x}",
                f"{x}^{e} - {x} - c^{e} + c", f"c^{e} - c - {x}^{e} + {x}",
                f"{x}^{e} - c^{e} + c - {x}",
                f"{x}^{e} - c^{e}", f"c^{e} - {x}^{e}")

    @staticmethod
    def draw_formula(data, name: str, p: int, x: str):
        """(text, points): a formula and the values of v(b) that probe it."""
        draw = data.draw
        term = draw(st.sampled_from(TestGeneratedShapesAgree.shapes(
            x, draw(st.sampled_from(["p", str(p)])))))
        if draw(st.booleans()):   # (term)^e times a c-free factor, e in -2..3
            e = draw(st.integers(-2, 3))
            power = f"{'1/' if e < 0 else ''}({term})^{abs(e)}"
            pair = [power, draw(st.sampled_from(TestGeneratedShapesAgree.FACTORS[name]))]
            term = " * ".join(pair[::draw(st.sampled_from([1, -1]))])
        cside = f"{'-' if draw(st.booleans()) else ''}v({term})"
        kind = draw(st.sampled_from(["forall", "exists"]))
        rel = draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
        # the answer can change only at the end of the cut the atom defines
        points = {Fraction(0), Fraction(1)}
        core = value_set(f"{kind} c in K : {cside} {rel} v(b)", _shape_model(name, p))
        if core is not None and not isinstance(core, bool):
            end = core.shift.coords[0]
            points |= {end, end - Fraction(1, p**3), end + Fraction(1, p**3)}
        points |= {-w for w in points}
        other = draw(st.sampled_from(["v(b)", "-v(b)", "threshold"]))
        if other == "threshold":
            other = draw(st.sampled_from(sorted(points)))
        body = (f"{cside} {rel} {other}" if draw(st.booleans())
                else f"{other} {rel} {cside}")
        for _ in range(draw(st.integers(0, 2))):
            guard = TestGeneratedShapesAgree.GUARDS[draw(st.sampled_from(list(Truth)))]
            form = draw(st.sampled_from(["{g} and ({r})", "({r}) and {g}", "{g} -> ({r})"]))
            body = form.format(g=guard.format(x=x), r=body)
        return f"{kind} c in K : {body}", sorted(points)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_compiled_oracle_and_bounded_agree(self, data):
        name = data.draw(st.sampled_from(["abhyankar", "kummer-mixed"]))
        p = data.draw(st.sampled_from([2, 3]))
        fm = _shape_model(name, p)
        g = fm.group
        text, points = self.draw_formula(data, name, p, fm.immediates[0].name)
        compiled = value_set(text, fm)
        names_b = "b" in free_variables(parse(text))
        for w in points:
            b = DeclaredValue(g.element(w))
            got = evaluate(text, fm, bindings={"b": b})
            if compiled is not None:
                assert got.value is Truth.of(_holds(compiled, g.element(w))), (text, w)
                assert got.mode == "oracle" or not names_b, (text, w)
            # without the compiled answer too, or a compiling formula would
            # be compared with its own compiled set
            with patch.object(_Evaluator, "_oracle", lambda self, q: None), forced_walk():
                forced = evaluate(text, fm, bindings={"b": b})
            if Truth.UNKNOWN not in (got.value, forced.value):
                assert forced.value is got.value, (text, w)


def _outcome(text, fm, bindings):
    """evaluate's result as JSON, or the text of the error it raised."""
    try:
        return evaluate(text, fm, bindings=bindings).to_json()
    except ValcutsError as err:
        return f"{type(err).__name__}: {err}"


class TestTheMembershipKernel:
    """The answer compiled from a value set, bound to its cut's integers
    (formlang._member_kernel), is segment.contains against brute force: on
    random cuts over int, pdiv and rat classes of ranks 1 to 4, at the shift,
    at values equal to it through the level only, at random values and at
    values of an equal group built apart; an element of a foreign group raises."""

    def test_against_contains(self):
        rng = random.Random(49)
        seen = set()
        for _ in range(400):
            g = random_group(rng)
            seg = random_cut(rng, g)
            answer = formlang._member_kernel(seg)
            d, level = seg.shift, seg.level
            points = [d] + [random_group_element(rng, g) for _ in range(4)]
            points += [g.element(*(d.coords[:level] + x.coords[level:])) for x in points[1:]]
            apart = GroupDescriptor(g.components, g.prime)
            points += [apart.element(*x.coords) for x in points]
            for w in points:
                got = answer(w)
                assert (got.value, got.mode) == (Truth.of(contains(seg, w)), "oracle"), (seg, w)
            foreign = GroupDescriptor(g.components, 7).zero()
            for test in (answer, partial(contains, seg)):
                with pytest.raises(StructuralError, match="different group"):
                    test(foreign)
            seen.add((g.rank, seg.direction, seg.closed, g.components[level - 1]))
        # an open cut over an int class is built closed one unit further in
        assert {key[0] for key in seen} == {1, 2, 3, 4}
        assert {key[1:] for key in seen} == {
            (direction, closed, kind) for direction in Direction for closed in (False, True)
            for kind in Component if closed or kind is not Component.INT}

    def test_every_value_or_none(self):
        g = GroupDescriptor((Component.INT, Component.RAT), 3)
        for values in (True, False):
            answer = formlang._member_kernel(values)
            for w in (g.zero(), g.element(-2, Fraction(1, 5)),
                      GroupDescriptor((Component.PDIV,), 7).zero()):
                assert answer(w) == formlang.EvalResult(Truth.of(values), "oracle")


class TestCompiledAgreesWithTheWalk:
    """evaluate answers one binding from what it compiled once per model, a value
    set or the candidates' values of a bounded quantifier, exactly where the
    walk gives the same result: value, mode, witness and candidates, on a cold
    model, a warm one and a copy of a warm one."""

    FORMULAS = tuple(DEFINITIONS.values()) + SQUARE_FORMULAS + (
        # the caller's name is also quantified
        "v(b) > 0 and exists b in K : v(theta - b) < 0",
        "forall c in K : (exists b in K : v(theta - b) < 0) -> "
        "v(theta^p - theta - c^p + c) < v(b)",
        # a guard without b that only bounded enumeration decides
        "forall c in K : (exists d in K : v(d*d) > 0) -> v(theta^p - theta - c^p + c) < v(b)",
        "exists x in L\\K : forall c in K : (exists d in K : v(d*d) > 0) -> "
        "v(x^p - x - c^p + c) < v(b)",
        "exists c in K : -v(theta - c) <= -v(b)",
        "forall c in K : v(theta - c) < -v(b)",
    ) + BOUNDED_ATOMS + (
        # these walk: an equation, and a negated quantifier
        "exists c in K : v(theta - c*c) = v(b)",
        "not exists c in K : v(theta - c*c) >= v(b)",
    )
    # the caller binds a distinguished element, a model constant or a built-in
    NAMED = "exists x in L\\K : exists c in K : inK(x^p - x) and v({}) >= -v(x - c)"

    @staticmethod
    def calls(sc):
        g = sc.model.value_group
        samples = list(samples_for(sc, 6, 41))
        carriers = [b for _, b, _ in samples]
        # a zero carrier, one without a valuation on kummer-mixed, and
        # value-only carriers beside the series ones
        carriers += [_zero(sc), sc.fmodel.immediates[0], DeclaredValue(g.zero())]
        carriers += [DeclaredValue(v) for _, _, v in samples[1:4]]
        calls = [(text, {"b": b}) for text in TestCompiledAgreesWithTheWalk.FORMULAS
                 for b in carriers]
        calls += [(TestCompiledAgreesWithTheWalk.NAMED.format(name), {name: b})
                  for name in ("theta", "t", "p", "zeta_p", "b") for b in carriers[:3]]
        return calls

    @pytest.mark.parametrize("build,p", [(abhyankar, 2), (abhyankar, 3), (example_e1, 2),
                                         (example_e2, 2), (kummer_mixed, 3)])
    def test_named_formulas_and_edge_bindings(self, build, p):
        fm = build(p).fmodel
        calls = self.calls(build(p))
        with forced_walk():
            off = rebuilt(fm)
            walked = [_outcome(text, off, bindings) for text, bindings in calls]
        assert not fm.value_sets
        for model in (fm, fm, rebuilt(fm)):   # cold, warm, and a copy that starts empty
            assert [_outcome(text, model, bindings) for text, bindings in calls] == walked
        assert fm.value_sets and not rebuilt(fm).value_sets
        # read from a compiled set (False): the definitions of the model's
        # element and the two formulas in -v(b); from the candidates' values
        # (True): SQUARE_FORMULAS and each of BOUNDED_ATOMS whose names the model
        # binds; never a name a quantifier or the model binds
        exact = [(var, values is None) for (_ast, var), (values, answer, _term)
                 in fm.value_sets.items() if answer]
        if build is kummer_mixed:
            assert exact == [("b", False)] * 2 + [("b", True)]
        else:
            assert exact == [("b", False)] * 3 + [("b", True)] * 4 + [("b", False)] * 2 + [
                ("b", True)] * (len(BOUNDED_ATOMS) - 1)

    @pytest.mark.parametrize("build,p", [(abhyankar, 3), (example_e1, 2), (kummer_mixed, 3)])
    def test_the_calls_reach_the_kernels_and_a_forced_walk_none(self, build, p,
                                                                 monkeypatch):
        # the answers compiled on a cold model call counting kernels, which
        # call the kernels themselves; the forced walk makes those answers
        # raise and gives the same outcomes without them
        name = "ram-ideal-kummer" if build is kummer_mixed else "ram-ideal-as"
        calls = self.calls(build(p))
        fm = build(p).fmodel
        counts = {"_member_answer": 0, "_first_stop": 0}
        with monkeypatch.context() as patch_:
            for kernel in counts:
                def counting(*args, call=getattr(formlang, kernel), kernel=kernel):
                    counts[kernel] += 1
                    return call(*args)
                patch_.setattr(formlang, kernel, counting)
            compiled = [_outcome(text, fm, bindings) for text, bindings in calls]
        # each compiled formula is answered once at each carrier of finite
        # value, 11 of the 12 (10 on kummer-mixed, whose element has no
        # valuation); NAMED bound at b is ram-ideal-as's text, at 3 carriers
        sets = [values is not None for (values, answer, _t) in fm.value_sets.values() if answer]
        finite, named = (10, 0) if build is kummer_mixed else (11, 3)
        assert counts == {"_member_answer": sets.count(True) * finite + named,
                          "_first_stop": sets.count(False) * finite}
        assert counts["_member_answer"] and counts["_first_stop"]
        answer = fm.compiled_answers[DEFINITIONS[name]][1]
        assert answer(fm.group.zero()).value is Truth.FALSE   # 0 lies in no ideal's value set
        with forced_walk():
            with pytest.raises(AssertionError, match="forced walk"):
                answer(fm.group.zero())
            assert [_outcome(text, fm, bindings) for text, bindings in calls] == compiled

    def test_one_text_bound_under_two_names(self):
        # what was compiled is found by the text, and holds for its name only:
        # c is quantified here, so bound alone it leaves b unbound
        fm = abhyankar(3).fmodel
        text = "exists c in K : v(theta - c) < v(b)"
        b = parse_element(fm.model, "t^-1")
        for _ in range(2):
            assert evaluate(text, fm, bindings={"b": b}).value is Truth.TRUE
            with pytest.raises(StructuralError, match="unbound variables"):
                evaluate(text, fm, bindings={"c": b})

    @pytest.mark.parametrize("b", [5, "t", None, 1.5])
    def test_a_binding_that_is_no_carrier_raises(self, b):
        # a value-only reading walked all 64 candidates to UNKNOWN here
        fm = abhyankar(3).fmodel
        want = re.escape(f"b is bound to {b!r}, which is no element of L")
        for text in (DEFINITIONS["ram-ideal-as"], "v(b - 1) > 0"):
            for model in (fm, fm, rebuilt(fm)):
                with pytest.raises(StructuralError, match=want):
                    evaluate(text, model, bindings={"b": b})
            with forced_walk(), pytest.raises(StructuralError, match=want):
                evaluate(text, rebuilt(fm), bindings={"b": b})

    def test_a_declared_value_stays_value_only(self):
        fm = abhyankar(3).fmodel
        b = DeclaredValue(fm.group.zero())
        for text in (DEFINITIONS["ram-ideal-as"], "v(b - 1) > 0", "inK(b * t)"):
            with forced_walk():
                walked = evaluate(text, rebuilt(fm), bindings={"b": b})
            assert evaluate(text, fm, bindings={"b": b}) == walked, text
        assert walked.value is Truth.UNKNOWN   # b * t has no carrier

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_stop_of_a_bounded_atom(self, p):
        # v(b) on a grid through the candidates' values, so that the walk
        # stops at many places in the pool, and at none
        fm = abhyankar(p).fmodel
        g = fm.group
        formulas = BOUNDED_ATOMS[:-1] + ("exists c in K : -v(c) < v(b)",
                                         "forall c in K : v(c) > v(b)")
        calls = [(text, {"b": DeclaredValue(g.element(Fraction(k, p * p)))})
                 for text in formulas for k in range(-5 * p * p, 5 * p * p + 1)]
        with forced_walk():
            off = rebuilt(fm)
            walked = [_outcome(text, off, bindings) for text, bindings in calls]
        assert [_outcome(text, fm, bindings) for text, bindings in calls] == walked
        assert all(fm.value_sets[parse(text), "b"][1] for text in formulas)
        assert len({r["candidates_used"] for r in walked}) >= 6

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_generated_shapes(self, data):
        name = data.draw(st.sampled_from(["abhyankar", "kummer-mixed"]))
        p = data.draw(st.sampled_from([2, 3]))
        fm = _shape_model(name, p)
        g = fm.group
        text, points = TestGeneratedShapesAgree.draw_formula(
            data, name, p, fm.immediates[0].name)
        carriers = [DeclaredValue(g.element(w)) for w in points] + [DeclaredValue(INF)]
        cold = rebuilt(fm)
        for b in carriers:
            got = [_outcome(text, model, {"b": b}) for model in (cold, fm)]
            with forced_walk():
                walked = _outcome(text, fm, {"b": b})
                with patch.object(_Evaluator, "_oracle", lambda self, q: None):
                    forced = evaluate(text, fm, bindings={"b": b}).value
            assert got == [walked, walked], (text, b)
            # forced bounded enumeration agrees wherever it decides
            if forced is not Truth.UNKNOWN and walked["value"] != "UNKNOWN":
                assert forced.value == walked["value"], (text, b)


class TestSamplesFromL:
    """b bound to elements of L \\ K: each distinguished element's carrier theta
    and theta - b_k for k < 12, patterns with tails whose valuations val_diff
    gives and nothing declares.  Each named definition, evaluated on each,
    agrees with its direct object and with the walk."""

    @staticmethod
    def samples(fm):
        """(label, carrier, v(carrier)) for the elements of L \\ K above."""
        zero = fm.model.zero()
        for im in fm.immediates:
            theta = im.carrier
            yield im.name, theta, val_diff(theta, zero)
            for k in range(_SCHEDULE_DEPTH):
                b_k = theta.partial_sum(k)
                yield f"{im.name} - {im.name}~{k}", theta - b_k, val_diff(theta, b_k)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_definitions_agree_with_the_direct_object_and_the_walk(self, p):
        count = 0
        for build, result, names in TestValueSet.TARGETS[:2]:
            sc = build(p)
            res = sc.result(result)
            samples = list(self.samples(sc.fmodel))
            for name in names:
                direct = TestValueSet.direct(res, name)
                for label, b, v in samples:
                    assert isinstance(b, PatternSeries) and b.has_tails, label
                    got = evaluate(DEFINITIONS[name], sc.fmodel, bindings={"b": b})
                    with forced_walk():
                        walked = evaluate(DEFINITIONS[name], rebuilt(sc.fmodel),
                                          bindings={"b": b})
                    assert got == walked, (build.__name__, name, label)
                    assert got.value is Truth.of(membership(direct, v)), (name, label)
                    count += 1
        assert count == 65   # 3 and 2 definitions, 13 elements each


class TestNoWalkerForABoundName:
    """A compiled one-binding answer whose term is the bound name reads v(b)
    off the binding and builds no walker; another term, and b = 0, whose
    valuation is infinite, still build one."""

    @staticmethod
    def walkers(monkeypatch) -> list:
        """The bindings of every _Evaluator built from here on."""
        built = []
        init = _Evaluator.__init__

        def counting(self, fmodel, bindings):
            built.append(bindings)
            init(self, fmodel, bindings)

        monkeypatch.setattr(_Evaluator, "__init__", counting)
        return built

    @pytest.mark.parametrize("build", [abhyankar, example_e1])
    def test_a_warm_answer_builds_none(self, build, monkeypatch):
        fm = build(2).fmodel
        texts = [DEFINITIONS[name] for name in ("ram-ideal-as", "max-ideal", "coarse-ring-as")]
        texts += SQUARE_FORMULAS
        samples = series_samples(fm.model, 8, 13)
        for text in texts:
            _values, answer, term = formlang._compiled(parse(text), fm, "b")
            assert answer and term == Var("b"), text
        built = self.walkers(monkeypatch)
        answers = [evaluate(text, fm, bindings={"b": b}) for text in texts
                   for _, b, _ in samples]
        assert built == []
        with forced_walk():
            assert answers == [evaluate(text, fm, bindings={"b": b}) for text in texts
                               for _, b, _ in samples]
        assert len(built) == len(answers)

    def test_another_term_and_zero_build_one(self, monkeypatch):
        fm = abhyankar(2).fmodel
        b = series_samples(fm.model, 2, 13)[1][1]
        for text, binding in (("exists c in K : v(theta - c*c) >= v(b*b)", b),
                              (DEFINITIONS["coarse-ring-as"], fm.model.zero())):
            assert formlang._compiled(parse(text), fm, "b")[1], text
            evaluate(text, fm, bindings={"b": binding})   # warm
            with monkeypatch.context() as patch_:
                built = self.walkers(patch_)
                evaluate(text, fm, bindings={"b": binding})
            assert len(built) >= 1, text


def reference_series_samples(model, count, seed, include_boundary=True):
    """Monomial samples drawn through Fraction, the checked element and
    monomial, and the number of draws outside their class."""
    rng = random.Random(seed)
    g = model.value_group
    p = g.prime
    out = []
    rejected = 0
    if include_boundary:
        out.append(("1", model.one(), g.zero()))
    while len(out) < count:
        coords = []
        for i in range(g.rank):
            coords.append(Fraction(rng.randint(-12, 12), p ** rng.randint(0, 3)))
        try:
            e = g.element(*coords)
        except StructuralError:
            rejected += 1
            continue
        s = model.monomial(1, e)
        out.append((f"t^{e}", s, e))
    return out, rejected


class TestSeriesSamplesOneStep:
    """series_samples builds each draw in one integer step and yields what the
    Fraction/element/monomial loop yields, in the same order."""

    @staticmethod
    def assert_same(model, count, seed):
        got = series_samples(model, count, seed)
        want, rejected = reference_series_samples(model, count, seed)
        assert [label for label, _, _ in got] == [label for label, _, _ in want]
        assert [c for _, c, _ in got] == [c for _, c, _ in want]
        assert [v for _, _, v in got] == [v for _, _, v in want]
        return rejected

    @pytest.mark.parametrize("build,p", [(abhyankar, 2), (abhyankar, 3), (abhyankar, 5),
                                         (abhyankar, 7), (example_e1, 2), (example_e1, 3)])
    def test_matches_reference_loop(self, build, p):
        model = build(p).model
        for seed in range(200):
            self.assert_same(model, 50, seed)

    def test_draws_outside_their_class_are_skipped(self):
        for components in ((Component.INT,), (Component.PDIV, Component.INT),
                           (Component.INT, Component.RAT)):
            model = FieldModel(name="K", char=3, value_group=GroupDescriptor(components, 3))
            rejected = sum(self.assert_same(model, 50, seed) for seed in range(20))
            assert rejected >= 1
            g = model.value_group
            assert all(g._outside(e.nums, e.den) is None
                       for _, _, e in series_samples(model, 50, 3))

    def test_carriers_share_the_coefficient_of_one(self):
        model = abhyankar(3).model
        samples = series_samples(model, 50, 4)
        one = samples[0][1]
        assert one == model.one()
        assert all(len(c.terms) == 1 and c.terms[0][1] is one.terms[0][1]
                   and c.valuation() is v for _, c, v in samples[1:])


class TestSamples:
    @staticmethod
    def series_samples(model, count, seed, include_boundary=True):
        return reference_series_samples(model, count, seed, include_boundary)[0]

    @staticmethod
    def declared_samples(group, count, seed):
        rng = random.Random(seed)
        out = [("v=0", DeclaredValue(group.zero()), group.zero())]
        while len(out) < count:
            v = group.element(Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
            out.append((f"v={v}", DeclaredValue(v), v))
        return out

    def test_ram_ideal_as_agreement(self):
        sc = abhyankar(2)
        samples = self.series_samples(sc.model, 60, 11)
        rep = check_definition(DEFINITIONS["ram-ideal-as"], sc.result("theta").ram_ideal,
                               sc.fmodel, samples, name="ram-ideal-as")
        assert rep.passed and rep.unknowns == 0

    def test_max_ideal_agreement_rank2(self):
        sc = example_e1(2)
        samples = self.series_samples(sc.model, 60, 13)
        rep = check_definition(DEFINITIONS["max-ideal"], sc.result("theta_x").max_ideal,
                               sc.fmodel, samples, name="max-ideal")
        assert rep.passed and rep.unknowns == 0

    def test_coarse_ring_as_agreement(self):
        sc = abhyankar(3)
        samples = self.series_samples(sc.model, 60, 17)
        rep = check_definition(DEFINITIONS["coarse-ring-as"], sc.result("theta").H_E,
                               sc.fmodel, samples, name="coarse-ring-as")
        assert rep.passed and rep.unknowns == 0

    def test_kummer_definitions_agree(self):
        sc = kummer_mixed(3)
        samples = self.declared_samples(sc.model.value_group, 60, 19)
        rep = check_definition(DEFINITIONS["ram-ideal-kummer"],
                               sc.result("eta").ram_ideal, sc.fmodel, samples,
                               name="ram-ideal-kummer")
        assert rep.passed and rep.unknowns == 0
        rep2 = check_definition(DEFINITIONS["coarse-ring-kummer"],
                                sc.result("eta").H_E, sc.fmodel, samples,
                                name="coarse-ring-kummer")
        assert rep2.passed and rep2.unknowns == 0

    def test_membership_of_coarsening(self):
        sc = example_e1(2)
        h1 = ConvexSubgroup(sc.model.value_group, 1)
        g = sc.model.value_group
        assert membership(h1, g.element(0, -5))
        assert membership(h1, g.element(1, 0))
        assert not membership(h1, g.element(-1, 0))
        assert membership(h1, INF)
