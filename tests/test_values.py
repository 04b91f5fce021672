"""Value semantics of the immutable classes built on `ogroup._Frozen`.

Every public class below keeps the constructor it had as a frozen record,
whether it writes it or the base generates it from `_fields`: the same
parameter names, order and defaults, equality with an instance of its own
class and equal fields, the hash of its field tuple (a GroupElement's leaves
out the group), `Name(field=value, ...)` as its repr, pickle and copy round
trips to an equal value, and refusal of assignment.  The field lists are
written out here, so a renamed, dropped or reordered field fails even where
the class and its `_fields` change together.  The tests at the end pin the
generator itself and the one way a slot is set.
"""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import pathlib
import pickle
import random
from fractions import Fraction

import pytest
from conftest import random_cut, random_group, random_group_element

from valcuts import (
    extension,
    formlang,
    gpsfield,
    kaehler,
    ogroup,
    prescribe,
    residue,
    scenarios,
    segment,
)
from valcuts.extension import DefectlessKind

NEW_DICT = object()   # the default is a new empty dict for each instance

CONSTRUCTORS = {
    ogroup.GroupDescriptor: ["components", "prime"],
    ogroup.GroupElement: ["group", "nums", ("den", 1)],
    ogroup.ConvexSubgroup: ["group", "level"],
    segment.Segment: ["direction", "level", "shift", "closed"],
    segment.IdealDescriptor: ["values"],
    residue.FqField: ["p"],
    residue.FqElement: ["field", "value"],
    gpsfield.FieldModel: ["name", "char", "value_group", ("residue_char", None), ("vp", None)],
    gpsfield.SeriesElement: ["model", "terms"],
    gpsfield.Tail: ["coeff", "gamma", "start"],
    gpsfield.PatternSeries: ["model", "finite_part", "tails"],
    gpsfield.ApproachResult: ["segment", "schedule"],
    extension.DeclaredSchedule: ["group", "limit", "scale", ("start", 0)],
    extension.DefectDatum: ["name", "kind", "base", "degree", ("generator", None),
                            ("sigma_shift", None), ("declared_sigma", None),
                            ("synthetic", False)],
    extension.DefectClassification: ["datum", "kind", "H_E", "sigma", "ram_ideal",
                                     "max_ideal", "approach", "depth"],
    extension.DefectlessDatum: ["name", "group", "q", "star_index", "x0_value",
                                ("subkind", DefectlessKind.VALUE_ONLY), ("residue_char", 0),
                                ("vp", None), ("v_eta_minus_1", None)],
    extension.DefectlessAnalysis: ["datum", "H_E", "case", "max_ideal", "ram_ideal"],
    kaehler.OmegaPresentation: ["numerator", "denominator_exponent", "power", "form",
                                "is_zero", "provenance", "annihilator",
                                "annihilator_is_max_ideal"],
    prescribe.Witness: ["level", "kind", "datum"],
    prescribe.Exclusion: ["level", "note"],
    prescribe.ConstructionPlan: ["index_size", "selected", "prime", "char_case", "group",
                                 "model", "witnesses", "exclusions"],
    prescribe.WitnessReport: ["level", "passed", "found_level", "defect_kind", "schedule",
                              "identity_checked"],
    prescribe.VerificationReport: ["plan", "witnesses", "exclusions"],
    scenarios.Scenario: ["model", "results", "fmodel"],
    formlang.Var: ["name"],
    formlang.IntLit: ["value"],
    formlang.Add: ["left", "right"],
    formlang.Sub: ["left", "right"],
    formlang.Mul: ["left", "right"],
    formlang.Pow: ["base", "exponent"],
    formlang.Recip: ["term"],
    formlang.VOf: ["term", ("negated", False)],
    formlang.RatConst: ["value"],
    formlang.ValAtom: ["left", "rel", "right"],
    formlang.EqAtom: ["left", "right"],
    formlang.InK: ["term"],
    formlang.Not: ["body"],
    formlang.BinOp: ["op", "left", "right"],
    formlang.Quant: ["kind", "var", "domain", "body"],
    formlang.ImmediateElement: ["name", "segment", "schedule", ("carrier", None),
                                ("facts", frozenset())],
    formlang.DeclaredValue: ["valuation"],
    formlang.Approximant: ["owner", "index", ("carrier", None)],
    formlang.FormulaModel: ["model", "immediates", ("constants", NEW_DICT)],
    formlang.EvalResult: ["value", "mode", ("witness", None), ("candidates_used", 0)],
    formlang.AgreementReport: ["definition", "total", "agreements", "disagreements",
                               "unknowns"],
}

# one formula with a node of every syntax class
EVERY_NODE = ("forall c in K : (not (v(1/(theta - c*c)^p + 2) < -v(c)) and inK(c)) "
              "or c = theta -> v(c) >= 1/2")


def _fields(cls) -> list[str]:
    return [f if isinstance(f, str) else f[0] for f in CONSTRUCTORS[cls]]


def _nodes(node):
    yield node
    for name in node._fields:
        child = getattr(node, name)
        if isinstance(child, formlang._Node):
            yield from _nodes(child)


def _values() -> dict:
    """One instance of each class, built the way the library builds it."""
    sc = scenarios.abhyankar(3)
    res = sc.results[0]
    theta = res.datum.generator
    mixed = scenarios.kummer_mixed(3).results[0]
    G = sc.model.value_group
    defectless = extension.DefectlessDatum(
        name="kummer", group=ogroup.GroupDescriptor(("int", "pdiv"), 3), q=2, star_index=0,
        x0_value=ogroup.GroupDescriptor(("int", "pdiv"), 3).unit(0),
        subkind=DefectlessKind.KUMMER_2A, residue_char=2,
        vp=ogroup.GroupDescriptor(("int", "pdiv"), 3).unit(1, 2))
    analysis = extension.defectless_analyze(defectless)
    plan = prescribe.build(3, [1, 3], 2)
    report = prescribe.verify(plan, depth=4)
    fm = sc.fmodel
    found = {
        G.__class__: G,
        ogroup.GroupElement: G.element(Fraction(-2, 3)),
        ogroup.ConvexSubgroup: res.H_E,
        segment.Segment: res.sigma,
        segment.IdealDescriptor: res.ram_ideal,
        residue.FqField: sc.model.residue,
        residue.FqElement: theta.tails[0].coeff,
        gpsfield.FieldModel: sc.model,
        gpsfield.SeriesElement: sc.model.monomial(2, G.element(Fraction(1, 3))),
        gpsfield.Tail: theta.tails[0],
        gpsfield.PatternSeries: theta,
        gpsfield.ApproachResult: res.approach,
        extension.DeclaredSchedule: mixed.datum.generator,
        extension.DefectDatum: res.datum,
        extension.DefectClassification: res,
        extension.DefectlessDatum: defectless,
        extension.DefectlessAnalysis: analysis,
        kaehler.OmegaPresentation: kaehler.present(res),
        prescribe.Witness: plan.witnesses[0],
        prescribe.Exclusion: plan.exclusions[0],
        prescribe.ConstructionPlan: plan,
        prescribe.WitnessReport: report.witnesses[0],
        prescribe.VerificationReport: report,
        scenarios.Scenario: sc,
        formlang.ImmediateElement: fm.immediates[0],
        formlang.DeclaredValue: formlang.DeclaredValue(G.element(1)),
        formlang.Approximant: fm.candidates[1][1],
        formlang.FormulaModel: fm,
        formlang.EvalResult: formlang.evaluate("exists c in K : v(theta - c) > 0", fm),
        formlang.AgreementReport: formlang.check_definition(
            formlang.DEFINITIONS["ram-ideal-as"], res.ram_ideal, fm,
            scenarios.series_samples(sc.model, 3, 1)),
    }
    for node in _nodes(formlang.parse(EVERY_NODE)):
        found.setdefault(type(node), node)
    return found


VALUES = _values()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_class_has_a_value_and_no_dataclass_is_left():
    assert VALUES.keys() == CONSTRUCTORS.keys()
    public = {cls for cls in _subclasses(ogroup._Frozen) if not cls.__name__.startswith("_")}
    assert public == CONSTRUCTORS.keys()
    assert all(issubclass(cls, ogroup._Frozen) for cls in CONSTRUCTORS)
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in CONSTRUCTORS)


@pytest.mark.parametrize("cls", list(CONSTRUCTORS), ids=lambda cls: cls.__name__)
class TestValueClass:
    def test_constructor_keeps_its_parameters(self, cls):
        got = []
        for p in inspect.signature(cls).parameters.values():
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, p
            got.append(p.name if p.default is inspect.Parameter.empty else (p.name, p.default))
        if cls is formlang.FormulaModel:   # None stands for the new dict
            assert got[-1] == ("constants", None)
            got[-1] = ("constants", NEW_DICT)
        assert got == CONSTRUCTORS[cls]
        assert list(cls._fields) == _fields(cls)

    def test_rebuilt_by_position_and_by_keyword_equal(self, cls):
        value = VALUES[cls]
        values = [getattr(value, name) for name in _fields(cls)]
        for other in (cls(*values), cls(**dict(zip(_fields(cls), values)))):
            assert type(other) is cls and other == value and not other != value
            if cls not in (formlang.FormulaModel, scenarios.Scenario):   # unhashable
                assert hash(other) == hash(value)

    def test_eq_hash_and_repr_over_the_fields(self, cls):
        value = VALUES[cls]
        fields = tuple(getattr(value, name) for name in _fields(cls))
        assert repr(value) == "{}({})".format(cls.__qualname__, ", ".join(
            f"{name}={field!r}" for name, field in zip(_fields(cls), fields)))
        if cls is ogroup.GroupElement:
            # hashed by (nums, den) alone: equal elements have equal
            # coordinates, so the group is left to equality
            fields = fields[1:]
        try:
            want = hash(fields)
        except TypeError:   # a FormulaModel's dict, held directly or in a field
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == want
        assert value.__eq__(1) is NotImplemented and value != 1 and value == value

    def test_pickle_copy_and_deepcopy_give_equal_values(self, cls):
        value = VALUES[cls]
        for trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            other = trip(value)
            assert type(other) is cls and other == value and value == other
            assert repr(other) == repr(value)

    def test_fields_refuse_assignment(self, cls):
        value = VALUES[cls]
        for name in _fields(cls):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_a_field_that_differs_makes_values_unequal():
    G = ogroup.GroupDescriptor(("pdiv",), 3)
    F = residue.GF(3)
    model = gpsfield.FieldModel("m", 3, G)
    assert model != gpsfield.FieldModel("n", 3, G)
    assert F.one() != F.element(0) and F.one() != residue.GF(5).one()
    one = gpsfield.Tail(F.one(), G.unit(0, -1), 1)
    assert one != gpsfield.Tail(F.one(), G.unit(0, -1), 2)
    assert one != gpsfield.Tail(F.element(2), G.unit(0, -1), 1)
    assert one != gpsfield.Tail(F.one(), G.unit(0, -3), 1)
    x, y = formlang.Var("x"), formlang.Var("y")
    assert formlang.Add(x, y) != formlang.Sub(x, y) and formlang.Add(x, y) != formlang.Add(y, x)
    assert formlang.EvalResult(formlang.Truth.TRUE, "oracle") != formlang.EvalResult(
        formlang.Truth.TRUE, "oracle", candidates_used=1)


def test_a_group_keeping_its_values_behaves_as_an_empty_one():
    # zero() and the level table are kept in slots outside the fields:
    # equality, hashing, repr, pickling and copying ignore them, and a filled
    # table stays with its own group
    def kept(G):
        return hasattr(G, "_zero"), sorted(G._levels)

    full = ogroup.GroupDescriptor(("int", "pdiv"), 3)
    empty = ogroup.GroupDescriptor(("int", "pdiv"), 3)
    values = (full.zero(), *segment.coarsening(full, full.rank)[1:])
    levels = [segment.coarsening(full, k) for k in (1, 2)]
    assert kept(full) == (True, [1, 2]) and kept(empty) == (False, [])
    assert full == empty and empty == full and hash(full) == hash(empty)
    assert repr(full) == repr(empty) and full.__reduce__() == empty.__reduce__()
    for trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        other = trip(full)
        assert other == empty and hash(other) == hash(empty) and repr(other) == repr(empty)
        assert kept(other) == (False, [])
        assert {full: 1}[other] == 1 and {other: 1}[full] == 1
    # a value holding the group round-trips too, and equals its rebuilt self
    ring = pickle.loads(pickle.dumps(values[1]))
    assert ring == values[1] and ring.group == full
    for level in levels:
        again = pickle.loads(pickle.dumps(level))
        assert again == level and kept(again[0].group) == (False, [])
    assert values[1] is levels[1][1] and values[2] is levels[1][2]
    assert [segment.coarsening(full, k) for k in (1, 2)] == levels
    assert all(segment.coarsening(full, k) is levels[k - 1] for k in (1, 2))


def test_a_pickled_node_holds_only_its_fields():
    f = formlang.parse(EVERY_NODE)
    hash(f), formlang.free_variables(f)
    assert f.__reduce__() == (formlang.Quant, (f.kind, f.var, f.domain, f.body))
    loaded = pickle.loads(pickle.dumps(f))
    for name in ("_hash", "_free"):
        assert not hasattr(loaded, name) and hasattr(f, name)


def test_models_built_without_constants_get_their_own_dict():
    sc = scenarios.abhyankar(2)
    a = formlang.FormulaModel(sc.model, sc.fmodel.immediates)
    b = formlang.FormulaModel(sc.model, sc.fmodel.immediates)
    assert a.constants == {} and a.constants is not b.constants


SRC = pathlib.Path(ogroup.__file__).parent
MODULES = {path: importlib.import_module(f"valcuts.{path.stem}")
           for path in sorted(SRC.glob("*.py"))}

# the classes that write their constructor, each because it checks or changes
# an input; every other value class gets the generated one
WRITTEN = {ogroup.GroupDescriptor, ogroup.GroupElement, ogroup.ConvexSubgroup,
           segment.Segment, segment.IdealDescriptor, gpsfield.FieldModel,
           gpsfield.SeriesElement, gpsfield.Tail, gpsfield.PatternSeries,
           extension.DeclaredSchedule, extension.DefectDatum, extension.DefectlessDatum,
           formlang.FormulaModel}


def _written_constructors():
    """Each `_Frozen` class of src/ whose body defines `__init__`."""
    for path, module in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body):
                cls = getattr(module, node.name)
                if issubclass(cls, ogroup._Frozen):
                    yield cls


def test_only_the_classes_that_check_an_input_write_a_constructor():
    assert set(_written_constructors()) == WRITTEN
    for cls in CONSTRUCTORS.keys() - WRITTEN:
        owner = next(klass for klass in cls.__mro__ if "_fields" in vars(klass))
        init = cls.__init__
        assert init is vars(owner)["__init__"]
        qualname = f"{owner.__qualname__}.__init__"
        assert init.__qualname__ == getattr(init.__code__, "co_qualname", qualname) == qualname
        assert init.__code__.co_filename == inspect.getfile(cls) and init.__module__ == cls.__module__


def _calls(tree):
    """The name each call in tree calls: `f` for f(...), `a.f` for a.f(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield ast.unparse(node.func)


def test_slots_are_set_through_their_descriptors_only():
    # one idiom: a slot is set through the __set__ of its descriptor, and the
    # fields of FormulaModel, which live in a __dict__, through that dict
    for path in MODULES:
        called = set(_calls(ast.parse(path.read_text())))
        assert not called & {"_set", "object.__setattr__"}, path.name
    assert not hasattr(ogroup, "_set")
    assert "__slots__" not in vars(formlang.FormulaModel)


def test_slot_setters_are_bound_only_where_a_constructor_is_written():
    bound = set()
    for path, module in MODULES.items():
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                    and ast.unparse(stmt.value.func) == "_slot_setters"):
                bound.add(getattr(module, stmt.value.args[0].id))
    # _Node binds the setters of the hash and free names it keeps
    assert bound == WRITTEN - {formlang.FormulaModel} | {formlang._Node}


def test_slot_setters_refuse_a_name_that_is_no_slot():
    (set_level,) = ogroup._slot_setters(ogroup.ConvexSubgroup, "level")
    H = object.__new__(ogroup.ConvexSubgroup)
    set_level(H, 1)
    assert H.level == 1
    for cls, name in ((ogroup.GroupElement, "coords"),       # a property
                      (ogroup.GroupElement, "leading_index"),  # a method
                      (ogroup.GroupElement, "_fields"),        # a class attribute
                      (segment.Segment, "group"),              # a property
                      (gpsfield.SeriesElement, "valuation"),   # a method
                      (ogroup.ConvexSubgroup, "missing"),
                      (formlang.FormulaModel, "model")):       # a __dict__ field
        with pytest.raises(TypeError, match=f"{name} is not a slot"):
            ogroup._slot_setters(cls, name)
    with pytest.raises(TypeError, match="levels is not a slot"):
        ogroup._slot_setters(ogroup.ConvexSubgroup, "group", "levels")


def test_the_generator_refuses_a_field_it_cannot_set():
    with pytest.raises(TypeError, match=r"Bad\.b is not a slot"):
        class Bad(ogroup._Frozen):
            __slots__ = ("a",)
            _fields = ("a", "b")
    with pytest.raises(TypeError, match=r"Bad\._defaults names 'c', no field"):
        class Bad(ogroup._Frozen):
            __slots__ = _fields = ("a", "b")
            _defaults = {"b": 0, "c": 0}
    with pytest.raises(TypeError, match=r"Bad\.b has no default but follows one"):
        class Bad(ogroup._Frozen):
            __slots__ = _fields = ("a", "b")
            _defaults = {"a": 0}


def test_a_generated_class_builds_as_a_written_one_would():
    line = inspect.currentframe().f_lineno + 1
    class Point(ogroup._Frozen):
        __slots__ = _fields = ("x", "y", "label")
        _defaults = {"label": None}

    a = Point(1, 2)
    assert (a.x, a.y, a.label) == (1, 2, None) and a == Point(y=2, x=1, label=None)
    assert str(inspect.signature(Point)) == "(x, y, label=None)"
    assert repr(Point(1, 2, "p")).endswith(".Point(x=1, y=2, label='p')")
    assert copy.copy(a) == a and copy.deepcopy(a) == a   # rebuilt through the constructor
    code = Point.__init__.__code__
    assert code.co_filename == __file__ and code.co_firstlineno == line
    with pytest.raises(TypeError):
        Point(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        a.x = 3
    # the builder is generated on the first call and kept on the class
    assert "_from_fields" not in vars(Point)
    assert Point._from_fields(3, 4, "b") == Point(3, 4, "b")
    assert vars(Point)["_from_fields"].__func__.__qualname__.endswith("Point._from_fields")
    assert Point._from_fields(1, 2, None) == a


def _cut_operations(rng, seen: dict):
    """(result, checked build) of each operation that wraps its cut through
    `Segment._from_fields`: `sum`, `shift`, `IdealDescriptor.principal` and
    the annihilator of `present_quotient`, on 10^4 drawn cuts.  The checked
    build is the constructor on the result's direction, level and closedness
    and the raw shift, the operands' shifts added as GroupElements, so a
    coordinate inside H that the operation kept, or an open cut over a
    discrete class, makes the two differ."""
    final = segment.Direction.FINAL
    for _ in range(2500):
        G = random_group(rng)
        a, b, c, d = [random_cut(rng, G) for _ in range(4)]
        # sum and the ideals take final cuts; shift takes either direction
        a, b, d = [x if x.direction is final else segment.negate(x) for x in (a, b, d)]
        g = random_group_element(rng, G)
        q = rng.choice((2, 3, 5, 7))
        ann = kaehler.present_quotient(segment.IdealDescriptor(d), q,
                                       kaehler.PresentationForm.RAM_QUOTIENT, "drawn")
        positive = d.shift.sign() > 0
        for out, raw in ((segment.sum(a, b), a.shift + b.shift),
                         (segment.shift(c, g), c.shift + g),
                         (segment.IdealDescriptor.principal(g).values, g),
                         (ann.annihilator.values, d.shift * (q - 1) if positive else G.zero())):
            yield out, segment.Segment(out.direction, out.level, raw, out.closed)
            seen["inside H"] += any(raw.nums[out.level:])
            seen["open"] += not out.closed
        assert segment.sum(a, b).level == min(a.level, b.level)
        seen["equal levels" if a.level == b.level else "unequal levels"] += 1
        seen["annihilator cut" if positive else "ring"] += 1


def _unchecked_builds():
    """(unchecked build, checked build) of each class whose constructor
    checks or changes its input, on the fields of values the library made."""
    rng = random.Random(4001)
    for _ in range(60):
        seg = random_cut(rng, random_group(rng))
        fields = (seg.direction, seg.level, seg.shift, seg.closed)
        yield segment.Segment._from_fields(*fields), segment.Segment(*fields)
    for build in (scenarios.abhyankar, scenarios.example_e1):
        for p in (2, 3, 5):
            for res in build(p, depth=6).results:
                theta = res.datum.generator
                for x in (theta, -theta, theta.frobenius(), theta + theta.finite_part):
                    finite = x.finite_part
                    yield (gpsfield.SeriesElement._from_fields(finite.model, finite.terms),
                           gpsfield.SeriesElement(finite.model, finite.terms))
                    for t in x.tails:
                        yield (gpsfield.Tail._from_fields(t.coeff, t.gamma, t.start),
                               gpsfield.Tail(t.coeff, t.gamma, t.start))
                    yield (gpsfield.PatternSeries._from_fields(x.model, finite, x.tails),
                           gpsfield.PatternSeries(x.model, finite, x.tails))


def test_unchecked_builders_give_the_checked_value_and_stay_frozen():
    seen = set()
    for fast, checked in _unchecked_builds():
        assert type(fast) is type(checked) and fast == checked and checked == fast
        assert hash(fast) == hash(checked) and repr(fast) == repr(checked)
        for name in fast._fields:
            assert getattr(fast, name) == getattr(checked, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(fast, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(fast, name)
        seen.add(type(fast))
    assert seen == {segment.Segment, gpsfield.SeriesElement, gpsfield.Tail,
                    gpsfield.PatternSeries}
    # the operations' cuts are Segments as above: their values are compared
    cases = dict.fromkeys(("equal levels", "unequal levels", "open", "inside H",
                           "annihilator cut", "ring"), 0)
    for fast, checked in _cut_operations(random.Random(4501), cases):
        assert type(fast) is segment.Segment and fast == checked, (fast, checked)
        assert hash(fast) == hash(checked) and repr(fast) == repr(checked)
    assert min(cases.values()) >= 500, cases
    for cls in seen:
        built = vars(cls)["_from_fields"].__func__
        assert built.__qualname__ == f"{cls.__qualname__}._from_fields"
        assert built.__code__.co_filename == inspect.getfile(cls)
