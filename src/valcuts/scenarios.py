"""Standard worked scenarios shared by the command line and the test suite.

Each scenario bundles a field model, its distinguished immediate element(s),
the classified extension data, and a formula environment, so reports and
definability checks all draw from one construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .extension import (
    DeclaredSchedule,
    DefectClassification,
    DefectDatum,
    ExtensionKind,
    classify,
)
from .formlang import DeclaredValue, FormulaModel, ImmediateElement, SampleDraw
from .gpsfield import FieldModel, PatternSeries, SeriesElement, Tail
from .ogroup import Component, GroupDescriptor, GroupElement, _Frozen


class Scenario(_Frozen):
    __slots__ = _fields = ("model", "results", "fmodel")

    def result(self, name: str) -> DefectClassification:
        for r in self.results:
            if r.datum.name == name:
                return r
        raise KeyError(name)


def perfect_series_model(p: int, rank: int = 1, name: str | None = None) -> FieldModel:
    group = GroupDescriptor((Component.PDIV,) * rank, p)
    return FieldModel(name=name or f"F{p}((t))^(1/p^inf)", char=p,
                      value_group=group)


def wild_root(model: FieldModel, class_index: int = 0) -> PatternSeries:
    """Root of X^p - X - 1/t for the generator of the given archimedean class."""
    gamma = model.value_group.unit(class_index, -1)
    return PatternSeries(model, model.zero(), (Tail(model.residue.one(), gamma, 1),))


def _generator_fmodel(model: FieldModel, res: DefectClassification,
                      constants: dict) -> FormulaModel:
    """Formula model whose distinguished element theta is the generator of res."""
    approach = res.approach
    return FormulaModel(
        model=model,
        immediates=(ImmediateElement("theta", approach.segment, approach.schedule,
                                     carrier=res.datum.generator,
                                     facts=frozenset({"as_generator"})),),
        constants=constants,
    )


def abhyankar(p: int, depth: int = 12) -> Scenario:
    model = perfect_series_model(p)
    datum = DefectDatum(name="theta", kind=ExtensionKind.AS_DEFECT, base=model,
                        degree=p, generator=wild_root(model))
    res = classify(datum, depth=depth)
    fmodel = _generator_fmodel(
        model, res, {"t": model.monomial(1, model.value_group.element(1))})
    return Scenario(model, (res,), fmodel)


def _rank2_composite(p: int) -> FieldModel:
    """K((x))^(1/p^inf) composed with the valuation of its residue field K."""
    return perfect_series_model(p, rank=2, name="K((x))^(1/p^inf) o K")


def _theta_t_datum(L: FieldModel, p: int) -> DefectDatum:
    """The wild witness over the fine class, the one of the residue field K."""
    return DefectDatum(name="theta_t", kind=ExtensionKind.AS_DEFECT, base=L, degree=p,
                       generator=wild_root(L, class_index=1))


def _t_constant(L: FieldModel) -> dict:
    return {"t": L.monomial(1, L.value_group.element(0, 1))}


def example_e1(p: int, depth: int = 12) -> Scenario:
    """Rank-2 composition with wild witnesses over both archimedean classes."""
    L = _rank2_composite(p)
    data = (
        DefectDatum(name="theta_x", kind=ExtensionKind.AS_DEFECT, base=L,
                    degree=p, generator=wild_root(L, class_index=0)),
        _theta_t_datum(L, p),
    )
    results = tuple(classify(d, depth=depth) for d in data)
    fmodel = _generator_fmodel(L, results[0], _t_constant(L))
    return Scenario(L, results, fmodel)


def example_e2(p: int, depth: int = 12) -> Scenario:
    """The e1 shape with a tame-closure step killing the coarse-class witness:
    only the fine-class extension survives, realizing the trivial subgroup."""
    L = _rank2_composite(p)
    res = classify(_theta_t_datum(L, p), depth=depth)
    fmodel = _generator_fmodel(L, res, _t_constant(L))
    return Scenario(L, (res,), fmodel)


def kummer_mixed(p: int, depth: int = 12) -> Scenario:
    """Mixed characteristic: the degree-p root of X^p - X - 1/p enters through
    its declared schedule -vp/p^(i+1); the Kummer generator eta enters through
    the schedule approaching v(zeta_p - 1) from below."""
    group = GroupDescriptor((Component.RAT,), p)
    vp = group.element(p - 1)  # scaled so v(zeta_p - 1) = 1 is exact
    model = FieldModel(name=f"mixed deeply ramified, p={p}", char=0,
                       residue_char=p, value_group=group, vp=vp)
    zeta_value = vp.over(p - 1)
    root_sched = DeclaredSchedule(group, limit=group.zero(), scale=vp)
    eta_sched = DeclaredSchedule(group, limit=zeta_value, scale=vp)
    data = (
        DefectDatum(name="wild_root", kind=ExtensionKind.KUMMER_DEFECT, base=model,
                    degree=p, generator=root_sched),
        DefectDatum(name="eta", kind=ExtensionKind.KUMMER_DEFECT, base=model,
                    degree=p, generator=eta_sched, sigma_shift=zeta_value),
    )
    results = tuple(classify(d, depth=depth) for d in data)
    eta_approach = results[1].approach
    fmodel = FormulaModel(
        model=model,
        immediates=(ImmediateElement("eta", eta_approach.segment,
                                     eta_approach.schedule, carrier=None,
                                     facts=frozenset({"kummer_generator",
                                                      "one_unit"})),),
        constants={},
    )
    return Scenario(model, results, fmodel)


SCENARIOS = {
    "abhyankar": abhyankar,
    "example-e1": example_e1,
    "example-e2": example_e2,
    "kummer-mixed": kummer_mixed,
}


def series_samples(model: FieldModel, count: int, seed: int):
    """Deterministic monomial samples (label, carrier, valuation) over a model.

    Coordinate i of a draw is randint(-12, 12) / p^randint(0, 3).  Each draw
    is built in one integer step: its numerators go over the largest p^k
    drawn, a draw with a coordinate outside its class is skipped, and the
    carrier t^e shares the coefficient 1 of model.one().
    """
    rng = random.Random(seed)
    g = model.value_group
    p = g.prime
    one = model.one()
    coeff = one.terms[0][1]
    out = [("1", one, g.zero())]
    while len(out) < count:
        draws = [(rng.randint(-12, 12), rng.randint(0, 3)) for _ in range(g.rank)]
        top = max([k for _, k in draws])
        nums = tuple([n * p ** (top - k) for n, k in draws])
        den = p**top
        if g._outside(nums, den) is not None:
            continue
        e = GroupElement(g, nums, den)
        out.append((f"t^{e}", SeriesElement._from_fields(model, ((e, coeff),)), e))
    return out


def declared_samples(group: GroupDescriptor, count: int, seed: int):
    """Value-only samples for models without series arithmetic."""
    rng = random.Random(seed)
    out = [("v=0", DeclaredValue(group.zero()), group.zero())]
    while len(out) < count:
        v = group.element(Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
        out.append((f"v={v}", DeclaredValue(v), v))
    return out


def samples_for(scenario: Scenario, count: int, seed: int) -> SampleDraw:
    """The scenario's samples, drawn when first read: series_samples where the
    model has series arithmetic, else declared_samples.  Either lists its
    first sample whatever the count."""
    if scenario.model.series_capable:
        draw = partial(series_samples, scenario.model, count, seed)
    else:
        draw = partial(declared_samples, scenario.model.value_group, count, seed)
    return SampleDraw(max(count, 1), draw)
