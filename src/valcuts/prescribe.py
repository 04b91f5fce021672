"""Build plans realizing a chosen set of subprincipal convex subgroups.

Over the p-divisible hull of a rank-n lexicographic sum of integer chains,
each subprincipal level j in 1..n is realized as the invariance group of a
degree-p witness: the root of X^p - X - 1/t_(j-1) given as a geometric tail
over the class j-1 (equal characteristic), or, for level 1 in the mixed
case, the declared schedule -vp/p^(i+1) of the root of X^p - X - 1/p.

Levels outside the selection carry declared exclusion markers: the closure
step that kills their witnesses (a maximal purely wild extension, which is
a tame field) is recorded, not machine-checked.  Reports therefore separate
VERIFIED positive checks from DECLARED negative ones.
"""

from __future__ import annotations

from enum import Enum
from itertools import zip_longest

from .errors import InvalidSelectionError
from .extension import (
    DeclaredSchedule,
    DefectDatum,
    DefectKind,
    ExtensionKind,
    classify,
)
from .gpsfield import FieldModel, PatternSeries, Tail
from .ogroup import Component, GroupDescriptor, _Frozen


class CharCase(str, Enum):
    EQUAL = "equal"
    MIXED = "mixed"


class Witness(_Frozen):
    """The defect datum witnessing a level, of kind "pattern" or "declared"."""

    __slots__ = _fields = ("level", "kind", "datum")


class Exclusion(_Frozen):
    __slots__ = _fields = ("level", "note")


class ConstructionPlan(_Frozen):
    __slots__ = _fields = ("index_size", "selected", "prime", "char_case", "group", "model",
                           "witnesses", "exclusions")

    def chain_bijection(self) -> tuple[tuple[int, int], ...]:
        """Input index i maps to subgroup level i + 1; note the order reversal:
        increasing index means decreasing subgroup."""
        return tuple((i, i + 1) for i in range(self.index_size))


def build(n: int, selected, p: int, char_case: CharCase = CharCase.EQUAL) -> ConstructionPlan:
    if n < 1:
        raise InvalidSelectionError("the index chain must be nonempty")
    levels = frozenset(int(j) for j in selected)
    group = GroupDescriptor((Component.PDIV,) * n, p)
    for j in levels:
        # the subprincipal levels of the chain H_0 > ... > H_n are 1..n
        if not 1 <= j <= n:
            raise InvalidSelectionError(f"level {j} is not subprincipal")
    char_case = CharCase(char_case)

    if char_case is CharCase.EQUAL:
        model = FieldModel(
            name=f"k(t_0..t_{n - 1})^h perfect hull, p={p}",
            char=p, value_group=group)
        zero, one = model.zero(), model.residue.one()   # shared by every witness
    else:
        # rank n >= 1 always has the largest proper convex subgroup H_1,
        # below which the equal-characteristic residue construction runs
        model = FieldModel(
            name=f"mixed p-adic tower over k(t_1..t_{n - 1}), p={p}",
            char=0, residue_char=p, value_group=group, vp=group.unit(0))

    witnesses = []
    exclusions = []
    for j in sorted(levels):
        if char_case is CharCase.MIXED:
            # level 1 is the p-adic step: its scale model.vp is group.unit(0)
            name = (f"level{j}_root_of_X^p-X-1/p" if j == 1
                    else f"level{j}_residue_root_of_X^p-X-1/t_{j - 1}")
            sched = DeclaredSchedule(group, limit=group.zero(), scale=group.unit(j - 1))
            datum = DefectDatum(name=name, kind=ExtensionKind.KUMMER_DEFECT, base=model,
                                degree=p, generator=sched)
            witnesses.append(Witness(j, "declared", datum))
        else:
            # one tail, nonzero, over a p-divisible class: no check or merge can fail
            theta = PatternSeries._from_fields(
                model, zero, (Tail._from_fields(one, group.unit(j - 1, -1), 1),))
            datum = DefectDatum(name=f"level{j}_root_of_X^p-X-1/t_{j - 1}",
                                kind=ExtensionKind.AS_DEFECT, base=model,
                                degree=p, generator=theta)
            witnesses.append(Witness(j, "pattern", datum))
    for j in range(1, n + 1):
        if j not in levels:
            note = ("maximal purely wild closure at the p-adic step"
                    if char_case is CharCase.MIXED and j == 1
                    else f"maximal purely wild closure over class {j - 1}; "
                    "a tame field admits no defect extension")
            exclusions.append(Exclusion(j, note))

    return ConstructionPlan(n, levels, p, char_case, group, model,
                            tuple(witnesses), tuple(exclusions))


class WitnessReport(_Frozen):
    __slots__ = _fields = ("level", "passed", "found_level", "defect_kind", "schedule",
                           "identity_checked")


class VerificationReport(_Frozen):
    __slots__ = _fields = ("plan", "witnesses", "exclusions")

    @property
    def passed(self) -> bool:
        return all(w.passed for w in self.witnesses)

    def to_json(self) -> dict:
        # value i of every schedule is over p^(i + 1): walked across the witnesses,
        # each power of p is written once (ogroup._power_string keeps the last)
        schedules = [[] for _ in self.witnesses]
        for values in zip_longest(*[w.schedule for w in self.witnesses]):   # None pads
            for v, out in zip(values, schedules):
                if v is not None:
                    out.append(v.coord_strings())
        return {
            "index_size": self.plan.index_size,
            "selected": sorted(self.plan.selected),
            "prime": self.plan.prime,
            "char_case": self.plan.char_case.value,
            "witnesses": [
                {"level": w.level, "passed": w.passed, "found_level": w.found_level,
                 "defect": w.defect_kind, "identity_checked": w.identity_checked,
                 "schedule": schedule, "status": "VERIFIED"}
                for w, schedule in zip(self.witnesses, schedules)
            ],
            "exclusions": [
                {"level": e.level, "note": e.note, "status": "DECLARED"}
                for e in self.exclusions
            ],
            # each witness was classified onto the subprincipal level built for it
            "chain_order_isomorphic": all(w.found_level == w.level for w in self.witnesses),
            "chain_bijection": [list(pair) for pair in self.plan.chain_bijection()],
            "no_discrete_component": Component.INT not in self.plan.group.components,
            "passed": self.passed,
        }


def _check_witness_identity(plan: ConstructionPlan, witness: Witness) -> bool:
    """theta^p - theta - 1/t = 0, exactly, for pattern witnesses."""
    if witness.kind != "pattern":
        return False
    one_over_t = plan.model.monomial(1, plan.group.unit(witness.level - 1, -1))
    return witness.datum.generator.artin_schreier(one_over_t).is_zero


def verify(plan: ConstructionPlan, depth: int = 10) -> VerificationReport:
    """Classify every selected witness and check it lands on its level.

    The report says whether every check passed; a failed witness carries its
    found level and schedule values.
    """
    reports = []
    for w in plan.witnesses:
        res = classify(w.datum, depth=depth)
        ok = (res.kind is DefectKind.INDEPENDENT and res.H_E.level == w.level)
        identity = _check_witness_identity(plan, w)
        reports.append(WitnessReport(w.level, ok, res.H_E.level, res.kind.value,
                                     res.approach.schedule, identity))
    return VerificationReport(plan, tuple(reports), plan.exclusions)

