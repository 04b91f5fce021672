"""Prime-degree extension records and their classification.

Defect extensions carry an immediate generator: either a pattern series
(equal characteristic) or a declared approximation schedule (mixed
characteristic, where exact p-adic arithmetic is out of reach but the
schedule values are known in closed form).  Synthetic instances may declare
the positive value segment directly; their certificates say so.

Classification only computes.  A result's certificate, the record a report
writes, is derived from the result's own fields each time it is read, so a
caller that writes no report formats nothing.

An extension is independent when its ramification ideal is the maximal
ideal of its invariance ring and that ideal is nonprincipal over the coarse
ring.  On canonical cuts this one test is also the segment criterion (the
value segment is everything above its invariance group H, and G/H has no
smallest positive element), so the certificate reports it under both names.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .errors import (
    InconsistentDatumError,
    NotImmediateError,
    StructuralError,
    WrongCaseError,
)
from .gpsfield import ApproachResult, FieldModel, PatternSeries, approach_segment
from .ogroup import (
    Component,
    GroupDescriptor,
    GroupElement,
    _Frozen,
    _slot_setters,
    is_prime,
)
from .segment import (
    Direction,
    IdealDescriptor,
    Segment,
    coarsening,
    contains,
    invariance_ring,
    seq_cut,
    to_json,
)


class ExtensionKind(str, Enum):
    AS_DEFECT = "as_defect"          # Artin-Schreier, equal characteristic p
    KUMMER_DEFECT = "kummer_defect"  # Kummer, mixed characteristic, zeta_p in K
    DEFECTLESS_VALUE = "defectless_value"  # defectless with (vL : vK) = q


class DefectKind(str, Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"


def _member(kinds: type[Enum], value, field: str):
    """The member of kinds that value is or names, else StructuralError naming field."""
    try:
        return kinds(value)
    except ValueError:
        raise StructuralError(f"{field} {value!r} is not one of {', '.join(kinds)}") from None


class DeclaredSchedule(_Frozen):
    """Approximation values limit - scale/p^(k+1), declared in closed form;
    every scale/p^(k+1) lies in the group."""

    __slots__ = _fields = ("group", "limit", "scale", "start")

    def __init__(self, group: GroupDescriptor, limit: GroupElement, scale: GroupElement,
                 start: int = 0):
        if limit.group != group or scale.group != group:
            raise StructuralError("schedule data live in a different value group")
        scale.require_p_divisible(group.prime, "schedule scale")
        _sched_group(self, group)
        _sched_limit(self, limit)
        _sched_scale(self, scale)
        _sched_start(self, start)

    def approach(self, depth: int) -> ApproachResult:
        # limit - scale/p^(k+1) increases strictly in k exactly when scale > 0
        limit, scale = self.limit, self.scale
        if scale.sign() <= 0:
            raise NotImmediateError(
                f"declared values do not increase strictly: scale {scale} <= 0")
        # the value at k is limit - scale/p^e, e = k + 1.  With limit = L/den
        # and scale = S/den over one denominator it is (L*q - S)/(den*q) for
        # e >= 0 and (L - S*q)/den below, where q = p^|e| is a running power
        group, p = self.group, self.group.prime
        ld, sd = limit.den, scale.den
        lnums = [x * sd for x in limit.nums]
        snums = [y * ld for y in scale.nums]
        den = ld * sd
        e = self.start + 1
        q = p ** abs(e)
        schedule = []
        for _ in range(depth):
            if e >= 0:
                schedule.append(GroupElement(
                    group, tuple([x * q - y for x, y in zip(lnums, snums)]), den * q))
                q *= p
            else:
                schedule.append(GroupElement(
                    group, tuple([x - y * q for x, y in zip(lnums, snums)]), den))
                q //= p
            e += 1
        seg = seq_cut(limit, scale, start=1, direction=Direction.INITIAL)
        return ApproachResult(seg, tuple(schedule))


_sched_group, _sched_limit, _sched_scale, _sched_start = _slot_setters(
    DeclaredSchedule, *DeclaredSchedule._fields)


class DefectDatum(_Frozen):
    """A Galois defect extension of prime degree over its base model."""

    __slots__ = _fields = ("name", "kind", "base", "degree", "generator", "sigma_shift",
                           "declared_sigma", "synthetic")

    def __init__(self, name: str, kind: ExtensionKind, base: FieldModel, degree: int,
                 generator: PatternSeries | DeclaredSchedule | None = None,
                 sigma_shift: GroupElement | None = None,
                 declared_sigma: Segment | None = None, synthetic: bool = False):
        kind = _member(ExtensionKind, kind, "kind")
        if kind is ExtensionKind.DEFECTLESS_VALUE:
            raise StructuralError("defectless data use DefectlessDatum")
        if not is_prime(degree):
            raise StructuralError("extension degree must be prime")
        if degree != base.residue_char:
            raise StructuralError(
                f"a defect extension has degree {base.residue_char}, "
                "the residue characteristic")
        if generator is None and declared_sigma is None:
            raise StructuralError("datum needs a generator or a declared segment")
        for field, value in (("generator", generator), ("sigma_shift", sigma_shift),
                             ("declared_sigma", declared_sigma)):
            if value is not None and _group_of(value) != base.value_group:
                raise StructuralError(f"{field} lives outside the base's value group")
        if declared_sigma is not None:
            _require_positive_final(declared_sigma)
        _dd_name(self, name)
        _dd_kind(self, kind)
        _dd_base(self, base)
        _dd_degree(self, degree)
        _dd_generator(self, generator)
        _dd_sigma_shift(self,   # v(sigma a - a)
                        base.value_group.zero() if sigma_shift is None else sigma_shift)
        _dd_declared_sigma(self, declared_sigma)   # synthetic instances only
        _dd_synthetic(self, synthetic)

    @property
    def group(self) -> GroupDescriptor:
        return self.base.value_group

    def approach(self, depth: int) -> ApproachResult | None:
        if isinstance(self.generator, PatternSeries):
            return approach_segment(self.generator, self.base, depth=depth)
        if isinstance(self.generator, DeclaredSchedule):
            return self.generator.approach(depth)
        return None


(_dd_name, _dd_kind, _dd_base, _dd_degree, _dd_generator, _dd_sigma_shift, _dd_declared_sigma,
 _dd_synthetic) = _slot_setters(DefectDatum, *DefectDatum._fields)


def _group_of(value: PatternSeries | DeclaredSchedule | GroupElement | Segment
              ) -> GroupDescriptor:
    if isinstance(value, PatternSeries):
        return value.model.value_group
    return value.group


def _require_positive_final(seg: Segment) -> Segment:
    if not seg.is_final:
        raise StructuralError("the value segment of the extension must be final")
    # a final segment without 0 lies entirely above it
    if contains(seg, seg.group.zero()):
        raise StructuralError("the value segment must consist of positive values")
    return seg


def sigma_segment(datum: DefectDatum, depth: int = 12) -> tuple[Segment, ApproachResult | None]:
    """The final segment of values v((sigma b - b)/b), b ranging over units.

    Computed as sigma_shift - v(a - K) from the generator's approach segment;
    synthetic data may declare it directly, checked when the datum is built.
    """
    if datum.declared_sigma is not None:
        return datum.declared_sigma, None
    approach = datum.approach(depth)
    # sigma_shift + (-S) for S = approach.segment, built in one step; the
    # constructor zeroes the shift's coordinates inside H
    a = approach.segment
    seg = Segment(a.direction.flipped(), a.level, datum.sigma_shift - a.shift, a.closed)
    return _require_positive_final(seg), approach


class DefectClassification(_Frozen):
    """The classification of a defect datum: its kind, H_E, the sigma
    segment, the ramification and maximal ideals, and the approach (None
    for a declared sigma segment) at the truncation depth."""

    __slots__ = _fields = ("datum", "kind", "H_E", "sigma", "ram_ideal", "max_ideal",
                           "approach", "depth")

    @property
    def group(self) -> GroupDescriptor:
        return self.datum.group

    @property
    def certificate(self) -> dict:
        datum = self.datum
        independent = self.kind is DefectKind.INDEPENDENT
        certificate = {
            "extension": datum.name,
            "kind": datum.kind.value,
            "degree": datum.degree,
            "sigma_segment": to_json(self.sigma),
            "H_E_level": self.H_E.level,
            "criteria": {"ideal_route": independent, "segment_route": independent},
            "truncation_depth": self.depth,
            "synthetic": datum.synthetic,
            "sigma_shift": datum.sigma_shift.coord_strings(),
            "ostrowski": {"degree": datum.degree, "defect": datum.degree,
                          "ramification_index": 1, "residue_degree": 1},
        }
        if self.approach is not None:
            certificate["schedule"] = [v.coord_strings() for v in self.approach.schedule]
            certificate["approach_segment"] = to_json(self.approach.segment)
        return certificate


def classify(datum: DefectDatum, depth: int = 12) -> DefectClassification:
    """Defect classification by the independence criterion."""
    sigma, approach = sigma_segment(datum, depth)
    ram = IdealDescriptor._from_fields(sigma)   # sigma_segment or DefectDatum checked it final
    H, max_ideal = invariance_ring(ram)
    independent = ram.same_values(max_ideal) and not max_ideal.is_principal_over(H)
    kind = DefectKind.INDEPENDENT if independent else DefectKind.DEPENDENT
    return DefectClassification(datum, kind, H, sigma, ram, max_ideal, approach, depth)


# --------------------------------------------------------------------------
# Defectless extensions with (vL : vK) = q.
#
# The value group vL is scaled so that it is carried by a single descriptor:
# vK is the index-q sublattice obtained by multiplying the component at
# star_index by q.  In particular q*vx0 lies in vK by construction; the
# inconsistent-datum error fires for component kinds that cannot carry an
# index-q extension at all.

class DefectlessCase(str, Enum):
    DL2B = "dense_archimedean_step"
    DL2C = "discrete_archimedean_step"


class DefectlessKind(str, Enum):
    ARTIN_SCHREIER = "artin_schreier"  # q = residue char, generator value <= 0
    KUMMER_2A = "kummer_value"         # generator of positive value outside vK
    KUMMER_2B = "kummer_one_unit"      # one-unit generator, q = residue char
    VALUE_ONLY = "value_only"          # no generator data; ideals except I_E


def positive_vp(vp: GroupElement | None) -> GroupElement | None:
    """vp itself, where v(p) is declared: a StructuralError unless it is
    positive, as p lies in the maximal ideal once the residue field has
    characteristic p."""
    if vp is not None and vp.sign() <= 0:
        raise StructuralError(f"v(p) = {vp} is not positive")
    return vp


class DefectlessDatum(_Frozen):
    __slots__ = _fields = ("name", "group", "q", "star_index", "x0_value", "subkind",
                           "residue_char", "vp", "v_eta_minus_1")

    def __init__(self, name: str, group: GroupDescriptor, q: int, star_index: int,
                 x0_value: GroupElement, subkind: DefectlessKind = DefectlessKind.VALUE_ONLY,
                 residue_char: int = 0, vp: GroupElement | None = None,
                 v_eta_minus_1: GroupElement | None = None):
        _dld_name(self, name)
        _dld_group(self, group)                # vL after scaling
        _dld_q(self, q)                        # prime degree = (vL : vK)
        _dld_star_index(self, star_index)      # class where vK has index q
        _dld_x0_value(self, x0_value)          # vx0, not in vK
        _dld_subkind(self, _member(DefectlessKind, subkind, "subkind"))
        _dld_residue_char(self, residue_char)
        _dld_vp(self, positive_vp(vp))         # value of p when residue char divides it
        _dld_v_eta_minus_1(self, v_eta_minus_1)   # one-unit case
        if not is_prime(q):
            raise InconsistentDatumError("degree q must be prime")
        if not 0 <= star_index < group.rank:
            raise StructuralError("star_index outside the value group")
        kind = group.components[star_index]
        if kind is Component.RAT:
            raise InconsistentDatumError(
                "a divisible class cannot carry an index-q value extension")
        if kind is Component.PDIV and group.prime == q:
            raise InconsistentDatumError(
                "the class is q-divisible, so q*vx0 in vK forces vx0 in vK")
        if x0_value.group != group:
            raise StructuralError("vx0 lives in a different value group")
        if self.in_vK(x0_value):
            raise WrongCaseError("vx0 lies in vK; the extension is not value-driven")

    def in_vK(self, x: GroupElement) -> bool:
        # whether x_i / q lies in the star class, by its reduced denominator
        i, den = self.star_index, x.den * self.q
        return self.group._denominator_allowed(i, den // gcd(x.nums[i], den))


(_dld_name, _dld_group, _dld_q, _dld_star_index, _dld_x0_value, _dld_subkind, _dld_residue_char,
 _dld_vp, _dld_v_eta_minus_1) = _slot_setters(DefectlessDatum, *DefectlessDatum._fields)


class DefectlessAnalysis(_Frozen):
    """H_E, the case split, M_E and the ramification ideal (None where it is
    not defined) of a defectless datum."""

    __slots__ = _fields = ("datum", "H_E", "case", "max_ideal", "ram_ideal")

    @property
    def certificate(self) -> dict:
        datum = self.datum
        certificate = {
            "extension": datum.name,
            "kind": ExtensionKind.DEFECTLESS_VALUE.value,
            "subkind": datum.subkind.value,
            "degree": datum.q,
            "H_E_level": self.H_E.level,
            "case": self.case.value,
            "x0_value": datum.x0_value.coord_strings(),
            # vK is vL with its star coordinates scaled by q, so q*vx0 lies in it
            "q_times_x0_in_vK": True,
            "max_ideal": to_json(self.max_ideal.values),
            "ostrowski": {"degree": datum.q, "defect": 1,
                          "ramification_index": datum.q, "residue_degree": 1},
        }
        if self.ram_ideal is not None:
            certificate["ram_ideal"] = to_json(self.ram_ideal.values)
        return certificate


def defectless_analyze(datum: DefectlessDatum) -> DefectlessAnalysis:
    """H_E, the case split, M_E, and the ramification ideal where defined."""
    group = datum.group
    # H_E, the largest convex subgroup inside vK, lies just below the star class:
    # vK differs from vL there only, and the datum keeps that class's unit out of vK
    H, _, max_ideal = coarsening(group, datum.star_index + 1)
    case = (DefectlessCase.DL2B if group.is_dense_at(datum.star_index)
            else DefectlessCase.DL2C)
    return DefectlessAnalysis(datum, H, case, max_ideal, _defectless_ram_ideal(datum))


def _defectless_ram_ideal(datum: DefectlessDatum) -> IdealDescriptor | None:
    wild = datum.residue_char == datum.q
    if datum.subkind is DefectlessKind.VALUE_ONLY:
        if wild:
            raise InconsistentDatumError(
                "wildly ramified defectless data need generator information")
        return None
    if datum.subkind is DefectlessKind.ARTIN_SCHREIER:
        if not wild:
            raise WrongCaseError("Artin-Schreier defectless data need q = residue char")
        if datum.x0_value.sign() > 0:
            raise WrongCaseError("the generator must have value <= 0")
        return IdealDescriptor.principal(-datum.x0_value)
    if datum.subkind is DefectlessKind.KUMMER_2B and not wild:
        raise WrongCaseError("a one-unit Kummer generator needs q = residue char")
    if not wild:
        return None  # tame q-th root of unity has value 0: no wild ramification ideal
    if datum.vp is None:
        raise InconsistentDatumError("wild Kummer data must declare the value of p")
    zeta_value = datum.vp.over(datum.q - 1)
    if zeta_value is None:
        raise StructuralError("v(zeta_q - 1) = v(p)/(q - 1) lies outside the value group")
    if datum.subkind is DefectlessKind.KUMMER_2A:
        if datum.x0_value.sign() <= 0:
            raise WrongCaseError("the generator must have positive value")
        return IdealDescriptor.principal(zeta_value)
    if datum.v_eta_minus_1 is None:
        raise InconsistentDatumError("one-unit Kummer data must declare v(eta - 1)")
    if datum.in_vK(datum.v_eta_minus_1):
        raise WrongCaseError("v(eta - 1) must fall outside vK")
    # the equality edge v(eta - 1) = v(zeta - 1) is accepted, not rejected
    if not datum.v_eta_minus_1 <= zeta_value:
        raise WrongCaseError("one-unit case needs v(eta - 1) <= v(zeta_q - 1)")
    return IdealDescriptor.principal(zeta_value - datum.v_eta_minus_1)

