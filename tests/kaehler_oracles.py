"""Verification oracles for Kaehler presentations, used only by the tests.

`colon` is the generic value-set colon that `kaehler.present_quotient`'s
closed form is checked against; `closed_form` states the paper's
annihilators case by case, and `maximality_witness` probes below them.
"""

from __future__ import annotations

from valcuts.errors import StructuralError
from valcuts.extension import DefectClassification, DefectlessKind
from valcuts.kaehler import OmegaPresentation
from valcuts.segment import (
    Direction,
    IdealDescriptor,
    Segment,
    coarsening,
    contains,
    is_subset,
)

from conftest import is_principal_ideal, is_trivial_subgroup, shifted_ideal


def colon(outer: Segment, inner: Segment) -> Segment:
    """The final segment {g : g + inner <= outer}, for two final segments.

    It is `is_subset(shift(inner, g), outer)` solved for g: the shifts are
    compared against the coarser subgroup H, so g passes above the coset
    outer.shift - inner.shift + H and fails below it.  On that coset itself
    it passes unless inner reaches into the coset while outer does not hold
    all of it.  When outer and inner are the value sets of ideals J and I,
    this is the value set of the ideal quotient (J : I).  Segments over
    different groups raise StructuralError, as their shifts' difference does.
    """
    if inner.direction is not Direction.FINAL or outer.direction is not Direction.FINAL:
        raise StructuralError("the colon is defined for final segments only")
    level = min(inner.level, outer.level)
    reaches = inner.closed or inner.level > level
    closed = not reaches or (outer.closed and outer.level == level)
    return Segment(Direction.FINAL, level, outer.shift - inner.shift, closed)


def maximality_witness(pres: OmegaPresentation, candidates) -> bool:
    """Every candidate value strictly below the annihilator fails containment.

    Candidates are group elements; those already inside the annihilator's
    value set are skipped.  Returns True when each outside candidate g has
    some witness value x of the numerator with g + x outside the power.
    """
    power = pres.power
    for g in candidates:
        if contains(pres.annihilator.values, g):
            continue
        shifted = shifted_ideal(pres.numerator, g)
        if is_subset(shifted.values, power.values):
            return False
    return True


def closed_form(result) -> tuple[bool, IdealDescriptor, bool]:
    """(is_zero, annihilator, annihilator_is_max_ideal) from the paper's
    closed forms, one case per presentation form.

    - I/I^p (defect): zero exactly when I = I^p; otherwise the annihilator
      is I^(p-1), improved to a*O(I) when that power's value set has an
      unattained infimum, which the immediate extension realizes by a base
      value a: the same cut, closed.
    - M/M^q (tame value extension): zero exactly when M is not principal
      over the coarse ring O(H); otherwise M is principal and the
      annihilator is M^(q-1).
    - IM/(IM)^q (wild value extension): zero only for a positive-value
      Kummer generator with v(p) outside M and M not principal over O(H).
      With I = aO the annihilator is (IM)^(q-1) when M is principal over
      O(H), and a^(q-1)*O(H) when it is not.
    The flag is set where the annihilator is the maximal ideal of the ring.
    """
    group = result.max_ideal.group
    _, ring, max_ideal = coarsening(group, group.rank)
    if isinstance(result, DefectClassification):
        num = result.ram_ideal
        if num.same_values(num.power(result.datum.degree)):
            return True, ring, False
        v = num.values
        ann = IdealDescriptor(Segment(v.direction, v.level,
                                      v.shift * (result.datum.degree - 1), closed=True))
        return False, ann, ann.same_values(max_ideal)
    datum, M, H = result.datum, result.max_ideal, result.H_E
    n = datum.q
    if datum.residue_char != n:
        if not M.is_principal_over(H):
            return True, ring, False
        return False, M.power(n - 1), n == 2 and is_trivial_subgroup(H)
    if (datum.subkind is DefectlessKind.KUMMER_2A and not contains(M.values, datum.vp)
            and not M.is_principal_over(H)):
        return True, ring, False
    a_value = result.ram_ideal.values.shift
    if M.is_principal_over(H):
        ann = result.ram_ideal.multiply(M).power(n - 1)
    else:
        ann = shifted_ideal(coarsening(group, H.level)[1], a_value * (n - 1))
    return False, ann, (n == 2 and not contains(M.values, a_value) and is_trivial_subgroup(H)
                        and is_principal_ideal(max_ideal))
