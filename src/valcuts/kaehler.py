"""Differential-module presentations as quotients of ideal value sets.

The module of relative differentials of a prime-degree extension of
valuation rings is presented by a numerator ideal and an exponent: the
defect case uses I/I^p, wildly ramified defectless extensions use
(I*M)/(I*M)^p, and tamely ramified value extensions use M/M^q.  Zero tests
and annihilators are decided exactly on the value-set descriptors.

A presentation keeps the value set of its denominator power, built once by
`present` (the defect zero test compares against it).
"""

from __future__ import annotations

from enum import Enum

from .errors import StructuralError
from .extension import (
    DefectClassification,
    DefectlessAnalysis,
    DefectlessKind,
)
from .ogroup import _Frozen, _set
from .segment import (
    IdealDescriptor,
    Segment,
    coarsening_value_set,
    is_subset,
    to_json,
)


class PresentationForm(str, Enum):
    RAM_QUOTIENT = "I/I^p"
    RAM_MAX_QUOTIENT = "IM/(IM)^p"
    MAX_QUOTIENT = "M/M^q"


class OmegaPresentation(_Frozen):
    __slots__ = _fields = ("numerator", "denominator_exponent", "power", "form", "is_zero",
                           "provenance", "annihilator", "annihilator_is_max_ideal")

    def __init__(self, numerator: IdealDescriptor, denominator_exponent: int,
                 power: IdealDescriptor, form: PresentationForm, is_zero: bool,
                 provenance: str, annihilator: IdealDescriptor | None = None,
                 annihilator_is_max_ideal: bool = False):
        _set(self, "numerator", numerator)
        _set(self, "denominator_exponent", denominator_exponent)
        _set(self, "power", power)   # numerator ** denominator_exponent
        _set(self, "form", form)
        _set(self, "is_zero", is_zero)
        _set(self, "provenance", provenance)
        _set(self, "annihilator", annihilator)
        _set(self, "annihilator_is_max_ideal", annihilator_is_max_ideal)

    def to_json(self) -> dict:
        out = {
            "form": self.form.value,
            "numerator": to_json(self.numerator.values),
            "exponent": self.denominator_exponent,
            "is_zero": self.is_zero,
            "provenance": self.provenance,
        }
        if self.annihilator is not None:
            out["annihilator"] = to_json(self.annihilator.values)
            out["annihilator_is_max_ideal"] = self.annihilator_is_max_ideal
        return out


def present(result: DefectClassification | DefectlessAnalysis) -> OmegaPresentation:
    """Select the presentation form and decide the zero test for the instance."""
    if isinstance(result, DefectClassification):
        num = result.ram_ideal
        power = num.power(result.datum.degree)
        return OmegaPresentation(
            numerator=num,
            denominator_exponent=result.datum.degree,
            power=power,
            form=PresentationForm.RAM_QUOTIENT,
            is_zero=num.same_values(power),
            provenance=f"defect:{result.kind.value}",
        )
    if not isinstance(result, DefectlessAnalysis):
        raise StructuralError("present expects a classified or analyzed extension")
    datum = result.datum
    if datum.residue_char != datum.q:
        # tame value extension: q is a unit, so the zero test reduces to
        # whether M_E is principal over the coarse ring
        zero = not result.max_ideal.is_principal_over(result.H_E)
        return OmegaPresentation(result.max_ideal, datum.q,
                                 power=result.max_ideal.power(datum.q),
                                 form=PresentationForm.MAX_QUOTIENT,
                                 is_zero=zero, provenance="defectless:tame_value")
    # wildly ramified: the Artin-Schreier and one-unit Kummer modules are
    # never zero; a positive-value Kummer generator gives zero exactly when q
    # is a unit of the coarse ring and M_E is not principal over it
    zero = (datum.subkind is DefectlessKind.KUMMER_2A
            and not result.max_ideal.contains_value(datum.vp)
            and not result.max_ideal.is_principal_over(result.H_E))
    num = result.ram_ideal.multiply(result.max_ideal)
    return OmegaPresentation(num, datum.q, power=num.power(datum.q),
                             form=PresentationForm.RAM_MAX_QUOTIENT, is_zero=zero,
                             provenance=f"defectless:{datum.subkind.value}")


def annihilate(pres: OmegaPresentation,
               result: DefectClassification | DefectlessAnalysis) -> OmegaPresentation:
    """Attach the annihilator ideal; the full ring exactly when the module is zero."""
    group = pres.numerator.group
    is_max = False
    if pres.is_zero:
        ann = IdealDescriptor.ring(group)
    elif isinstance(result, DefectClassification):
        ann = _dependent_defect_annihilator(result)
        is_max = ann.same_values(IdealDescriptor.maximal_ideal(group))
    elif pres.form is PresentationForm.MAX_QUOTIENT:
        # nonzero forces M_E principal over the coarse ring; a = 1
        n = result.datum.q
        ann = result.max_ideal.power(n - 1)
        is_max = n == 2 and result.H_E.is_trivial
    else:
        # every wild ramification ideal is principal, generated at its shift
        n = result.datum.q
        a_value = result.ram_ideal.values.shift
        if result.max_ideal.is_principal_over(result.H_E):
            ann = pres.numerator.power(n - 1)
        else:
            base = IdealDescriptor(coarsening_value_set(result.H_E))
            ann = base.shifted(a_value * (n - 1))
        is_max = (n == 2
                  and not result.max_ideal.contains_value(a_value)
                  and result.H_E.is_trivial
                  and IdealDescriptor.maximal_ideal(group).is_principal)
    return OmegaPresentation(pres.numerator, pres.denominator_exponent, pres.power,
                             pres.form, pres.is_zero, pres.provenance, ann, is_max)


def _dependent_defect_annihilator(result: DefectClassification) -> IdealDescriptor:
    """I_E^(p-1), improved to a*O(I_E) when the quotient value set of
    I_E^(p-1) has an unattained infimum realized by a base-field value."""
    # a canonical open cut sits over a dense cut class, so the infimum is not
    # attained; the extension is immediate, so vK = vL realizes the shift.
    # (p-1) times the cut, closed: closing a closed cut leaves it as it is
    values = result.ram_ideal.values
    return IdealDescriptor(Segment(values.direction, values.level,
                                   values.shift * (result.datum.degree - 1), closed=True))


def containment_holds(pres: OmegaPresentation) -> bool:
    """ann * numerator lands inside the denominator power, at value level."""
    if pres.annihilator is None:
        raise StructuralError("annihilator not attached")
    prod = pres.annihilator.multiply(pres.numerator)
    return is_subset(prod.values, pres.power.values)
