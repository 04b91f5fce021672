"""Differential-module presentations as quotients of ideal value sets.

The module of relative differentials of a prime-degree extension of
valuation rings is presented by a numerator ideal and an exponent: the
defect case uses I/I^p, wildly ramified defectless extensions use
(I*M)/(I*M)^p, and tamely ramified value extensions use M/M^q.  Zero tests
and annihilators are decided exactly on the value-set descriptors, the same
way for every form: the module N/N^q is zero iff N = N^q, and its
annihilator is the colon (N^q : N) = {a : a*N <= N^q}, met with the ring.

`present` builds a presentation whole, with its annihilator: the value set
of its denominator power is built once and read by each test and the colon.
"""

from __future__ import annotations

from enum import Enum

from .errors import StructuralError
from .extension import DefectClassification, DefectlessAnalysis
from .ogroup import _Frozen
from .segment import IdealDescriptor, colon, is_subset, to_json


class PresentationForm(str, Enum):
    RAM_QUOTIENT = "I/I^p"
    RAM_MAX_QUOTIENT = "IM/(IM)^p"
    MAX_QUOTIENT = "M/M^q"


class OmegaPresentation(_Frozen):
    """The module numerator/power, power = numerator ** denominator_exponent,
    with its zero test and its annihilator."""

    __slots__ = _fields = ("numerator", "denominator_exponent", "power", "form", "is_zero",
                           "provenance", "annihilator", "annihilator_is_max_ideal")

    def to_json(self) -> dict:
        return {
            "form": self.form.value,
            "numerator": to_json(self.numerator.values),
            "exponent": self.denominator_exponent,
            "is_zero": self.is_zero,
            "provenance": self.provenance,
            "annihilator": to_json(self.annihilator.values),
            "annihilator_is_max_ideal": self.annihilator_is_max_ideal,
        }


def present(result: DefectClassification | DefectlessAnalysis) -> OmegaPresentation:
    """Select the presentation form for the instance, decide the zero test and
    attach the annihilator: (power : numerator) met with the ring, which is
    the ring itself when the module is zero."""
    if isinstance(result, DefectClassification):
        num, exponent = result.ram_ideal, result.datum.degree
        form, provenance = PresentationForm.RAM_QUOTIENT, f"defect:{result.kind.value}"
    elif not isinstance(result, DefectlessAnalysis):
        raise StructuralError("present expects a classified or analyzed extension")
    elif result.datum.residue_char != result.datum.q:
        num, exponent = result.max_ideal, result.datum.q
        form, provenance = PresentationForm.MAX_QUOTIENT, "defectless:tame_value"
    else:
        num, exponent = result.ram_ideal.multiply(result.max_ideal), result.datum.q
        form = PresentationForm.RAM_MAX_QUOTIENT
        provenance = f"defectless:{result.datum.subkind.value}"
    power = num.power(exponent)
    is_zero, ann = num.same_values(power), IdealDescriptor.ring(num.group)
    if not is_zero:   # two final cuts are nested, so their meet is the smaller one
        values = colon(power.values, num.values)
        ann = IdealDescriptor(values) if is_subset(values, ann.values) else ann
    return OmegaPresentation(num, exponent, power, form, is_zero, provenance, ann,
                             ann.same_values(IdealDescriptor.maximal_ideal(num.group)))


def annihilate(pres: OmegaPresentation, result) -> OmegaPresentation:
    """The presentation itself, which `present` built with its annihilator.

    Kept public because benchmark workloads call it as an operation.
    """
    return pres


def containment_holds(pres: OmegaPresentation) -> bool:
    """ann * numerator lands inside the denominator power, at value level."""
    prod = pres.annihilator.multiply(pres.numerator)
    return is_subset(prod.values, pres.power.values)
