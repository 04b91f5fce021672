"""Differential-module presentations as quotients of ideal value sets.

The module of relative differentials of a prime-degree extension of
valuation rings is presented by a numerator ideal and an exponent: the
defect case uses I/I^p, wildly ramified defectless extensions use
(I*M)/(I*M)^p, and tamely ramified value extensions use M/M^q.  Zero tests
and annihilators are read off the numerator's value set the same way for
every form.  That set is a final cut S = d + H, so N^q has the values
q*d + H: the module N/N^q is zero iff d = 0, and the colon (N^q : N) =
{a : a*N <= N^q} is the closed cut at (q - 1)*d over the same H.  Met with
the ring, the annihilator is that cut when d > 0 and the ring otherwise.

`present` chooses the form and `present_quotient` builds the presentation
from (numerator, exponent) whole, with its annihilator.
"""

from __future__ import annotations

from enum import Enum

from . import segment
from .errors import StructuralError
from .extension import DefectClassification, DefectKind, DefectlessAnalysis, DefectlessKind
from .ogroup import GroupElement, _Frozen
from .segment import Direction, IdealDescriptor, Segment, to_json


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


# each presentation's provenance, written once per kind
_DEFECT_PROVENANCE = {kind: f"defect:{kind.value}" for kind in DefectKind}
_DEFECTLESS_PROVENANCE = {kind: f"defectless:{kind.value}" for kind in DefectlessKind}


def present(result: DefectClassification | DefectlessAnalysis) -> OmegaPresentation:
    """Select the presentation form for the instance and build it with
    `present_quotient`."""
    if isinstance(result, DefectClassification):
        return present_quotient(result.ram_ideal, result.datum.degree,
                                PresentationForm.RAM_QUOTIENT, _DEFECT_PROVENANCE[result.kind])
    if not isinstance(result, DefectlessAnalysis):
        raise StructuralError("present expects a classified or analyzed extension")
    if result.datum.residue_char != result.datum.q:
        return present_quotient(result.max_ideal, result.datum.q,
                                PresentationForm.MAX_QUOTIENT, "defectless:tame_value")
    return present_quotient(result.ram_ideal.multiply(result.max_ideal), result.datum.q,
                            PresentationForm.RAM_MAX_QUOTIENT,
                            _DEFECTLESS_PROVENANCE[result.datum.subkind])


def present_quotient(num: IdealDescriptor, q: int, form: PresentationForm,
                     provenance: str) -> OmegaPresentation:
    """The presentation num/num^q, read off the numerator's value set, the
    final cut d + H: the module is zero iff d = 0, and its annihilator is the
    colon (num^q : num), the closed cut at (q - 1)*d over H, met with the
    ring: that cut when d > 0, built unchecked on d's integers as it is final
    and canonical, and the ring otherwise."""
    values = num.values
    d = values.shift
    G = d.group
    _, ring, maximal = segment.coarsening(G, G.rank)
    sign = d.sign()
    if sign > 0:
        ann = IdealDescriptor._from_fields(Segment._from_fields(
            Direction.FINAL, values.level,
            GroupElement(G, tuple([n * (q - 1) for n in d.nums]), d.den), True))
    else:
        ann = ring
    return OmegaPresentation(num, q, num.power(q), form, sign == 0, provenance, ann,
                             ann.values == maximal.values)


def annihilate(pres: OmegaPresentation, result) -> OmegaPresentation:
    """The presentation itself, which `present` built with its annihilator.

    Kept public because benchmark workloads call it as an operation.
    """
    return pres


def containment_holds(pres: OmegaPresentation) -> bool:
    """ann * numerator lands inside the denominator power, at value level:
    the generic sum and containment of cuts, independent of the closed form."""
    return segment.is_subset(segment.sum(pres.annihilator.values, pres.numerator.values),
                             pres.power.values)
