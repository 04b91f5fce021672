"""Verification oracles for Kaehler presentations, used only by the tests."""

from __future__ import annotations

from valcuts.errors import StructuralError
from valcuts.kaehler import OmegaPresentation
from valcuts.segment import is_subset


def maximality_witness(pres: OmegaPresentation, candidates) -> bool:
    """Every candidate value strictly below the annihilator fails containment.

    Candidates are group elements; those already inside the annihilator's
    value set are skipped.  Returns True when each outside candidate g has
    some witness value x of the numerator with g + x outside the power.
    """
    if pres.annihilator is None:
        raise StructuralError("annihilator not attached")
    power = pres.power
    for g in candidates:
        if pres.annihilator.contains_value(g):
            continue
        shifted = pres.numerator.shifted(g)
        if is_subset(shifted.values, power.values):
            return False
    return True
