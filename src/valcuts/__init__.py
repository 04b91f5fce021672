"""Exact cut arithmetic for valued fields.

Models finite-rank Hahn sums, initial/final segments of their value groups,
truncated generalized-power-series fields, prime-degree extension records
with defect classification, differential-module presentations, and a small
first-order formula evaluator over those models.
"""

__version__ = "0.1.0"

from .ogroup import (  # noqa: F401
    Component,
    ConvexSubgroup,
    GroupDescriptor,
    GroupElement,
)
from .segment import (  # noqa: F401
    CutKind,
    Direction,
    IdealDescriptor,
    Segment,
    element_cut,
    invariance_group,
    invariance_ring,
    seq_cut,
    subgroup_cut,
)
