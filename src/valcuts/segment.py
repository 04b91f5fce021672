"""Canonical descriptors for initial and final segments of a Hahn sum.

Every cut is stored in one form, (direction, level, shift, closed): the
points strictly beyond the coset shift + H_level, together with the coset
itself when the cut is closed.  A final cut lies above its coset, an initial
cut below it.  This is the shape of every value set the library handles:
coarsening rings O(H) and their maximal ideals, ramification ideals, and
annihilators shaped like a^m * O(H).

An element cut {a >= g} / {a > g} is the cut at the trivial subgroup H_n
(n the rank) with shift g; it is an "element" cut in the reports exactly
when it is closed.  Geometric sequence cuts (unions of element cuts along a
schedule g -/+ c/p^k) are reduced to this form when built.

Cuts are canonical when built, so structural equality decides set
equality: the constructor turns an open cut over a discrete cut class into
the closed cut one unit further in, and zeroes every coordinate of the
shift inside H.  Both rules are mirror symmetric, so initial and final cuts
share one code path, with the direction entering only as a sign.  A cut at
H_0, the whole group, describes the empty set and is rejected when built, as
is a level outside 0..rank.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import add

from .errors import ConfigReader, DegenerateInputError, StructuralError
from .ogroup import (
    Component,
    ConvexSubgroup,
    GroupDescriptor,
    GroupElement,
    _Frozen,
    _slot_setters,
)


class Direction(str, Enum):
    INITIAL = "initial"
    FINAL = "final"

    def flipped(self) -> "Direction":
        return Direction.FINAL if self is Direction.INITIAL else Direction.INITIAL

    @property
    def sign(self) -> int:
        """+1 when the cut lies above its coset, -1 when below."""
        return 1 if self is Direction.FINAL else -1


class CutKind(str, Enum):
    ELEMENT = "element"
    SUBGROUP = "subgroup"


class Segment(_Frozen):
    """The cut (direction, level, shift, closed), canonical when built.

    The constructor applies both rules in one frame, setting each field once.
    negate, scale_int, sum and shift map canonical cuts to canonical cuts and
    build their result through `_from_fields`, which skips the rules.
    Equality and hashing are structural on the four fields.
    """

    __slots__ = _fields = ("direction", "level", "shift", "closed")

    def __init__(self, direction: Direction, level: int, shift: GroupElement, closed: bool):
        group, nums = shift.group, shift.nums
        rank = len(nums)
        if not 0 < level <= rank:
            if level == 0:
                raise DegenerateInputError("cut at the whole group describes the empty set")
            raise StructuralError(f"cut level {level} lies outside 1..{rank}")
        if not closed and group.components[level - 1] is Component.INT:
            # over a discrete cut class {a > d + H} = {a >= d + 1 + H}, and
            # {a < d + H} = {a <= d - 1 + H}; the shift moves and loses its
            # coordinates inside H in one step
            closed = True
            head = list(nums[:level])
            head[-1] += direction.sign * shift.den
            shift = GroupElement(group, tuple(head) + (0,) * (rank - level), shift.den)
        elif any(nums[level:]):
            shift = GroupElement(group, nums[:level] + (0,) * (rank - level), shift.den)
        _seg_direction(self, direction)
        _seg_level(self, level)
        _seg_shift(self, shift)
        _seg_closed(self, closed)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Segment:
            return NotImplemented
        return (self.level == other.level and self.closed == other.closed
                and self.direction == other.direction and self.shift == other.shift)

    def __hash__(self) -> int:
        return hash((self.direction, self.level, self.shift, self.closed))

    @property
    def group(self) -> GroupDescriptor:
        return self.shift.group

    @property
    def is_final(self) -> bool:
        return self.direction is Direction.FINAL

    @property
    def kind(self) -> CutKind:
        """ELEMENT exactly when the cut has an extreme point, the shift."""
        if self.closed and self.level == self.group.rank:
            return CutKind.ELEMENT
        return CutKind.SUBGROUP


_seg_direction, _seg_level, _seg_shift, _seg_closed = _slot_setters(Segment, *Segment._fields)


def element_cut(gamma: GroupElement, closed: bool = True,
                direction: Direction = Direction.FINAL) -> Segment:
    return Segment(direction, gamma.group.rank, gamma, closed)


def subgroup_cut(H: ConvexSubgroup, shift: GroupElement | None = None,
                 closed: bool = False,
                 direction: Direction = Direction.FINAL) -> Segment:
    if shift is None:
        shift = H.group.zero()
    if shift.group != H.group:
        raise StructuralError("shift belongs to a different group descriptor")
    return Segment(direction, H.level, shift, closed)


def seq_cut(limit: GroupElement, scale: GroupElement, start: int = 1,
            direction: Direction = Direction.INITIAL) -> Segment:
    """The union over k >= start of the closed element cuts at limit -/+ scale/p^k.

    The threshold moves towards the limit (minus for initial cuts, plus for
    final ones).  A positive scale gives the open cut at the limit's coset of
    the subprincipal subgroup of the scale's class; a negative one moves the
    thresholds away from the limit, so the union is its first member, at
    limit -/+ scale/p^start for any integer start.  A first member outside
    the group raises StructuralError.
    """
    if scale.group != limit.group:
        raise StructuralError("scale belongs to a different group descriptor")
    if scale.is_zero:
        raise DegenerateInputError("sequence cut with zero scale")
    if scale.sign() > 0:
        # the subprincipal subgroup of the scale's class is H_(lead + 1)
        return Segment(direction, scale.leading_index() + 1, limit, False)
    step = scale * (direction.sign / Fraction(limit.group.prime) ** start)
    return element_cut(limit + step, closed=True, direction=direction)


def negate(s: Segment) -> Segment:
    """Pointwise negation -S; flips the direction."""
    return Segment._from_fields(s.direction.flipped(), s.level, -s.shift, s.closed)


def normalize(s: Segment) -> Segment:
    """The identity: every Segment is canonical when built.

    Kept public because benchmark workloads call it as an operation.
    """
    return s


def _side(x: GroupElement, d: GroupElement, level: int) -> int:
    """Position of x - d against H_level: 1 above, 0 inside, -1 below."""
    xd, dd = x.den, d.den
    for a, b in zip(x.nums[:level], d.nums):
        a, b = a * dd, b * xd
        if a != b:
            return 1 if a > b else -1
    return 0


def contains(s: Segment, x: GroupElement) -> bool:
    """Exact membership."""
    group = s.shift.group
    if x.group is not group and x.group != group:
        raise StructuralError("element belongs to a different group descriptor")
    side = _side(x, s.shift, s.level)
    if s.direction is not Direction.FINAL:
        side = -side
    return side > 0 or (side == 0 and s.closed)


def invariance_group(s: Segment) -> ConvexSubgroup:
    """All g with S + g = S; element cuts are rigid, other cuts return their H."""
    return coarsening(s.shift.group, s.level)[0]


def shift(s: Segment, gamma: GroupElement) -> Segment:
    """The translate gamma + S."""
    return _translate(s.direction, s.level, s.shift, gamma, s.closed)


def sum(s1: Segment, s2: Segment) -> Segment:
    """Pointwise sumset of two final segments."""
    if s1.direction is not Direction.FINAL or s2.direction is not Direction.FINAL:
        raise StructuralError("sum is defined for final segments only")
    # the coarser boundary wins; the result is closed only when every operand
    # sitting at that boundary is closed.  This is exact for every kind of
    # component: a canonical cut is open only over a dense cut class, where a
    # point beyond the sum's boundary splits into two points beyond the
    # operands' boundaries
    l1, l2 = s1.level, s2.level
    if l1 < l2:
        level, closed = l1, s1.closed
    elif l2 < l1:
        level, closed = l2, s2.closed
    else:
        level, closed = l1, s1.closed and s2.closed
    return _translate(Direction.FINAL, level, s1.shift, s2.shift, closed)


def _translate(direction: Direction, level: int, a: GroupElement, b: GroupElement,
               closed: bool) -> Segment:
    """The cut (direction, level, a + b, closed), for a level and a closedness
    that a canonical operand has: open only over a dense class.  The sum is
    made on the integers, with its coordinates inside H dropped, and wrapped
    unchecked, as it is canonical; `_pair` checks that a and b share a group."""
    x, y, den = a._pair(b)
    nums = tuple(map(add, x[:level], y[:level]))
    rank = len(x)
    if level < rank:
        nums += (0,) * (rank - level)
    return Segment._from_fields(direction, level, GroupElement(a.group, nums, den), closed)


def scale_int(s: Segment, m: int) -> Segment:
    """The m-fold sumset S + ... + S (m >= 1), for cuts of either direction.

    It is the value set of the m-th power of an ideal with value set S, and
    the closure of the pointwise image {m*a : a in S} in the cut's direction
    (upwards for a final cut, downwards for an initial one).  It equals that
    image itself only when the group is m-divisible in every class.
    """
    if m < 1:
        raise DegenerateInputError("scale factor must be a positive integer")
    return Segment._from_fields(s.direction, s.level, s.shift * m, s.closed)


def is_subset(inner: Segment, outer: Segment) -> bool:
    """Decide inner <= outer for two final segments, exactly."""
    g1, g2 = inner.shift.group, outer.shift.group
    if g1 is not g2 and g1 != g2:
        raise StructuralError("segments live over different group descriptors")
    if inner.direction is not Direction.FINAL or outer.direction is not Direction.FINAL:
        raise StructuralError("containment is implemented for final segments")
    # compare the shifts against the coarser of the two subgroups H
    level = min(inner.level, outer.level)
    side = _side(inner.shift, outer.shift, level)
    if side:
        return side > 0
    # same coset of H: inner reaches into that coset unless it is open at
    # H itself, and outer holds the whole coset only when closed at H
    reaches = inner.closed or inner.level > level
    return not reaches or (outer.closed and outer.level == level)


def to_json(s: Segment) -> dict:
    coords = s.shift.coord_strings()
    if s.kind is CutKind.ELEMENT:
        return {"direction": s.direction.value, "kind": "element", "gamma": coords,
                "closed": True}
    return {"direction": s.direction.value, "kind": "subgroup", "level": s.level,
            "shift": coords, "closed": s.closed}


def from_json(group: GroupDescriptor, data: dict, path: str = "") -> Segment:
    """Inverse of to_json; also accepts {"kind": "seq", limit, scale, start}.

    The object is read as a config document is (`ConfigReader`): a missing,
    mistyped, out-of-range or unknown field raises ConfigError naming its
    path, below `path` when one is given.
    """
    r = ConfigReader(data, path)
    direction = r.get("direction", str, among=("initial", "final"))
    kind = r.kind("kind", ("element", "subgroup", "seq"))
    if kind == "element":
        gamma, closed = r.element("gamma", group), r.get("closed", bool, True)
    elif kind == "subgroup":
        H = r.build("level", ConvexSubgroup, group, r.get("level", int, low=1))
        offset = r.element("shift", group, group.zero())
        closed = r.get("closed", bool, False)
    elif kind == "seq":
        limit, scale = r.element("limit", group), r.element("scale", group)
        start = r.get("start", int, 1)
    r.close()
    direction = Direction(direction)
    if kind == "element":
        return element_cut(gamma, closed=closed, direction=direction)
    if kind == "subgroup":
        return subgroup_cut(H, shift=offset, closed=closed, direction=direction)
    # a negative scale's union is its first member, which may leave the group
    return r.build("scale", seq_cut, limit, scale, start=start, direction=direction)


# --------------------------------------------------------------------------
# Ideal descriptors: a fractional ideal is represented by its value set,
# which is a final segment of the value group.

class IdealDescriptor(_Frozen):
    __slots__ = _fields = ("values",)

    def __init__(self, values: Segment):
        if values.direction is not Direction.FINAL:
            raise StructuralError("an ideal's value set is a final segment")
        _ideal_values(self, values)

    @property
    def group(self) -> GroupDescriptor:
        return self.values.group

    def is_principal_over(self, H: ConvexSubgroup) -> bool:
        """Whether the image of the value set in G/H attains a minimum.

        Only meaningful when H is contained in the invariance group of the
        value set, i.e. H.level >= invariance level.  A canonical cut is open
        only over a dense cut class, so the minimum exists exactly when the
        cut is closed and its coset collapses to a point of G/H.
        """
        v = self.values
        if H.level < v.level:
            raise StructuralError("quotient subgroup exceeds the invariance group")
        return v.closed and H.level == v.level

    # the products, powers and principal ideals below are final cuts by
    # construction, so they are wrapped without the constructor's check
    def multiply(self, other: "IdealDescriptor") -> "IdealDescriptor":
        return IdealDescriptor._from_fields(sum(self.values, other.values))

    def power(self, m: int) -> "IdealDescriptor":
        return IdealDescriptor._from_fields(scale_int(self.values, m))

    def same_values(self, other: "IdealDescriptor") -> bool:
        return self.values == other.values

    @classmethod
    def principal(cls, gamma: GroupElement) -> "IdealDescriptor":
        # the closed cut at rank is canonical as it stands
        return cls._from_fields(
            Segment._from_fields(Direction.FINAL, gamma.group.rank, gamma, True))


(_ideal_values,) = _slot_setters(IdealDescriptor, *IdealDescriptor._fields)


def coarsening(G: GroupDescriptor, k: int
               ) -> tuple[ConvexSubgroup, IdealDescriptor, IdealDescriptor]:
    """Level k of G's table: (H_k, O(H_k), M_k), the convex subgroup, the
    ideal of its coarsening ring, {a >= H_k}, and that ring's maximal
    ideal, {a > H_k}.  Each level is built when first read and kept on G.
    Level 0 raises DegenerateInputError, as every cut at H_0 does."""
    levels = G._levels
    entry = levels.get(k)
    if entry is not None:
        return entry
    # M_k through the constructor, which rejects a level outside 1..rank and
    # closes the open cut over a discrete class; H_k and O(H_k), the closed
    # cut at 0, are canonical as they stand
    zero = G.zero()
    maximal = IdealDescriptor._from_fields(Segment(Direction.FINAL, k, zero, False))
    entry = levels[k] = (
        ConvexSubgroup._from_fields(G, k),
        IdealDescriptor._from_fields(Segment._from_fields(Direction.FINAL, k, zero, True)),
        maximal)
    return entry


def invariance_ring(I: IdealDescriptor) -> tuple[ConvexSubgroup, IdealDescriptor]:
    """Largest coarsening for which I stays an ideal, with its maximal ideal.

    Returns (H, M): H is the convex subgroup of the coarsening and M the
    descriptor of its maximal ideal, whose values are {a > H}.  Shifting I
    by any group element does not change the result.
    """
    values = I.values
    H, _, M = coarsening(values.shift.group, values.level)
    return H, M
