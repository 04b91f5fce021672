"""Exact arithmetic and order structure for finite-rank Hahn sums.

Elements are tuples of rationals compared lexicographically with index 0
dominant: index 0 carries the coarsest archimedean class.  As a consequence
the level-k convex subgroup H_k = {x : x_j = 0 for all j < k} shrinks as k
grows, so index order and subgroup inclusion run in opposite directions.
H_0 is the whole group and H_n is the trivial subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateInputError, StructuralError


class Component(str, Enum):
    """Archimedean component kind; fixes the allowed coordinate denominators."""

    INT = "int"    # isomorphic to the integers, discrete
    PDIV = "pdiv"  # denominators are powers of the descriptor prime
    RAT = "rat"    # all rationals


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all 13 witnesses; below it the test is exact
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, exact for n < _PRIME_BOUND.

    A larger n raises StructuralError: its primality is not decided here.
    """
    if n >= _PRIME_BOUND:
        raise StructuralError(f"{n} is too large: primality is decided below {_PRIME_BOUND}")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupDescriptor:
    """Finite-rank Hahn sum: one component kind per archimedean class."""

    components: tuple[Component, ...]
    prime: int

    def __post_init__(self):
        if len(self.components) < 1:
            raise StructuralError("rank must be at least 1")
        if not is_prime(self.prime):
            raise StructuralError(f"{self.prime} is not prime")
        object.__setattr__(self, "components", tuple(Component(c) for c in self.components))

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_dense_at(self, index: int) -> bool:
        return self.components[index] is not Component.INT

    def coordinate_allowed(self, index: int, value: Fraction) -> bool:
        kind = self.components[index]
        if kind is Component.RAT:
            return True
        if kind is Component.INT:
            return value.denominator == 1
        # den is a power of p iff it divides p^e for an e >= its exponent;
        # den.bit_length() is such an e, since p^k >= 2^k
        den = value.denominator
        return pow(self.prime, den.bit_length(), den) == 0

    def element(self, *coords) -> GroupElement:
        return GroupElement(self, tuple(Fraction(c) for c in coords))

    def zero(self) -> GroupElement:
        return GroupElement(self, (Fraction(0),) * self.rank)

    def unit(self, index: int, scale=1) -> GroupElement:
        coords = [Fraction(0)] * self.rank
        coords[index] = Fraction(scale)
        return GroupElement(self, tuple(coords))


@dataclass(frozen=True)
class GroupElement:
    group: GroupDescriptor
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise StructuralError("coordinate count does not match the rank")
        for i, c in enumerate(self.coords):
            if not isinstance(c, Fraction):
                raise StructuralError("coordinates must be exact rationals")
            if not self.group.coordinate_allowed(i, c):
                raise StructuralError(
                    f"coordinate {c} not allowed in component {i} ({self.group.components[i].value})"
                )

    def _check_same(self, other: GroupElement) -> None:
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise StructuralError("elements belong to different group descriptors")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def leading_index(self) -> int | None:
        """Index of the coarsest nonzero coordinate; None for zero."""
        for i, c in enumerate(self.coords):
            if c != 0:
                return i
        return None

    def sign(self) -> int:
        i = self.leading_index()
        if i is None:
            return 0
        return 1 if self.coords[i] > 0 else -1

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check_same(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check_same(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> GroupElement:
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __mul__(self, scalar) -> GroupElement:
        s = Fraction(scalar)
        return GroupElement(self.group, tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def __lt__(self, other: GroupElement) -> bool:
        self._check_same(other)
        return self.coords < other.coords

    def __le__(self, other: GroupElement) -> bool:
        self._check_same(other)
        return self.coords <= other.coords

    def __gt__(self, other: GroupElement) -> bool:
        self._check_same(other)
        return self.coords > other.coords

    def __ge__(self, other: GroupElement) -> bool:
        self._check_same(other)
        return self.coords >= other.coords

    def __str__(self) -> str:
        if self.group.rank == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def compare(a: GroupElement, b: GroupElement) -> int:
    """Total lexicographic order: sign of the leading nonzero coordinate of a - b."""
    a._check_same(b)
    return (a - b).sign()


@dataclass(frozen=True)
class ConvexSubgroup:
    """Level k in the chain H_0 = whole group > H_1 > ... > H_n = {0}."""

    group: GroupDescriptor
    level: int

    def __post_init__(self):
        if not 0 <= self.level <= self.group.rank:
            raise StructuralError(f"level must lie in 0..{self.group.rank}")

    @property
    def is_principal(self) -> bool:
        # smallest convex subgroup containing the unit at index `level`
        return self.level <= self.group.rank - 1

    @property
    def is_subprincipal(self) -> bool:
        # largest convex subgroup avoiding the unit at index `level - 1`
        return self.level >= 1

    @property
    def is_whole_group(self) -> bool:
        return self.level == 0

    @property
    def is_trivial(self) -> bool:
        return self.level == self.group.rank

    def contains(self, x: GroupElement) -> bool:
        if x.group != self.group:
            raise StructuralError("element belongs to a different group descriptor")
        return all(c == 0 for c in x.coords[: self.level])


class Position(Enum):
    """Position of an element relative to a convex subgroup."""

    BELOW = -1
    INSIDE = 0
    ABOVE = 1


def position(x: GroupElement, H: ConvexSubgroup) -> Position:
    """Whether x lies below, inside, or above every element of H."""
    if x.group != H.group:
        raise StructuralError("element belongs to a different group descriptor")
    lead = x.leading_index()
    if lead is None or lead >= H.level:
        return Position.INSIDE
    return Position.ABOVE if x.coords[lead] > 0 else Position.BELOW


def convex_subgroups(G: GroupDescriptor) -> tuple[ConvexSubgroup, ...]:
    """The full chain H_0 > H_1 > ... > H_n with principal/subprincipal tags."""
    return tuple(ConvexSubgroup(G, k) for k in range(G.rank + 1))


def quotient_has_smallest_positive(G: GroupDescriptor, H: ConvexSubgroup) -> bool:
    """True iff G/H has a smallest positive element.

    The quotient is the Hahn sum of components 0..level-1, so a smallest
    positive element exists exactly when its finest class is discrete.
    The trivial quotient (H = G) returns False by convention.
    """
    if H.group != G:
        raise StructuralError("subgroup belongs to a different group descriptor")
    if H.level == 0:
        return False
    return G.components[H.level - 1] is Component.INT


def archimedean_class_subgroups(gamma: GroupElement) -> tuple[ConvexSubgroup, ConvexSubgroup]:
    """Principal and subprincipal convex subgroups of gamma's archimedean class.

    Rejects gamma = 0: neither subgroup is well defined there and callers
    must decide the convention explicitly.
    """
    lead = gamma.leading_index()
    if lead is None:
        raise DegenerateInputError("the zero element has no archimedean class")
    return ConvexSubgroup(gamma.group, lead), ConvexSubgroup(gamma.group, lead + 1)
