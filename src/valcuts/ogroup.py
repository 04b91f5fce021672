"""Exact arithmetic and order structure for finite-rank Hahn sums.

An element is a tuple of rational coordinates, stored as integer numerators
over one positive denominator in lowest terms.  Elements are compared
lexicographically with index 0 dominant: index 0 carries the coarsest
archimedean class.  As a consequence the level-k convex subgroup
H_k = {x : x_j = 0 for all j < k} shrinks as k grows, so index order and
subgroup inclusion run in opposite directions.  H_0 is the whole group and
H_n is the trivial subgroup.

Whether each coordinate lies in its class (an integer, a p-power
denominator, any rational) is checked at the boundary only: where elements
are built from outside coordinates, and where one is multiplied by a
non-integer rational.  Sums, differences, negatives and integer multiples
stay in the group and are built without the check, and so are the zero
element and an integer multiple of a unit.  A series tail and a
declared schedule divide one element by every power of p: each is checked
once, when built (`require_p_divisible`), and divides it unchecked after.
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, log
from operator import add, sub
from types import FunctionType, MemberDescriptorType

from .errors import StructuralError


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
    # up to 41 the witnesses are the primes; past it, one that divides n is a factor
    if n <= _WITNESSES[-1] or any(n % a == 0 for a in _WITNESSES):
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


def _slot_setters(cls, *names):
    """The `__set__` of each named slot descriptor of cls, in order.

    A slot's own descriptor writes it without the lookup by name that
    `object.__setattr__` makes.  A name that is no slot of cls raises here,
    when the class or its setters are made."""
    setters = []
    for name in names:
        slot = getattr(cls, name, None)
        if type(slot) is not MemberDescriptorType:
            raise TypeError(f"{cls.__qualname__}.{name} is not a slot")
        setters.append(slot.__set__)
    return tuple(setters)


_SHAPES: dict = {}   # (function name, field count) -> its code, on placeholder names


def _generated(cls, name: str, file: str, line: int, defaults=None):
    """`__init__(self, *fields)` or `_from_fields(cls, *fields)` of cls, which
    sets each field through its slot's `__set__`, held in the function's
    globals: the code a constructor would write out.  One code object is
    compiled per name and field count and renamed to the fields.  It is
    placed at `file` and `line`, the class statement, so that tracebacks
    and profiles read it as the defining module's code."""
    fields = cls._fields
    n = len(fields)
    code = _SHAPES.get((name, n))
    if code is None:
        args = "".join([f", a{i}" for i in range(n)])
        sets = "".join([f"s{i}(self, a{i}); " for i in range(n)])
        source = (f"def __init__(self{args}): {sets}pass" if name == "__init__" else
                  f"def _from_fields(cls{args}): self = new(cls); {sets}return self")
        namespace: dict = {}
        exec(source, namespace)
        code = _SHAPES[name, n] = namespace[name].__code__
    names = ("self", *fields) if name == "__init__" else ("cls", *fields, "self")
    qualname = f"{cls.__qualname__}.{name}"
    named = {"co_qualname": qualname} if sys.version_info >= (3, 11) else {}
    code = code.replace(co_varnames=names, co_filename=file, co_firstlineno=line, **named)
    scope = {f"s{i}": setter for i, setter in enumerate(_slot_setters(cls, *fields))}
    scope["new"] = object.__new__
    function = FunctionType(code, scope, name, defaults)
    function.__qualname__, function.__module__ = qualname, cls.__module__
    return function


class _Frozen:
    """Base of the immutable value classes.  A class lists its fields once, in
    `_fields`, and, where trailing fields have defaults, maps them in
    `_defaults`.  A class whose constructor only sets its fields writes
    none: it gets `__init__(self, *fields)`, generated when the class is
    made, which sets each slot once through the `__set__` of its descriptor.
    A class that checks or changes an input writes its `__init__` and binds
    its setters below it with `_slot_setters`, as module globals
    `_<class abbreviation>_<field>`.  `cls._from_fields(*fields)` builds a
    value without the checks a written constructor makes, for fields known
    to pass them; it is generated when first called.  An instance refuses
    assignment and pickles and copies through its constructor, since the
    default restore assigns the slots.  It writes itself as
    `Name(field=value, ...)`, equals an instance of its own class with equal
    fields, and hashes as the tuple of its fields.  A subclass may write its
    `__eq__` out, about twice as fast as the loop here; it then keeps
    `__hash__ = _Frozen.__hash__`, since defining `__eq__` alone drops the
    inherited hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "_fields" not in own or "__init__" in own:
            return
        fields, defaults = cls._fields, own.get("_defaults", {})
        for name in defaults:
            if name not in fields:
                raise TypeError(f"{cls.__qualname__}._defaults names {name!r}, no field")
        defaulted = fields[len(fields) - len(defaults):]
        for name in defaulted:
            if name not in defaults:
                raise TypeError(f"{cls.__qualname__}.{name} has no default but follows one")
        where = sys._getframe(1)   # the frame running the class statement
        cls.__init__ = _generated(cls, "__init__", where.f_code.co_filename, where.f_lineno,
                                  tuple([defaults[name] for name in defaulted]) or None)

    @classmethod
    def _from_fields(cls, *fields):
        """The value of these fields, built without the constructor's checks;
        the builder is generated here, on the first call, and kept on cls."""
        init = cls.__init__.__code__
        build = _generated(cls, "_from_fields", init.co_filename, init.co_firstlineno)
        cls._from_fields = classmethod(build)
        return build(cls, *fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            a, b = getattr(self, name), getattr(other, name)
            if a is not b and not a == b:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))


class GroupDescriptor(_Frozen):
    """Finite-rank Hahn sum: one component kind per archimedean class.

    The slots outside `_fields` keep values built once per group: `zero()`
    here, and the level table of `segment.coarsening`, a dict that starts
    empty and holds the subgroup H_k, the coarsening ring O(H_k) and its
    maximal ideal for each level k read so far.  Equality, hashing,
    pickling and copying read only the fields."""

    __slots__ = ("components", "prime", "_zero", "_levels")
    _fields = ("components", "prime")

    def __init__(self, components: tuple[Component, ...], prime: int):
        if len(components) < 1:
            raise StructuralError("rank must be at least 1")
        if not is_prime(prime):
            raise StructuralError(f"{prime} is not prime")
        _gd_components(self, tuple([Component(c) for c in components]))
        _gd_prime(self, prime)
        _gd_levels(self, {})

    def __eq__(self, other) -> bool:
        # the base's comparison of the fields, after the identity test
        if self is other:
            return True
        if other.__class__ is not GroupDescriptor:
            return NotImplemented
        return self.components == other.components and self.prime == other.prime

    __hash__ = _Frozen.__hash__

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_dense_at(self, index: int) -> bool:
        return self.components[index] is not Component.INT

    def coordinate_allowed(self, index: int, value: Fraction) -> bool:
        return self._denominator_allowed(index, value.denominator)

    def _denominator_allowed(self, index: int, den: int) -> bool:
        """Whether the class at `index` holds the rationals with reduced denominator den."""
        kind = self.components[index]
        if kind is Component.RAT:
            return True
        if kind is Component.INT:
            return den == 1
        # den is a power of p iff it divides p^e for an e >= its exponent;
        # den.bit_length() is such an e, since p^k >= 2^k
        return pow(self.prime, den.bit_length(), den) == 0

    def _outside(self, nums: tuple[int, ...], den: int) -> int | None:
        """Index of the first coordinate nums[i]/den outside its class, or None."""
        if den != 1:
            for i, n in enumerate(nums):
                if not self._denominator_allowed(i, den // gcd(n, den)):
                    return i
        return None

    def _require(self, nums: tuple[int, ...], den: int) -> None:
        """The boundary check: StructuralError unless every nums[i]/den lies in
        its class."""
        i = self._outside(nums, den)
        if i is not None:
            raise StructuralError(f"coordinate {Fraction(nums[i], den)} not allowed in "
                                  f"component {i} ({self.components[i].value})")

    def element(self, *coords) -> GroupElement:
        """The element with these coordinates: ints, Fractions or anything
        Fraction reads.  StructuralError when one lies outside its class."""
        coords = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coords]
        if len(coords) != self.rank:
            raise StructuralError("coordinate count does not match the rank")
        den = lcm(*[c.denominator for c in coords])
        nums = tuple([c.numerator * (den // c.denominator) for c in coords])
        self._require(nums, den)
        return GroupElement(self, nums, den)

    def zero(self) -> GroupElement:
        """The zero element, built once per group."""
        try:
            return self._zero
        except AttributeError:
            zero = GroupElement(self, (0,) * self.rank)
            _gd_zero(self, zero)
            return zero

    def unit(self, index: int, scale=1) -> GroupElement:
        """scale times the unit at `index`.  An integer lies in every class, so
        an int scale is built without the check; any other goes through it."""
        coords = [0] * self.rank
        coords[index] = scale
        if type(scale) is int:
            return GroupElement(self, tuple(coords))
        return self.element(*coords)


_gd_components, _gd_prime, _gd_zero, _gd_levels = _slot_setters(
    GroupDescriptor, *GroupDescriptor.__slots__)


class GroupElement(_Frozen):
    """Integer numerators `nums` over one positive denominator `den`, in
    lowest terms: gcd(den, *nums) == 1.

    The constructor does not check that each coordinate lies in its class:
    sums, differences, negatives and integer multiples of elements stay in
    the group.  Elements from outside enter through the checked
    `GroupDescriptor.element` (and `unit` with a non-integer scale), and a
    product with a non-integer rational is checked where it is made.
    Equality is structural on (group, nums, den), which the lowest-terms form
    makes equality of values.
    """

    __slots__ = ("group", "nums", "den", "_coords")
    _fields = ("group", "nums", "den")

    def __init__(self, group: GroupDescriptor, nums: tuple[int, ...], den: int = 1):
        _ge_group(self, group)
        _ge_nums(self, nums)
        _ge_den(self, den)
        self.__post_init__()

    def __post_init__(self):
        # every constructor call ends here: reduce to lowest terms (`_from_fields` needs them)
        den = self.den
        if den != 1:
            g = gcd(den, *self.nums)
            if g != 1:
                _ge_nums(self, tuple([n // g for n in self.nums]))
                _ge_den(self, den // g)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, made once."""
        try:
            return self._coords
        except AttributeError:
            coords = tuple([Fraction(n, self.den) for n in self.nums])
            _ge_coords(self, coords)
            return coords

    def coord_strings(self) -> list[str]:
        """Each coordinate written as Fraction writes it: n, or n/d in lowest terms."""
        den = self.den
        if den == 1:
            return [str(n) for n in self.nums]
        p = self.group.prime
        q, last, _, power = _last_power
        if last != den or q != p:
            power = _power_string(p, den)
        out = []
        for n in self.nums:
            if not n:
                out.append("0")
            elif power is not None and n % p:
                out.append(f"{n}/{power}")
            else:
                g = gcd(n, den)
                out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out

    def __eq__(self, other) -> bool:
        if other.__class__ is not GroupElement:
            return NotImplemented
        return (self.nums == other.nums and self.den == other.den
                and (self.group is other.group or self.group == other.group))

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _check_same(self, other: GroupElement) -> None:
        if other.__class__ is not GroupElement or (
                other.group is not self.group and other.group != self.group):
            raise StructuralError("elements belong to different group descriptors")

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def leading_index(self) -> int | None:
        """Index of the coarsest nonzero coordinate; None for zero."""
        for i, n in enumerate(self.nums):
            if n:
                return i
        return None

    def sign(self) -> int:
        for n in self.nums:
            if n:
                return 1 if n > 0 else -1
        return 0

    def __add__(self, other: GroupElement) -> GroupElement:
        a, b, den = self._pair(other)
        return GroupElement(self.group, tuple(map(add, a, b)), den)

    def __sub__(self, other: GroupElement) -> GroupElement:
        a, b, den = self._pair(other)
        return GroupElement(self.group, tuple(map(sub, a, b)), den)

    def __neg__(self) -> GroupElement:
        return GroupElement(self.group, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, scalar) -> GroupElement:
        if type(scalar) is int:
            return GroupElement(self.group, tuple([a * scalar for a in self.nums]), self.den)
        if type(scalar) is not Fraction:
            scalar = Fraction(scalar)
        n = scalar.numerator
        out = GroupElement(self.group, tuple([a * n for a in self.nums]),
                           self.den * scalar.denominator)
        self.group._require(out.nums, out.den)
        return out

    __rmul__ = __mul__

    def over(self, k: int) -> GroupElement | None:
        """self / k for a nonzero integer k, or None when it lies outside the group."""
        out = GroupElement(self.group, tuple([a if k > 0 else -a for a in self.nums]),
                           self.den * abs(k))
        return None if self.group._outside(out.nums, out.den) is not None else out

    def require_p_divisible(self, p: int, name: str) -> None:
        """StructuralError unless self / p^i lies in the group for every i >= 0:
        each nonzero coordinate must sit in a class that holds 1/p."""
        for i, n in enumerate(self.nums):
            if n and not self.group._denominator_allowed(i, p):
                raise StructuralError(f"{name} {self} over {p}^i leaves component {i} "
                                      f"({self.group.components[i].value}), which lacks 1/{p}")

    def over_p_power(self, p: int, i: int) -> GroupElement:
        """self / p^i for any integer i, unchecked: self passed require_p_divisible(p)."""
        return self * p**-i if i < 0 else GroupElement(self.group, self.nums, self.den * p**i)

    def _pair(self, other: GroupElement):
        """The numerators of self and other over one denominator, and that
        denominator."""
        self._check_same(other)
        sd, od = self.den, other.den
        if sd == od:
            return self.nums, other.nums, sd
        return [x * od for x in self.nums], [y * sd for y in other.nums], sd * od

    def _ordered_pair(self, other: GroupElement):
        """Two values ordered as self and other: the numerator tuples over a
        shared denominator, else the first coordinates that differ, scaled."""
        if other.__class__ is not GroupElement or (
                other.group is not self.group and other.group != self.group):
            raise StructuralError("elements belong to different group descriptors")
        sd, od = self.den, other.den
        if sd == od:
            return self.nums, other.nums
        # in lowest terms, unequal denominators mean some coordinate differs
        for x, y in zip(self.nums, other.nums):
            if x * od != y * sd:
                return x * od, y * sd

    def __lt__(self, other: GroupElement) -> bool:
        a, b = self._ordered_pair(other)
        return a < b

    def __le__(self, other: GroupElement) -> bool:
        a, b = self._ordered_pair(other)
        return a <= b

    def __gt__(self, other: GroupElement) -> bool:
        a, b = self._ordered_pair(other)
        return a > b

    def __ge__(self, other: GroupElement) -> bool:
        a, b = self._ordered_pair(other)
        return a >= b

    def __str__(self) -> str:
        if self.group.rank == 1:
            return self.coord_strings()[0]
        return "(" + ", ".join(self.coord_strings()) + ")"


_ge_group, _ge_nums, _ge_den, _ge_coords = _slot_setters(GroupElement, *GroupElement.__slots__)

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_multiply, _power = _EXACT.multiply, _EXACT.power   # bound once: the lookup costs a product
_last_power = (0, 1, Decimal(1), "1")   # p, p^k, p^k as a Decimal, str(p^k)
_SMALL_POWER = 10**40   # below it str() is cheap, and each power is kept once made
_small_powers: dict = {}   # p^k < _SMALL_POWER -> its _last_power tuple


def _power_string(p: int, den: int) -> str | None:
    """str(den) if den is a power of p, over which a numerator prime to p is in
    lowest terms, else None.  The last power written is kept, replaced whole: a
    thread can only miss its reuse.  A small power is kept once made, keyed by
    den, a power of one prime only.  str(int) is quadratic in the digits,
    Decimal linear: a larger power is the last power times p, one decimal
    product, or any other p^k raised."""
    global _last_power
    if den < _SMALL_POWER:
        last = _small_powers.get(den)
        if last is None:
            if pow(p, den.bit_length(), den):   # den divides a power of p only if it is one
                return None
            last = _small_powers[den] = (p, den, Decimal(den), str(den))
        elif last[0] != p:
            return None
    else:
        q, power, digits, _ = _last_power
        if q == p and power * p == den:
            digits = _multiply(digits, p)
        else:
            k = round(log(den, p))
            if p**k != den:
                return None
            digits = _power(p, k)
        last = (p, den, digits, str(digits))
    _last_power = last
    return last[3]


class ConvexSubgroup(_Frozen):
    """Level k in the chain H_0 = whole group > H_1 > ... > H_n = {0}."""

    __slots__ = _fields = ("group", "level")

    def __init__(self, group: GroupDescriptor, level: int):
        if not 0 <= level <= group.rank:
            raise StructuralError(f"level must lie in 0..{group.rank}")
        _cs_group(self, group)
        _cs_level(self, level)


_cs_group, _cs_level = _slot_setters(ConvexSubgroup, *ConvexSubgroup._fields)

