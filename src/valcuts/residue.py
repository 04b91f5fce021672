"""Arithmetic in the prime fields F_p of the series coefficients."""

from __future__ import annotations

from .errors import StructuralError
from .ogroup import _Frozen, is_prime


class FqField(_Frozen):
    __slots__ = _fields = ("p",)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not FqField:
            return NotImplemented
        return self.p == other.p

    __hash__ = _Frozen.__hash__

    def element(self, value: int) -> "FqElement":
        return FqElement(self, value % self.p)

    def one(self) -> "FqElement":
        return FqElement(self, 1)


def GF(p: int) -> FqField:
    if not is_prime(p):
        raise StructuralError(f"{p} is not prime")
    return FqField(p)


class FqElement(_Frozen):
    """value in 0..p - 1, an element of its field F_p."""

    __slots__ = _fields = ("field", "value")

    def __eq__(self, other) -> bool:
        if other.__class__ is not FqElement:
            return NotImplemented
        return self.value == other.value and (self.field is other.field
                                              or self.field == other.field)

    __hash__ = _Frozen.__hash__

    def _check(self, other):
        if not isinstance(other, FqElement) or other.field != self.field:
            raise StructuralError("coefficients from different residue fields")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other):
        self._check(other)
        return FqElement(self.field, (self.value + other.value) % self.field.p)

    def __sub__(self, other):
        self._check(other)
        return FqElement(self.field, (self.value - other.value) % self.field.p)

    def __neg__(self):
        return FqElement(self.field, -self.value % self.field.p)

    def __mul__(self, other):
        self._check(other)
        return FqElement(self.field, self.value * other.value % self.field.p)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FqElement(self.field, pow(self.value, n, self.field.p))

    def inverse(self) -> "FqElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return FqElement(self.field, pow(self.value, -1, self.field.p))
