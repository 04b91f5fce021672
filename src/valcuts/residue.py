"""Arithmetic in the prime fields F_p of the series coefficients."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
from .ogroup import is_prime


@dataclass(frozen=True)
class FqField:
    p: int

    def element(self, value: int) -> "FqElement":
        return FqElement(self, value % self.p)

    def zero(self) -> "FqElement":
        return FqElement(self, 0)

    def one(self) -> "FqElement":
        return FqElement(self, 1)


def GF(p: int) -> FqField:
    if not is_prime(p):
        raise StructuralError(f"{p} is not prime")
    return FqField(p)


@dataclass(frozen=True)
class FqElement:
    field: FqField
    value: int

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
