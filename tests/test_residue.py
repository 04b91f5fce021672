"""Finite-field arithmetic used for series coefficients."""

import pytest

from valcuts.errors import StructuralError
from valcuts.residue import GF


class TestPrimeField:
    def test_basic_arithmetic(self):
        F = GF(5)
        a, b = F.element(3), F.element(4)
        assert (a + b).value == 2
        assert (a * b).value == 2
        assert (-a).value == 2
        assert (a - a).is_zero

    def test_inverse_and_pow(self):
        F = GF(7)
        for n in range(1, 7):
            a = F.element(n)
            assert (a * a.inverse()) == F.one()
            assert a**6 == F.one()

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GF(3).element(0).inverse()

    def test_frobenius_is_identity_on_prime_field(self):
        for p in (2, 3, 5, 7):
            F = GF(p)
            for n in range(p):
                assert F.element(n) ** p == F.element(n)

    def test_mixed_fields_rejected(self):
        with pytest.raises(StructuralError):
            GF(2).one() + GF(3).one()
        with pytest.raises(StructuralError):
            GF(4)
