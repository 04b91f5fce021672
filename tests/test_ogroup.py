"""Order, convex subgroups, and archimedean classes of finite-rank Hahn sums."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcuts import segment
from valcuts.errors import ConfigError, StructuralError
from valcuts.gpsfield import FieldModel, parse_element
from valcuts.ogroup import (
    Component,
    ConvexSubgroup,
    GroupDescriptor,
    GroupElement,
    is_prime,
)

from conftest import (
    compare,
    grid_points,
    in_subgroup,
    is_principal_subgroup,
    is_subprincipal_subgroup,
    is_trivial_subgroup,
    quotient_has_smallest_positive,
)


def zp2() -> GroupDescriptor:
    return GroupDescriptor((Component.PDIV, Component.PDIV), 2)


def coords_strategy(group: GroupDescriptor, depth: int = 3, bound: int = 8):
    def coord(kind):
        if kind is Component.INT:
            return st.integers(-bound, bound).map(Fraction)
        dens = [group.prime**k for k in range(depth + 1)]
        if kind is Component.RAT:
            dens = list(range(1, 7))
        return st.tuples(st.integers(-bound, bound), st.sampled_from(dens)).map(
            lambda t: Fraction(t[0], t[1])
        )

    return st.tuples(*[coord(k) for k in group.components]).map(
        lambda cs: group.element(*cs)
    )


class TestDescriptor:
    def test_rank_must_be_positive(self):
        with pytest.raises(StructuralError):
            GroupDescriptor((), 2)

    def test_prime_must_be_prime(self):
        with pytest.raises(StructuralError):
            GroupDescriptor((Component.PDIV,), 6)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if trial(n)]

    @pytest.mark.parametrize("n,prime", [
        (3215031751, False),                # strong pseudoprime to bases 2, 3, 5, 7
        (318665857834031151167461, False),  # strong pseudoprime to bases 2..37
        (2**61 - 1, True),
    ])
    def test_is_prime_past_small_witness_sets(self, n, prime):
        assert is_prime(n) is prime

    def test_is_prime_rejects_past_its_bound(self):
        # a strong pseudoprime to all 13 bases 2..41: the test cannot decide it
        with pytest.raises(StructuralError, match="too large"):
            is_prime(3317044064679887385961981)

    def test_component_constraints(self):
        g = GroupDescriptor((Component.INT, Component.PDIV, Component.RAT), 2)
        g.element(3, Fraction(5, 8), Fraction(2, 7))
        with pytest.raises(StructuralError):
            g.element(Fraction(1, 2), 0, 0)
        with pytest.raises(StructuralError):
            g.element(0, Fraction(1, 3), 0)


def divides_out(den: int, p: int) -> bool:
    """The division loop the one-step p-power test replaced."""
    while den % p == 0:
        den //= p
    return den == 1


class TestClassMembership:
    """Whether a coordinate lies in its class: the one-step p-power test, and
    the boundaries that refuse a denominator outside it."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_step_test_matches_division_loop(self, p):
        g = GroupDescriptor((Component.PDIV,), p)
        dens = list(range(1, 5001)) + [p**3000, 3 * p**3000]
        for den in dens:
            assert g.coordinate_allowed(0, Fraction(1, den)) is divides_out(den, p), den

    @pytest.mark.parametrize("make", [
        lambda g: g.element(0, Fraction(1, 6)),
        lambda g: g.unit(1, Fraction(5, 12)),
        lambda g: segment.from_json(g, {"direction": "final", "kind": "element",
                                        "gamma": ["0", "1/6"]}),
        lambda g: parse_element(FieldModel(name="F", char=2, value_group=g),
                                "t^(1, 1/6)"),
    ], ids=["element", "unit", "segment.from_json", "parse_element"])
    def test_boundaries_reject_non_p_power_denominator(self, make):
        g = GroupDescriptor((Component.PDIV, Component.PDIV), 2)
        with pytest.raises((StructuralError, ConfigError), match="1/6|5/12"):
            make(g)


ROUND_TRIPS = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
               "deepcopy": copy.deepcopy}


class TestRoundTrips:
    """An element, and a cut made of elements, pickle and copy to an equal one."""

    @pytest.mark.parametrize("trip", list(ROUND_TRIPS))
    def test_element_and_segments(self, trip):
        g = zp2()
        zero = g.zero()   # the group now carries its zero
        e = g.element(Fraction(3, 4), Fraction(-1, 2))
        assert e.den == 4
        for x in (e, segment.element_cut(e),
                  segment.subgroup_cut(ConvexSubgroup(g, 1), shift=e, closed=True), g):
            y = ROUND_TRIPS[trip](x)
            assert y == x and hash(y) == hash(x)
        h = ROUND_TRIPS[trip](g)
        assert h.zero() == zero and h.zero() is h.zero() and h.zero().group == h
        y = ROUND_TRIPS[trip](e)
        assert (y.group, y.nums, y.den, y.coords) == (g, e.nums, 4, e.coords)
        with pytest.raises(AttributeError):
            y.den = 1   # the copy is as frozen as the original


class TestUnitsAndZero:
    """An integer lies in every class, so `unit` with an int scale and
    `zero()` build their element without the check; each equals the checked
    `element`, and the zero is built once per group."""

    @staticmethod
    def groups(p):
        for rank in range(1, 5):
            for kinds in itertools.product(list(Component), repeat=rank):
                yield GroupDescriptor(kinds, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_integer_unit_equals_the_checked_element(self, p):
        for g in self.groups(p):
            for i in range(g.rank):
                assert g.unit(i) == g.unit(i, 1)
                for n in (-3, -1, 1, 3):
                    coords = [0] * g.rank
                    coords[i] = n
                    u = g.unit(i, n)
                    assert u == g.element(*coords), (g, i, n)
                    assert (u.nums, u.den) == (tuple(coords), 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_is_built_once(self, p):
        for g in self.groups(p):
            assert g.zero() == g.element(*[0] * g.rank)
            assert g.zero() is g.zero()


def _in_class(kind: Component, p: int, value: Fraction) -> bool:
    """Reference membership of one coordinate, on the Fraction itself."""
    if kind is Component.RAT:
        return True
    if kind is Component.INT:
        return value.denominator == 1
    return divides_out(value.denominator, p)


@st.composite
def group_and_coords(draw):
    """A group of rank 1-4 over int/pdiv/rat at p in {2, 3, 5, 7}, and a
    strategy for Fraction tuples that lie in it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kinds = draw(st.lists(st.sampled_from(list(Component)), min_size=1, max_size=4))
    g = GroupDescriptor(tuple(kinds), p)

    def coord(kind):
        if kind is Component.INT:
            dens = [1]
        elif kind is Component.PDIV:
            dens = [p**k for k in range(4)]
        else:
            dens = list(range(1, 13))
        return st.builds(Fraction, st.integers(-40, 40), st.sampled_from(dens))

    return g, st.tuples(*[coord(k) for k in kinds])


class TestRepresentation:
    """Numerators over one denominator agree with plain Fraction tuples."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coord_strings_write_each_coordinate_as_fraction_does(self, p):
        # deep schedules write p^k denominators with mostly zero coordinates
        rng = random.Random(p)
        for rank in range(1, 9):
            g = GroupDescriptor((Component.PDIV,) * rank, p)
            for _ in range(40):
                k = rng.randint(0, 40)
                coords = [Fraction(rng.choice((0, 0, rng.randint(-p**(k + 1), p**(k + 1)))),
                                   p**rng.randint(0, k)) for _ in range(rank)]
                assert g.element(*coords).coord_strings() == [str(c) for c in coords]

    def test_coord_strings_agree_with_fraction_on_every_class(self):
        # numerators with and without factors of p, over denominators of
        # int, pdiv and rat classes: a power of p is written from the last
        # power written, so the powers go up by p, repeat, jump, fall back
        # and change prime, past Python's 4,300-digit limit on str(int)
        rng = random.Random(47)
        checked = 0
        for p in (2, 3, 5, 7):
            for rank in range(1, 5):
                for kinds in itertools.product(Component, repeat=rank):
                    g = GroupDescriptor(kinds, p)
                    for _ in range(3):
                        coords = []
                        for kind in kinds:
                            n = rng.choice((0, rng.randint(-60, 60))) * p**rng.randint(0, 3)
                            coords.append(n if kind is Component.INT else Fraction(
                                n, p**rng.randint(0, 14) if kind is Component.PDIV
                                else rng.randint(1, 90)))
                        assert g.element(*coords).coord_strings() == [str(c) for c in coords]
                        checked += 1
        limited = hasattr(sys, "set_int_max_str_digits")   # absent before 3.10.7
        limit = sys.get_int_max_str_digits() if limited else None
        if limited:
            sys.set_int_max_str_digits(0)
        try:
            seven = GroupDescriptor((Component.PDIV, Component.RAT), 7)
            three = GroupDescriptor((Component.PDIV,), 3)
            ks = [*range(1, 30), 29, 31, 2, 4299, 4300, 5199, 5200, 5200, 12, 5200, 5201]
            for k in ks:
                for nums in ((-1, 0), (-1, 7**3), (7 * 2, 5), (0, -7**k)):
                    x = GroupElement(seven, nums, 7**k)
                    assert x.coord_strings() == [str(Fraction(n, 7**k)) for n in nums], k
                    checked += 1
                y = GroupElement(three, (2,), 3**k * 2)   # a denominator no power of p
                assert y.coord_strings() == [str(Fraction(2, 3**k * 2))]
                checked += 1
            assert len(str(7**5200)) > 4300
        finally:
            if limited:
                sys.set_int_max_str_digits(limit)
        assert checked == 3 * 4 * (3 + 9 + 27 + 81) + 5 * len(ks)

    def test_kept_powers_belong_to_their_prime(self):
        # small powers are kept by denominator: 9 = 3^2 written at p = 3, then
        # read over rat classes at p = 2 and 5, where it is no power of p and
        # 3/9 reduces; powers walked across the kept range to the running
        # product and back.  The second coordinate keeps the first unreduced.
        rat = {p: GroupDescriptor((Component.RAT, Component.RAT), p) for p in (2, 3, 5, 7)}
        cases = [(3, 1, 9), (2, 3, 9), (5, 6, 9), (3, 3, 9), (2, 2, 8), (3, 4, 8), (7, 7, 49),
                 (5, 35, 49), (2, 6, 2**10 * 3), (3, 6, 2**10 * 3)]
        cases += [(7, n, 7**k) for k in range(40, 52) for n in (-1, 14)]
        cases += [(2, 6, 2**k) for k in (130, 131, 132, 133, 3, 134, 140)]
        cases += [(3, 6, 2**k) for k in (3, 134)] + [(7, 7, 7**k) for k in (60, 2, 61)]
        for p, n, den in cases:
            x = GroupElement(rat[p], (n, 1), den)
            assert x.coord_strings() == [str(Fraction(n, den)), f"1/{den}"], (p, n, den)

    @settings(max_examples=300, derandomize=True)
    @given(st.data())
    def test_agrees_with_fraction_tuples(self, data):
        g, coords = data.draw(group_and_coords())
        ra, rb = data.draw(coords), data.draw(coords)
        a, b = g.element(*ra), g.element(*rb)
        for x, ref in ((a, ra), (b, rb)):
            assert x.den > 0 and gcd(x.den, *x.nums) == 1
            assert x.coords == ref and all(type(c) is Fraction for c in x.coords)
            assert x.coord_strings() == [str(c) for c in ref]
            assert str(x) == (str(ref[0]) if g.rank == 1
                              else "(" + ", ".join(str(c) for c in ref) + ")")
            lead = next((i for i, c in enumerate(ref) if c), None)
            assert x.leading_index() == lead
            assert x.sign() == (0 if lead is None else (1 if ref[lead] > 0 else -1))
            assert x.is_zero is (lead is None)
        assert (a + b).coords == tuple(x + y for x, y in zip(ra, rb))
        assert (a - b).coords == tuple(x - y for x, y in zip(ra, rb))
        assert (-a).coords == tuple(-x for x in ra)
        m = data.draw(st.integers(-6, 6))
        assert (a * m).coords == (m * a).coords == tuple(x * m for x in ra)
        assert ((a < b), (a <= b), (a > b), (a >= b)) == ((ra < rb), (ra <= rb),
                                                          (ra > rb), (ra >= rb))
        assert (a == b) is (ra == rb)
        assert a == g.element(*ra) and hash(a) == hash(g.element(*ra))
        assert a + b - b == a and hash(a + b - b) == hash(a)

        s = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 30)))
        want = tuple(x * s for x in ra)
        if all(_in_class(k, g.prime, c) for k, c in zip(g.components, want)):
            assert (a * s).coords == (s * a).coords == want
            assert a * s == g.element(*want)
        else:
            with pytest.raises(StructuralError, match="not allowed"):
                a * s

    def test_half_outside_an_int_class(self):
        with pytest.raises(StructuralError, match="coordinate 1/2 not allowed in component 0"):
            GroupDescriptor((Component.INT,), 3).element(Fraction(1, 2))

    def test_third_outside_a_pdiv_class_at_two(self):
        g = GroupDescriptor((Component.RAT, Component.PDIV), 2)
        with pytest.raises(StructuralError, match="coordinate 1/3 not allowed in component 1"):
            g.element(0, Fraction(1, 3))
        with pytest.raises(StructuralError, match="1/3"):
            g.unit(1, Fraction(1, 3))

    def test_halving_an_odd_int_coordinate(self):
        g = GroupDescriptor((Component.PDIV, Component.INT), 2)
        assert g.element(Fraction(1, 4), 6) * Fraction(1, 2) == g.element(Fraction(1, 8), 3)
        with pytest.raises(StructuralError, match="coordinate 3/2 not allowed in component 1"):
            g.element(Fraction(1, 4), 3) * Fraction(1, 2)

    def test_elements_of_two_descriptors(self):
        # another prime, rank or class, at equal and at different denominators
        g = GroupDescriptor((Component.RAT,), 2)
        foreign = (GroupDescriptor((Component.RAT,), 3),
                   GroupDescriptor((Component.RAT, Component.RAT), 2),
                   GroupDescriptor((Component.PDIV,), 2))
        for a, f, c in itertools.product((g.element(1), g.element(Fraction(1, 2))), foreign,
                                         (1, Fraction(1, 2))):
            b = f.element(*(c,) * f.rank)
            assert a != b
            for op in (lambda: a + b, lambda: a - b, lambda: a < b, lambda: a <= b,
                       lambda: a > b, lambda: a >= b, lambda: compare(a, b),
                       lambda: sorted([a, b])):
                with pytest.raises(StructuralError, match="different group descriptors"):
                    op()

    def test_over_is_the_checked_quotient(self):
        g = GroupDescriptor((Component.PDIV, Component.INT), 3)
        x = g.element(-2, 6)
        assert x.over(-2) == g.element(1, -3)
        assert x.over(3) == g.element(Fraction(-2, 3), 2)
        assert x.over(4) is None and x.over(9) is None


class TestOrder:
    """The four order operators and sorted read the lexicographic order of the
    Fraction coordinates, whether or not the denominators agree."""

    def test_operators_and_sorted_agree_with_fraction_tuples(self):
        rng = random.Random(37)
        same = different = 0
        for _ in range(150):
            p = rng.choice((2, 3, 5, 7))
            kinds = [rng.choice(list(Component)) for _ in range(rng.randint(1, 4))]
            g = GroupDescriptor(tuple(kinds), p)
            dens = {Component.INT: (1,), Component.PDIV: (1, p, p * p),
                    Component.RAT: (1, 2, 3, 6)}
            refs = [tuple(Fraction(rng.randint(-3, 3), rng.choice(dens[k])) for k in kinds)
                    for _ in range(8)]
            elems = [g.element(*ref) for ref in refs]
            for (a, ra), (b, rb) in itertools.product(zip(elems, refs), repeat=2):
                assert ((a < b), (a <= b), (a > b), (a >= b)) == (
                    (ra < rb), (ra <= rb), (ra > rb), (ra >= rb))
                if ra != rb:
                    same += a.den == b.den
                    different += a.den != b.den
            assert [x.coords for x in sorted(elems)] == sorted(refs)
        assert same >= 1000 and different >= 1000


class TestCompare:
    def test_dominant_first_coordinate(self):
        # one unit of the coarse class beats any amount of the fine class
        g = zp2()
        assert compare(g.element(1, 0), g.element(0, 100)) == 1

    def test_equal(self):
        g = zp2()
        assert compare(g.element(0, 0), g.element(0, 0)) == 0

    def test_leading_fraction(self):
        g = zp2()
        assert compare(g.element(Fraction(-1, 8), 5), g.element(Fraction(-1, 4), 0)) == 1

    def test_descriptor_mismatch(self):
        a = zp2().element(0, 0)
        b = GroupDescriptor((Component.PDIV,), 2).element(0)
        with pytest.raises(StructuralError):
            compare(a, b)

    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_translation_invariance(self, data):
        g = zp2()
        elems = coords_strategy(g)
        a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
        if a < b:
            assert a + c < b + c
        assert compare(a, b) == -compare(b, a)

    @settings(max_examples=100, derandomize=True)
    @given(st.data())
    def test_total_order_transitive(self, data):
        g = zp2()
        elems = coords_strategy(g)
        a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
        if a <= b and b <= c:
            assert a <= c


def convex_chain(g):
    """H_0 > H_1 > ... > H_n, one ConvexSubgroup per level."""
    return [ConvexSubgroup(g, k) for k in range(g.rank + 1)]


class TestConvexSubgroups:
    def test_rank_one_chain(self):
        g = GroupDescriptor((Component.PDIV,), 2)
        chain = convex_chain(g)
        assert [h.level for h in chain] == [0, 1]
        whole, trivial = chain
        assert is_principal_subgroup(whole) and not is_subprincipal_subgroup(whole)
        assert is_subprincipal_subgroup(trivial) and not is_principal_subgroup(trivial)

    def test_rank_two_proper_subgroups(self):
        g = zp2()
        chain = convex_chain(g)
        proper = [h for h in chain if is_subprincipal_subgroup(h)]
        assert [h.level for h in proper] == [1, 2]
        h1 = proper[0]
        # second-coordinate axis
        assert in_subgroup(h1, g.element(0, 7))
        assert not in_subgroup(h1, g.element(Fraction(1, 4), 0))

    def test_rank_three_all_proper_are_subprincipal(self):
        g = GroupDescriptor((Component.PDIV,) * 3, 2)
        for h in convex_chain(g):
            if h.level != 0:
                assert is_subprincipal_subgroup(h)

    def test_strict_descending_chain(self, pdiv2_rank2):
        chain = convex_chain(pdiv2_rank2)
        pts = list(grid_points(pdiv2_rank2, 2, 1))
        for a, b in zip(chain, chain[1:]):
            sa = {x for x in pts if in_subgroup(a, x)}
            sb = {x for x in pts if in_subgroup(b, x)}
            assert sb < sa

    def test_membership_matches_convexity_closure(self):
        # closure of the axis generators under addition, negation and
        # convexity on a finite grid agrees with the coordinate predicate
        g = zp2()
        pts = list(grid_points(g, 2, 2))
        grid = set(pts)
        for level in (1, 2):
            gens = {g.unit(i) for i in range(level, g.rank)}
            closure = set(gens) | {g.zero()}
            changed = True
            while changed:
                changed = False
                for a in list(closure):
                    if -a in grid and -a not in closure:
                        closure.add(-a)
                        changed = True
                    for b in list(closure):
                        c = a + b
                        if c in grid and c not in closure:
                            closure.add(c)
                            changed = True
                for a in list(closure):
                    for b in pts:
                        if b in closure:
                            continue
                        if abs_leq(b, a) and b not in closure:
                            closure.add(b)
                            changed = True
            h = ConvexSubgroup(g, level)
            assert closure == {x for x in pts if in_subgroup(h, x)}


def abs_leq(b, a):
    babs = b if b.sign() >= 0 else -b
    aabs = a if a.sign() >= 0 else -a
    return babs <= aabs


class TestQuotientSmallestPositive:
    def test_pdiv_dense(self):
        g = GroupDescriptor((Component.PDIV,), 2)
        assert quotient_has_smallest_positive(g, ConvexSubgroup(g, 1)) is False

    def test_int_discrete(self):
        g = GroupDescriptor((Component.INT,), 2)
        assert quotient_has_smallest_positive(g, ConvexSubgroup(g, 1)) is True

    def test_trivial_quotient_convention(self):
        g = GroupDescriptor((Component.INT,), 2)
        assert quotient_has_smallest_positive(g, ConvexSubgroup(g, 0)) is False

    def test_int_over_pdiv_quotient(self):
        # brute force: minimal positive coset of H_1 in (INT, PDIV)
        g = GroupDescriptor((Component.INT, Component.PDIV), 2)
        h = ConvexSubgroup(g, 1)
        positives = sorted(
            {x.coords[:1] for x in grid_points(g, 3, 2)
             if not in_subgroup(h, x) and x.sign() > 0}
        )
        assert positives[0] == (Fraction(1),)  # attained minimum in the quotient
        assert quotient_has_smallest_positive(g, h) is True


def class_subgroups(x):
    """The principal and subprincipal subgroups of x's archimedean class:
    the levels of its leading index and the next."""
    lead = x.leading_index()
    return ConvexSubgroup(x.group, lead), ConvexSubgroup(x.group, lead + 1)


class TestArchimedeanClass:
    def test_leading_index_zero(self):
        g = zp2()
        pr, sub = class_subgroups(g.unit(0))
        assert (pr.level, sub.level) == (0, 1)
        assert is_principal_subgroup(pr) and is_subprincipal_subgroup(sub)
        assert in_subgroup(pr, g.unit(0)) and not in_subgroup(sub, g.unit(0))

    def test_leading_index_one(self):
        g = zp2()
        pr, sub = class_subgroups(g.unit(1))
        assert (pr.level, sub.level) == (1, 2)
        assert is_trivial_subgroup(sub)

    def test_sign_and_scale_irrelevant(self):
        g = zp2()
        x = g.element(0, Fraction(-3, 4))
        pr, sub = class_subgroups(x)
        assert (pr.level, sub.level) == (1, 2)
        assert in_subgroup(pr, x) and not in_subgroup(sub, x)

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(-20, 20).filter(lambda n: n != 0), st.data())
    def test_invariant_under_integer_multiples(self, n, data):
        g = zp2()
        x = data.draw(coords_strategy(g).filter(lambda e: not e.is_zero))
        assert class_subgroups(x) == class_subgroups(n * x)
