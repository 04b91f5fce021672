"""Series arithmetic, pattern tails, exact valuations."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from valcuts.errors import NotImmediateError, StructuralError
from valcuts.gpsfield import (
    INF,
    FieldModel,
    PatternSeries,
    SeriesElement,
    Tail,
    _family_shift,
    approach_segment,
    parse_element,
    val_diff,
)
from valcuts.ogroup import Component, GroupDescriptor, GroupElement
from valcuts.residue import GF
from valcuts.scenarios import example_e1
from valcuts.segment import CutKind, Direction, contains, seq_cut

from conftest import count_element_builds


def perfect_model(p: int, rank: int = 1, name: str | None = None) -> FieldModel:
    group = GroupDescriptor((Component.PDIV,) * rank, p)
    return FieldModel(name=name or f"F{p}((t))^(1/p^inf)", char=p, value_group=group)


def abhyankar_root(model: FieldModel) -> PatternSeries:
    """Root of X^p - X - 1/t as a single geometric tail."""
    return PatternSeries(model, model.zero(),
                         (Tail(model.residue.one(), model.value_group.element(-1), 1),))


def random_pattern(rng: random.Random, model: FieldModel):
    """(finite, tails) for a pattern with 1-3 tails, most of them negative.

    Base exponents -1 and -p times a direction share a family, so their tails
    share exponents; -(p+1) times it does not.
    """
    g, p = model.value_group, model.char
    directions = {1: [(-1,)], 2: [(-1, 0), (-1, 1), (0, -1)],
                  3: [(-1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (-1, 0, 1)]}[g.rank]
    tails = []
    for _ in range(rng.randint(1, 3)):
        scale = rng.choices([1, p, p + 1, -1], weights=[4, 4, 2, 1])[0]
        gamma = g.element(*(d * scale for d in rng.choice(directions)))
        tails.append(Tail(model.residue.element(rng.randint(1, p - 1)), gamma,
                          rng.randint(0, 3)))
    finite = model.zero()
    for _ in range(rng.randint(0, 2)):
        coords = [Fraction(rng.randint(-3, 3), p ** rng.randint(0, 2)) for _ in range(g.rank)]
        finite = finite + model.monomial(rng.randint(1, p - 1), g.element(*coords))
    return finite, tuple(tails)


def seeded_patterns(rng: random.Random):
    """(model, finite, tails) for 40 random patterns per p in {2, 3, 5, 7} and rank 1-3."""
    cases = []
    for p in (2, 3, 5, 7):
        for rank in (1, 2, 3):
            m = perfect_model(p, rank)
            cases += [(m, *random_pattern(rng, m)) for _ in range(40)]
    return cases


class TestSeriesArithmetic:
    def test_additive_inverse(self):
        m = perfect_model(3)
        a = parse_element(m, "t^-1 + 2t^(1/3)")
        assert (a - a).is_zero

    def test_monomial_product_perfect_hull(self):
        m = perfect_model(2)
        g = m.value_group
        a = m.monomial(1, g.element(Fraction(1, 2))) + m.monomial(1, g.element(1))
        b = m.monomial(1, g.element(Fraction(1, 2)))
        prod = a * b
        assert prod == m.monomial(1, g.element(1)) + m.monomial(1, g.element(Fraction(3, 2)))

    def test_valuation_rules(self):
        rng = random.Random(1)
        m = perfect_model(3)
        g = m.value_group

        def rand_series():
            out = m.zero()
            for _ in range(rng.randint(0, 4)):
                e = g.element(Fraction(rng.randint(-8, 8), 3 ** rng.randint(0, 2)))
                out = out + m.monomial(rng.randint(0, 2), e)
            return out

        for _ in range(300):
            a, b = rand_series(), rand_series()
            va, vb, vab = a.valuation(), b.valuation(), (a * b).valuation()
            if not a.is_zero and not b.is_zero:
                assert vab == va + vb
            vsum = (a + b).valuation()
            assert vsum is INF or vsum >= min([v for v in (va, vb) if v is not INF],
                                              default=vsum)
            if va is not INF and vb is not INF and va != vb:
                assert vsum == min(va, vb)

    def test_frobenius_is_ring_endomorphism(self):
        rng = random.Random(2)
        m = perfect_model(2)
        g = m.value_group

        def rand_series():
            out = m.zero()
            for _ in range(rng.randint(0, 4)):
                e = g.element(Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 3)))
                out = out + m.monomial(1, e)
            return out

        for _ in range(200):
            a, b = rand_series(), rand_series()
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
            assert a.frobenius() == a**2

    def test_exponent_constraint_enforced(self):
        g = GroupDescriptor((Component.INT,), 2)
        m = FieldModel(name="F2((t))", char=2, value_group=g)
        with pytest.raises(StructuralError):
            m.monomial(1, g.element(Fraction(1, 2)))

    def test_monomial_inverse_only(self):
        m = perfect_model(2)
        t = parse_element(m, "t")
        assert t.inverse() * t == m.one()
        with pytest.raises(StructuralError):
            (t + m.one()).inverse()


def counting_elements(monkeypatch) -> list:
    """The list that every GroupElement built from now on is appended to."""
    built = []
    count_element_builds(monkeypatch, built.append)
    return built


def naive_product(x: dict, y: dict, p: int) -> tuple[dict, int]:
    """{exponent coords: coefficient} of a product, on Fractions; also the
    number of exponents hit more than once whose coefficients cancelled."""
    acc, hits = {}, {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = (acc.get(e, 0) + c1 * c2) % p
            hits[e] = hits.get(e, 0) + 1
    cancelled = sum(1 for e, c in acc.items() if c == 0 and hits[e] > 1)
    return {e: c for e, c in acc.items() if c}, cancelled


def merged_in_group_order(model: FieldModel, terms) -> tuple:
    """terms sorted by the GroupElement order, the coefficients of equal
    exponents summed as integers mod p, zero sums dropped."""
    out: list = []
    for e, c in sorted(terms, key=lambda t: t[0]):
        if out and out[-1][0] == e:
            out[-1][1] += c.value
        else:
            out.append([e, c.value])
    p = model.char
    return tuple((e, model.residue.element(v % p)) for e, v in out if v % p)


def as_dict(a: SeriesElement) -> dict:
    return {e.coords: c.value for e, c in a.terms}


def random_series(rng: random.Random, model: FieldModel, terms: int) -> SeriesElement:
    """`terms` distinct exponents from a small grid, so products collide."""
    g, p = model.value_group, model.char
    dens = {Component.INT: (1,), Component.PDIV: (1, p, p * p),
            Component.RAT: (1, 2, 3, 4, 5, 6)}
    acc = {}
    while len(acc) < terms:
        e = g.element(*[Fraction(rng.randint(-4, 4), rng.choice(dens[k]))
                        for k in g.components])
        acc[e] = model.residue.element(rng.randint(1, p - 1))
    return SeriesElement(model, tuple(acc.items()))


class TestProductKernel:
    """SeriesElement.__mul__ against a product computed term by term."""

    @staticmethod
    def models(rng):
        for p in (2, 3, 5, 7):
            for rank in (1, 2, 3):
                for _ in range(3):
                    components = tuple(rng.choice(list(Component)) for _ in range(rank))
                    yield FieldModel(name="K", char=p, value_group=GroupDescriptor(components, p))

    def test_product_matches_naive_reference(self):
        rng = random.Random(7)
        products = cancelled = 0
        for m in self.models(rng):
            for _ in range(15):
                a = random_series(rng, m, rng.choice((0, 1, 1, 2, 3, 4, 6)))
                b = random_series(rng, m, rng.choice((0, 1, 2, 3, 5)))
                x, y = rng.choice(((a, b), (a, a), (a + b, a - b)))
                want, hit = naive_product(as_dict(x), as_dict(y), m.char)
                got = x * y
                assert as_dict(got) == want
                assert [e.coords for e, _ in got.terms] == sorted(want)
                assert all(type(c) is Fraction for e, _ in got.terms for c in e.coords)
                assert all(c.field == m.residue for _, c in got.terms)
                products += 1
                cancelled += hit
        assert products >= 500
        assert cancelled >= 100  # coefficient sums that vanish mod p are exercised

    def test_powers_and_inverses_round_trip(self):
        rng = random.Random(8)
        for m in self.models(rng):
            one = m.one()
            for _ in range(4):
                mono = random_series(rng, m, 1)
                assert mono * mono.inverse() == one
                assert mono ** -1 == mono.inverse()
                for n in (1, 2, 3, 5):
                    assert mono ** n * mono ** -n == one
                a = random_series(rng, m, rng.randint(0, 4))
                assert a ** 0 == one
                square, _ = naive_product(as_dict(a), as_dict(a), m.char)
                cube, _ = naive_product(square, as_dict(a), m.char)
                assert as_dict(a ** 3) == cube

    def test_square_builds_only_surviving_exponents(self, monkeypatch):
        # in characteristic 2 the cross terms of (sum a_i)^2 cancel, so the
        # square of an n-term approximant has n terms from n^2 term products;
        # one group element per product would mean per-product rational work
        b = example_e1(2).fmodel.immediates[0].carrier.partial_sum(11)
        built = counting_elements(monkeypatch)
        square = b * b
        assert len(b.terms) == len(square.terms) == 11
        assert len(built) == len(square.terms)


class TestFrobeniusPowers:
    """Over F_p, x^(p^k) is the Frobenius applied k times: x * x at p = 2 and
    the p-power steps of x ** n equal the term-by-term product, computed from
    an equal but distinct copy of x so that it takes the generic path."""

    @staticmethod
    def generic_power(x: SeriesElement, n: int) -> SeriesElement:
        out = x.model.one()
        for _ in range(n):
            out = out * SeriesElement(x.model, x.terms)
        return out

    @pytest.mark.parametrize("p", [2, 3])
    def test_powers_equal_the_generic_product(self, p):
        rng = random.Random(p)
        for m in TestProductKernel.models(rng):
            if m.char != p:
                continue
            for _ in range(6):
                x = random_series(rng, m, rng.randint(0, 6))
                copy_ = SeriesElement(m, x.terms)
                assert copy_ is not x and copy_ == x
                square = x * copy_
                assert as_dict(square) == naive_product(as_dict(x), as_dict(x), p)[0]
                if p == 2:
                    assert x * x == square
                for n in (p, p * p, 2 * p, 7, 8):
                    assert x ** n == self.generic_power(x, n)

    def test_a_square_at_two_is_the_frobenius(self, monkeypatch):
        x = random_series(random.Random(3), perfect_model(2, rank=2), 6)
        want = x * SeriesElement(x.model, x.terms)

        def refused(*_):
            raise AssertionError("a term-by-term product")

        # the generic product sorts its terms through _from_distinct
        monkeypatch.setattr(SeriesElement, "_from_distinct", refused)
        assert x * x == x.frobenius() == want


def naive_sum(x: SeriesElement, y: SeriesElement) -> tuple:
    """The terms of x + y, with one FqElement sum per term of y and a sort by
    GroupElement order."""
    acc = dict(x.terms)
    for e, c in y.terms:
        s = acc.get(e, x.model.residue.element(0)) + c
        if s.is_zero:
            acc.pop(e, None)
        else:
            acc[e] = s
    return tuple(sorted(acc.items(), key=lambda t: t[0]))


class TestSumAndTermOrder:
    """Series terms are ordered on integer keys and summed without an FqElement
    for an exponent only one operand has; both agree with the GroupElement
    order and FqElement arithmetic, and keep their checks."""

    def test_term_order_matches_group_element_sort(self):
        rng = random.Random(11)
        models = list(TestProductKernel.models(rng))
        lists = mixed = repeated = 0
        while lists < 500:
            m = rng.choice(models)
            g = m.value_group
            terms = [(g.element(*[_coordinate(rng, k, g.prime) for k in g.components]),
                      m.residue.element(rng.randint(1, m.char - 1)))
                     for _ in range(rng.randint(0, 8))]
            want = merged_in_group_order(m, terms)
            assert SeriesElement(m, terms).terms == want
            assert SeriesElement(m, tuple(reversed(terms))).terms == want
            lists += 1
            mixed += len({e.den for e, _ in terms}) > 1
            repeated += len({e for e, _ in terms}) < len(terms)
        assert mixed >= 150  # exponents over different denominators are exercised
        assert repeated >= 20  # and repeated exponents, whose coefficients are added

    def test_the_constructor_adds_repeated_exponents_and_drops_zeros(self):
        m = perfect_model(3)
        g, f = m.value_group, m.residue
        t = g.element(1)
        assert SeriesElement(m, ((g.element(-5), f.element(0)),)) == m.zero()
        assert SeriesElement(m, ((g.element(-5), f.element(0)),)).valuation() is INF
        x = m.monomial(1, t)
        total = x + m.monomial(2, t)   # t + 2t at p = 3
        assert total == m.zero() and total.valuation() is INF
        assert SeriesElement(m, ((t, f.one()), (t, f.element(2)))) == m.zero()
        two = SeriesElement(m, ((t, f.one()), (g.element(0), f.one()), (t, f.one())))
        assert two.terms == ((g.element(0), f.one()), (t, f.element(2)))
        assert SeriesElement(m, [(t, f.one())]).terms == x.terms   # any sequence

    def test_sum_matches_naive_reference(self):
        rng = random.Random(12)
        sums = cancelled = 0
        for m in TestProductKernel.models(rng):
            for _ in range(15):
                a = random_series(rng, m, rng.choice((0, 1, 2, 3, 5)))
                b = random_series(rng, m, rng.choice((0, 1, 2, 4, 6)))
                for x, y in ((a, b), (a, -b), (a, -a), (b, a)):
                    assert (x + y).terms == naive_sum(x, y)
                    assert (x - y).terms == naive_sum(x, -y)
                    shared = dict(x.terms).keys() & dict(y.terms).keys()
                    cancelled += len(shared) - len(shared & dict((x + y).terms).keys())
                    sums += 1
        assert sums >= 2000
        assert cancelled >= 300  # coefficient sums that vanish mod p are exercised

    def test_exponents_from_two_groups_raise(self):
        # the constructor checks every exponent against the model's group: one
        # foreign term, and terms all of one foreign group, raise as a mix does
        m = perfect_model(3, rank=2)
        other = GroupDescriptor((Component.PDIV, Component.RAT), 3)
        one = m.residue.one()
        ours, theirs = m.value_group.element(1, 0), other.element(0, 1)
        for terms in (((ours, one), (theirs, one)), ((theirs, one), (ours, one)),
                      ((ours, one), (ours + ours, one), (theirs, one)),
                      ((theirs, one),), ((theirs, one), (theirs + theirs, one)),
                      ((Fraction(1), one),)):
            with pytest.raises(StructuralError, match="different value group"):
                SeriesElement(m, terms)
        with pytest.raises(StructuralError, match="different value group"):
            m.monomial(1, theirs)
        # an equal group built apart is the same group
        twin = GroupDescriptor(m.value_group.components, 3)
        assert SeriesElement(m, ((twin.element(1, 0), one),)) == m.monomial(1, ours)

    def test_coefficient_from_another_field_raises_on_a_disjoint_exponent(self):
        # the constructor checks every coefficient, so no sum meets a foreign one
        m = perfect_model(3)
        g = m.value_group
        with pytest.raises(StructuralError, match="different residue fields"):
            SeriesElement(m, ((g.element(2), GF(5).one()),))
        for coeff in (GF(5).one(), GF(5).element(0), 1):
            for other in (g.element(1), g.element(2)):  # the exponents meet, or not
                with pytest.raises(StructuralError, match="different residue fields"):
                    SeriesElement(m, ((other, m.residue.one()), (g.element(2), coeff)))
        with pytest.raises(StructuralError, match="different residue fields"):
            m.monomial(GF(5).one(), g.element(1))


class TestPatternSeries:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_artin_schreier_identity(self, p):
        m = perfect_model(p)
        theta = abhyankar_root(m)
        lhs = theta.frobenius() - theta - parse_element(m, "t^-1")
        assert not lhs.has_tails and lhs.as_series().is_zero

    def test_artin_schreier_is_the_frobenius_minus_self_minus_c(self):
        # the telescoped tails give what the merge of the two differences gives,
        # c meeting F or not
        rng = random.Random(4702)
        for m, finite, tails in seeded_patterns(rng):
            theta = PatternSeries(m, finite, tails)
            extra = random_series(rng, m, rng.randint(1, 3))
            for c in (m.zero(), m.one(), extra, finite, -finite, finite + extra):
                assert theta.artin_schreier(c) == (theta.frobenius() - theta - c).as_series()
        theta = abhyankar_root(perfect_model(3))
        for c in (perfect_model(5).one(), perfect_model(3, 2).one(), 1, theta):
            with pytest.raises(StructuralError, match="different field models"):
                theta.artin_schreier(c)

    def test_frobenius_minus_self_telescopes(self):
        m = perfect_model(3)
        theta = abhyankar_root(m)
        diff = theta.frobenius() - theta
        assert not diff.has_tails
        assert diff.as_series() == parse_element(m, "t^-1")

    def test_tail_merge_cancellation(self):
        m = perfect_model(2)
        g = m.value_group
        one = m.residue.one()
        a = PatternSeries(m, m.zero(), (Tail(one, g.element(-1), 1),))
        b = PatternSeries(m, m.zero(), (Tail(one, g.element(-1), 3),))
        diff = a - b
        assert not diff.has_tails
        assert tuple(e for e, _ in diff.as_series().terms) == (
            g.element(-Fraction(1, 2)), g.element(-Fraction(1, 4)))

    def test_pow_char_power(self):
        m = perfect_model(3)
        theta = abhyankar_root(m)
        assert theta.pow_char_power(9) == theta.frobenius().frobenius()
        assert theta.pow_char_power(1) == theta
        for n in (6, 0, -3):   # x^0 = 1 is no Frobenius image
            with pytest.raises(StructuralError):
                theta.pow_char_power(n)


def _p_depth(e: GroupElement, p: int) -> int:
    den, k = e.den, 0
    while den % p == 0:
        den //= p
        k += 1
    return k


def terms_to_depth(x: PatternSeries, depth: int) -> dict:
    """exponent -> coefficient value mod p of every term of x whose exponent
    has at most p^depth in its denominator: the finite terms and the tail
    terms read one by one and summed, however x's tails are merged.  A
    tail's depth never falls as its index grows."""
    p, acc = x.model.char, {}
    terms = [(e, c.value) for e, c in x.finite_part.terms if _p_depth(e, p) <= depth]
    for t in x.tails:
        i = t.start
        while _p_depth(t.exponent(i), p) <= depth:
            terms.append((t.exponent(i), t.coeff.value))
            i += 1
    for e, c in terms:
        acc[e] = (acc.get(e, 0) + c) % p
    return {e: c for e, c in acc.items() if c}


def summed_terms(x: dict, y: dict, p: int) -> dict:
    acc = dict(x)
    for e, c in y.items():
        acc[e] = (acc.get(e, 0) + c) % p
    return {e: c for e, c in acc.items() if c}


def family_partner(rng: random.Random, theta: PatternSeries) -> PatternSeries:
    """A pattern with one tail in the family of each tail of theta, on its
    base exponent or p times it, at a random start and with the negated or a
    random coefficient, and a finite term at each head of theta."""
    m = theta.model
    p, field = m.char, m.residue
    tails, finite = [], []
    for t in theta.tails:
        coeff = rng.choice((-t.coeff, field.element(rng.randint(1, p - 1))))
        tails.append(Tail(coeff, t.gamma * rng.choice((1, p)), rng.randint(-1, 4)))
        finite.append((t.exponent(t.start), field.element(rng.randint(1, p - 1))))
    return PatternSeries(m, SeriesElement(m, tuple(finite)), tuple(tails))


def rebuilt_series(model: FieldModel, terms) -> SeriesElement:
    """The series of these terms through the sorting constructor, zero
    coefficients dropped."""
    return SeriesElement(model, tuple((e, c) for e, c in terms if c.value))


class TestCanonicalFormKept:
    """Negation, the Frobenius and adding a finite series keep the ordered
    terms and merged tails they are given; each result equals the one rebuilt
    through the sorting or merging constructor."""

    def test_series_operations_match_the_rebuilt_series(self):
        rng = random.Random(2801)
        cases = zero_dropped = 0
        for m in TestProductKernel.models(rng):
            p = m.char
            for _ in range(12):
                x = random_series(rng, m, rng.choice((0, 1, 2, 3, 5, 8)))
                assert -x == rebuilt_series(m, [(e, -c) for e, c in x.terms])
                assert x.frobenius() == rebuilt_series(m, [(e * p, c) for e, c in x.terms])
                assert m.zero() + x == x == x + m.zero()
                assert not x.terms or (m.zero() + x) is x and (x + m.zero()) is x
                assert (m.zero() - x) == -x
                if x.terms:
                    e = x.terms[0][0] - m.value_group.unit(0)
                    with_zero = SeriesElement(m, x.terms + ((e, m.residue.element(0)),))
                    assert with_zero.terms == x.terms   # the constructor drops it
                    assert (m.zero() + with_zero).terms == x.terms
                    assert (m.zero() + with_zero).terms == naive_sum(m.zero(), with_zero)
                    zero_dropped += 1
                cases += 1
        assert cases >= 400 and zero_dropped >= 300

    def test_pattern_operations_match_the_merging_constructor(self):
        rng = random.Random(2802)
        cases = merged = 0
        for m, finite, tails in seeded_patterns(rng):
            theta = PatternSeries(m, finite, tails)
            merged += len(theta.tails) < len(tails)
            p, terms = m.char, theta.finite_part.terms
            neg = PatternSeries(m, rebuilt_series(m, [(e, -c) for e, c in terms]),
                                tuple(Tail(-t.coeff, t.gamma, t.start) for t in theta.tails))
            frob = PatternSeries(m, rebuilt_series(m, [(e * p, c) for e, c in terms]),
                                 tuple(Tail(t.coeff, t.gamma, t.start - 1) for t in theta.tails))
            assert -theta == neg and theta.frobenius() == frob
            assert [t.gamma for t in theta.tails] == sorted(t.gamma for t in theta.tails)
            s = random_series(rng, m, rng.randint(0, 4))
            assert theta + s == PatternSeries(m, theta.finite_part + s, theta.tails)
            assert theta - s == PatternSeries(m, theta.finite_part - s, theta.tails)
            assert s + theta == theta + s and s - theta == -(theta - s)
            cases += 1
        assert cases == 480 and merged >= 60  # tails of one family are merged

    def test_pattern_sums_match_the_merging_constructor(self):
        # a + b merges both tail lists without checking them again; it equals
        # the checked constructor's pattern, and term by term the sum of a's
        # and b's terms
        rng = random.Random(2805)
        patterns = seeded_patterns(rng)
        cases = shifted = cancelled = spilled = 0
        for (m, finite, tails), (other_m, other_finite, other_tails) in zip(
                patterns, patterns[1:] + patterns[:1]):
            a = PatternSeries(m, finite, tails)
            p = m.char
            partners = [family_partner(rng, a)]
            if other_m is m:
                partners.append(PatternSeries(m, other_finite, other_tails))
            for b in partners:
                for sign, got in ((1, a + b), (-1, a - b)):
                    c = b if sign == 1 else -b
                    assert got == PatternSeries(m, a.finite_part + c.finite_part,
                                                a.tails + c.tails)
                    assert [t.gamma for t in got.tails] == sorted(t.gamma for t in got.tails)
                    assert terms_to_depth(got, 5) == summed_terms(
                        terms_to_depth(a, 5), terms_to_depth(c, 5), p)
                    finite_exponents = {e for e, _ in a.finite_part.terms + c.finite_part.terms}
                    for s, t in itertools.product(a.tails, c.tails):
                        shift = _family_shift(s.gamma, t.gamma, p)
                        if shift is None:
                            continue
                        start = t.start - shift
                        shifted += start != s.start
                        cancelled += (s.coeff + t.coeff).is_zero
                        # the heads one tail has before the other starts go finite
                        spilled += any(s.exponent(i) in finite_exponents
                                       for i in range(min(start, s.start), max(start, s.start)))
                    cases += 1
        # family tails at other starts, sums that cancel, heads spilled onto finite terms
        assert cases >= 1800 and shifted >= 1500 and cancelled >= 900 and spilled >= 600

    def test_pattern_arithmetic_keeps_its_boundary_checks(self):
        m, other = perfect_model(3), perfect_model(3, name="L")
        theta = abhyankar_root(m)
        foreign = GroupDescriptor((Component.RAT,), 3)
        with pytest.raises(StructuralError, match="different value group"):
            PatternSeries(m, m.zero(), (Tail(GF(3).one(), foreign.element(-1), 1),))
        with pytest.raises(StructuralError, match="finite part"):
            PatternSeries(m, other.one(), theta.tails)
        for x in (abhyankar_root(other), other.one(), other.zero(), 1, GF(3).one()):
            with pytest.raises(StructuralError):
                theta + x
            with pytest.raises(StructuralError):
                theta - x

    def test_a_difference_checks_its_operand_as_the_sum_does(self):
        # the operand is checked before it is negated, so an operand without
        # unary minus raises StructuralError, not TypeError
        m = perfect_model(3)
        theta = abhyankar_root(m)
        for value in (theta, theta.finite_part, m.zero()):
            for x in ("x", None, 3):
                for op in (lambda a, b: a + b, lambda a, b: a - b):
                    with pytest.raises(StructuralError, match="series from different field"):
                        op(value, x)
        rng = random.Random(2806)
        for m in TestProductKernel.models(rng):
            for _ in range(12):
                x, y = (random_series(rng, m, rng.choice((0, 1, 3, 5))) for _ in range(2))
                assert x - y == x + (-y)
                assert (x - y).terms == naive_sum(x, -y)

    def test_partial_sum_matches_the_sum_of_its_terms(self):
        rng = random.Random(2804)
        checked = 0
        for m, finite, tails in seeded_patterns(rng)[::4]:
            theta = PatternSeries(m, finite, tails)
            for k in range(-2, 13):
                terms = tuple((t.exponent(i), t.coeff)
                              for t in theta.tails for i in range(t.start, k + 1))
                want = theta.finite_part + SeriesElement(m, terms)
                got = theta.partial_sum(k)
                assert got == want
                assert got.terms == naive_sum(theta.finite_part, SeriesElement(m, terms))
                checked += 1
        assert checked == 120 * 15

    def test_a_tail_coefficient_from_another_field_raises(self):
        # val_diff compares coefficient values as integers mod the model's p
        g = GroupDescriptor((Component.RAT,), 3)  # holds 1/5^i too
        m = FieldModel(name="K", char=3, value_group=g)
        with pytest.raises(StructuralError, match="different residue field"):
            PatternSeries(m, m.zero(), (Tail(GF(5).one(), g.element(-1), 1),))


def _coordinate(rng: random.Random, kind: Component, prime: int) -> Fraction:
    if kind is Component.INT:
        return Fraction(rng.randint(-4, 4))
    if kind is Component.PDIV:
        return Fraction(rng.randint(-30, 30), prime ** rng.randint(0, 3))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _checked_power(gamma: GroupElement, p: int, i: int):
    """gamma / p^i by the checked product, or the error it raises."""
    try:
        return gamma * Fraction(1, p**i) if i >= 0 else gamma * p**-i
    except StructuralError as err:
        return str(err)


class TestDifferencesWithoutANegatedCopy:
    """a - b hands b's negated terms straight to one sum, and b's negated
    tails straight to one merge, without building -b first: it must equal
    a + (-b) on series and on patterns."""

    def test_a_difference_is_the_sum_with_the_negative(self):
        rng = random.Random(4501)
        patterns = seeded_patterns(rng)
        seen = dict.fromkeys(("zero", "cancelled", "shared", "family"), 0)
        pairs = 0
        for (m, finite, tails), (other_m, other_finite, other_tails) in zip(
                patterns, patterns[7:] + patterns[:7]):
            a = PatternSeries(m, finite, tails)
            zero = PatternSeries(m, m.zero(), ())
            partners = [a, zero, family_partner(rng, a), family_partner(rng, a)]
            if other_m is m:
                partners.append(PatternSeries(m, other_finite, other_tails))
            for x, y in [(a, b) for b in partners] + [(zero, a)]:
                assert x - y == x + (-y)
                for s, t in itertools.product(x.tails, y.tails):
                    shift = _family_shift(s.gamma, t.gamma, m.char)
                    if shift is not None:
                        seen["shared" if shift == 0 else "family"] += 1
                pairs += 1
            x = a.finite_part
            extra = random_series(rng, m, rng.randint(1, 3))
            for y in (x, m.zero(), x + extra, extra, partners[2].finite_part):
                for u, v in ((x, y), (y, x)):
                    got = u - v
                    assert got == u + (-v) and got.terms == naive_sum(u, -v)
                    seen["zero"] += u.is_zero or v.is_zero
                    exponents = {e for e, _ in u.terms} | {e for e, _ in v.terms}
                    seen["cancelled"] += len(got.terms) < len(exponents)
                    pairs += 1
        assert pairs >= 1000 and min(seen.values()) >= 100, (pairs, seen)


class TestTailExponent:
    """A tail is checked once, when built: it is accepted exactly when every
    exponent gamma / p^i lies in the group, and exponent() then builds them
    without a check."""

    def test_agrees_with_the_checked_product(self):
        rng = random.Random(1717)
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(600):
            p = rng.choice((2, 3, 5, 7))
            # half the groups are of another prime than the tail's residue field
            prime = p if rng.random() < 0.5 else rng.choice([q for q in (2, 3, 5, 7) if q != p])
            group = GroupDescriptor(tuple(rng.choice(list(Component))
                                          for _ in range(rng.randint(1, 3))), prime)
            gamma = group.element(*[_coordinate(rng, k, prime) for k in group.components])
            if gamma.is_zero:
                continue
            want = {i: _checked_power(gamma, p, i) for i in range(-3, 13)}
            closed = not any(isinstance(want[i], str) for i in range(13))
            try:
                tail = Tail(GF(p).element(rng.randint(1, p - 1)), gamma, rng.randint(-2, 2))
            except StructuralError:
                assert not closed, (group, gamma, p)
                outcomes["rejected"] += 1
                continue
            assert closed, (group, gamma, p)
            outcomes["accepted"] += 1
            for i, value in want.items():
                assert tail.exponent(i) == value, (group, gamma, p, i)
        assert outcomes["accepted"] > 100 and outcomes["rejected"] > 100

    def test_a_class_without_1_over_p_is_rejected_when_built(self):
        group = GroupDescriptor((Component.INT, Component.PDIV), 3)
        with pytest.raises(StructuralError, match=r"leaves component 0 \(int\)"):
            Tail(GF(3).one(), group.element(1, Fraction(1, 3)), 1)
        tail = Tail(GF(3).one(), group.element(0, Fraction(1, 3)), 1)
        assert tail.exponent(1) == group.element(0, Fraction(1, 9))
        assert tail.exponent(-1) == group.element(0, 1)


class TestValDiff:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_partial_sum_schedule(self, p):
        m = perfect_model(p)
        theta = abhyankar_root(m)
        for k in [*range(0, 10), 65, 200, 500]:
            b_k = theta.partial_sum(k)
            assert val_diff(theta, b_k) == m.value_group.element(Fraction(-1, p ** (k + 1)))

    def test_a_probe_builds_one_element_per_head_position(self, monkeypatch):
        # the first head and one element per head it moves on, as before
        built = counting_elements(monkeypatch)
        for p in (2, 3, 5):
            m = perfect_model(p)
            theta = abhyankar_root(m)
            for k in (0, 12, 32, 64):
                b = theta.partial_sum(k)
                built.clear()
                val_diff(theta, b)
                assert len(built) == k + 1

    def test_an_operand_that_is_no_finite_series_of_the_model_raises(self):
        m, other = perfect_model(3), perfect_model(3, name="L")
        theta = abhyankar_root(m)
        for c in (theta, PatternSeries(m, m.one(), ()), 5, GF(3).one(), other.one()):
            with pytest.raises(StructuralError, match="finite series of theta's field model"):
                val_diff(theta, c)
        # theta is read before c: a series or an int as theta raises as well
        for theta, c in ((m.one(), m.one()), (5, m.one())):
            with pytest.raises(StructuralError, match="needs a pattern theta"):
                val_diff(theta, c)

    def test_leading_tail_term(self):
        m = perfect_model(3)
        theta = abhyankar_root(m)
        assert val_diff(theta, m.zero()) == m.value_group.element(Fraction(-1, 3))

    def test_far_support_does_not_disturb(self):
        # brute force at depth k+3: v(theta - (b_k + t^5)) stays -1/p^(k+1)
        p, k = 2, 4
        m = perfect_model(p)
        theta = abhyankar_root(m)
        c = theta.partial_sum(k) + parse_element(m, "t^5")
        depth = k + 3
        brute = (theta.partial_sum(depth) - c).valuation()
        tail_floor = m.value_group.element(Fraction(-1, p ** (depth + 1)))
        assert brute < tail_floor  # witnessed inside the truncation
        assert val_diff(theta, c) == brute
        assert val_diff(theta, c) == m.value_group.element(Fraction(-1, p ** (k + 1)))

    def test_truncated_brute_force_agreement(self):
        # the oracle expands the tails as given, unmerged, to index n; below
        # the least omitted exponent `floor` that truncation is exact, and at
        # or above it omitted terms may still cancel (tails of one family)
        rng = random.Random(9)
        n = 12
        m2 = perfect_model(2)
        cases = [(m2, m2.zero(), abhyankar_root(m2).tails)] * 100 + seeded_patterns(rng)
        decided = 0
        for m, finite, tails in cases:
            g, p = m.value_group, m.char
            theta = PatternSeries(m, finite, tails)
            if not any(t.gamma.sign() < 0 for t in theta.tails):
                continue  # the negative tails cancelled each other
            c = finite if rng.random() < 0.5 else m.zero()
            j = rng.randint(-1, 3)  # c cancels the tail heads up to index j
            for t in tails:
                for i in range(t.start, j + 1):
                    c = c + m.monomial(t.coeff, t.exponent(i))
            for _ in range(rng.randint(0, 3)):
                coords = [Fraction(rng.randint(-4, 4), p ** rng.randint(0, 3))
                          for _ in range(g.rank)]
                c = c + m.monomial(rng.randint(0, p - 1), g.element(*coords))
            truncated = finite
            for t in tails:
                for i in range(t.start, n + 1):
                    truncated = truncated + m.monomial(t.coeff, t.exponent(i))
            brute = (truncated - c).valuation()
            floor = min(t.exponent(max(n + 1, t.start)) for t in tails if t.gamma.sign() < 0)
            got = val_diff(theta, c)
            if brute is not INF and brute < floor:
                assert got == brute
                decided += 1
            else:
                assert got >= floor
        assert decided >= 510   # 530 of the 580 cases, p in {2, 3, 5, 7} and rank 1-3


def reference_schedule(theta: PatternSeries, depth: int) -> tuple[tuple, list]:
    """The schedule by the per-k loop: at each k the least head over every
    negative tail, kept when it is new; and the tail that holds each value."""
    negative = [t for t in theta.tails if t.gamma.sign() < 0]
    schedule, holders = [], []
    k = max(0, min(t.start for t in theta.tails) - 1)
    while len(schedule) < depth:
        value, holder = min(((t.exponent(max(k + 1, t.start)), t) for t in negative),
                            key=lambda pair: pair[0])
        if not schedule or schedule[-1] != value:
            schedule.append(value)
            holders.append(holder)
        k += 1
    return tuple(schedule), holders


def leading_patterns(rng: random.Random):
    """(model, finite, tails) for 25 patterns per p in {2, 3, 5, 7} and rank
    1-3 with two or three negative tails at one leading index, each with its
    own start; some also have a negative tail of a finer index, a positive
    tail or finite terms."""
    cases = []
    for p in (2, 3, 5, 7):
        for rank in (1, 2, 3):
            m = perfect_model(p, rank)
            g = m.value_group
            for _ in range(25):
                lead = rng.randrange(rank)
                tails = []
                for _ in range(rng.randint(2, 3)):
                    coords = [Fraction(0)] * rank
                    coords[lead] = Fraction(-rng.randint(1, 3 * p), p ** rng.randint(0, 1))
                    for j in range(lead + 1, rank):
                        coords[j] = Fraction(rng.randint(-3, 3), p ** rng.randint(0, 1))
                    tails.append(Tail(m.residue.element(rng.randint(1, p - 1)),
                                      g.element(*coords), rng.randint(-1, 5)))
                if lead + 1 < rank and rng.random() < 0.5:
                    tails.append(Tail(m.residue.one(), g.unit(lead + 1, -1), rng.randint(-1, 3)))
                if rng.random() < 0.5:
                    tails.append(Tail(m.residue.one(), g.unit(rng.randrange(rank)),
                                      rng.randint(-1, 3)))
                finite = m.zero()
                for _ in range(rng.randint(0, 2)):
                    finite = finite + m.monomial(1, tails[0].exponent(rng.randint(-1, 4)))
                cases.append((m, finite, tuple(tails)))
    return cases


class TestApproachSegment:
    def test_matches_the_per_k_reference(self):
        # only the leading tails are read, and past their last start the least
        # base exponent gives every value; the reference takes the minimum over
        # every negative tail at every k
        rng = random.Random(2805)
        checked = traded = 0
        for m, finite, tails in seeded_patterns(rng) + leading_patterns(rng):
            theta = PatternSeries(m, finite, tails)
            if not any(t.gamma.sign() < 0 for t in theta.tails):
                continue
            for depth in (0, 1, 2, 5, 12):
                want, holders = reference_schedule(theta, depth)
                assert approach_segment(theta, m, depth).schedule == want
            traded += len({t.start for t in holders}) > 1
            checked += 1
        assert checked >= 600
        assert traded >= 20  # two leading tails with different starts trade the minimum

    def test_a_one_tail_schedule_builds_one_element_per_value(self, monkeypatch):
        # the cut is built at the zero shift, without negating gamma_min, so
        # the schedule's values are the only elements built
        built = counting_elements(monkeypatch)
        for p in (2, 3, 5):
            m = perfect_model(p)
            theta = abhyankar_root(m)
            zero = m.value_group.zero()
            built.clear()
            res = approach_segment(theta, m, 12)
            assert len(res.schedule) == 12 and len(built) == 12
            assert res.segment == seq_cut(zero, -theta.tails[0].gamma, start=1,
                                          direction=Direction.INITIAL)

    def test_abhyankar_negative_cone(self):
        m = perfect_model(3)
        theta = abhyankar_root(m)
        res = approach_segment(theta, m, depth=10)
        s = res.segment
        assert s.direction is Direction.INITIAL
        assert s.kind is CutKind.SUBGROUP and s.level == 1 and s.shift.is_zero
        assert res.schedule[0] == m.value_group.element(Fraction(-1, 3))
        assert all(a < b for a, b in zip(res.schedule, res.schedule[1:]))

    def test_no_maximum_property(self):
        m = perfect_model(2)
        theta = abhyankar_root(m)
        res = approach_segment(theta, m, depth=8)
        for v, nxt in zip(res.schedule, res.schedule[1:]):
            assert contains(res.segment, v)
            assert contains(res.segment, nxt) and v < nxt  # no maximum inside
        assert not contains(res.segment, m.value_group.zero())

    def test_schedule_matches_partial_sums(self):
        # the closed form against v(theta - b_k) along the series path
        depth, checked, repeats = 8, 0, 0
        for m, finite, tails in seeded_patterns(random.Random(9)):
            theta = PatternSeries(m, finite, tails)
            if not any(t.gamma.sign() < 0 for t in theta.tails):
                continue
            want, k = [], max(0, min(t.start for t in theta.tails) - 1)
            while len(want) < depth:
                value = val_diff(theta, theta.partial_sum(k))
                if want and want[-1] == value:
                    repeats += 1
                else:
                    want.append(value)
                k += 1
            assert approach_segment(theta, m, depth).schedule == tuple(want)
            checked += 1
        assert checked >= 200 and repeats > 0

    def test_finite_element_rejected(self):
        m = perfect_model(2)
        flat = PatternSeries(m, parse_element(m, "t"), ())
        with pytest.raises(NotImmediateError):
            approach_segment(flat, m)

    def test_decreasing_schedule_rejected(self):
        m = perfect_model(2)
        bad = PatternSeries(m, m.zero(),
                            (Tail(m.residue.one(), m.value_group.element(1), 1),))
        with pytest.raises(NotImmediateError):
            approach_segment(bad, m)
        with pytest.raises(StructuralError):  # its support has no least term
            val_diff(bad, m.zero())


class TestResidueFromTheCharacteristic:
    """A model's residue field follows from its characteristic: F_char for
    char > 0, which is exactly when it carries series arithmetic, else None.
    It is kept outside the fields and rebuilt with the model."""

    @staticmethod
    def models():
        for p in (2, 3, 5):
            G = GroupDescriptor((Component.PDIV, Component.INT), p)
            yield FieldModel("K", p, G)
            yield FieldModel("K", p, G, p, G.unit(0))
            yield FieldModel("K", 0, G, p)
            yield FieldModel("K", 0, G, p, G.unit(0))

    def test_residue_and_series_arithmetic_follow_char(self):
        for model in self.models():
            want = GF(model.char) if model.char > 0 else None
            assert model.residue == want and model.series_capable is (model.char > 0)
            if model.series_capable:
                assert model.one().terms[0][1].field == want
            else:
                with pytest.raises(StructuralError, match="carries no series arithmetic"):
                    model.zero()

    def test_residue_survives_pickle_and_copy(self):
        for model in self.models():
            for trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
                other = trip(model)
                assert other == model and other.residue == model.residue
                assert other.series_capable is model.series_capable

    def test_a_char_that_is_not_prime_is_rejected(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        with pytest.raises(StructuralError, match="4 is not prime"):
            FieldModel("K", 4, G)
