"""Defect classification and defectless analysis."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valcuts.errors import (
    InconsistentDatumError,
    NotImmediateError,
    StructuralError,
    WrongCaseError,
)
from valcuts.extension import (
    DeclaredSchedule,
    DefectDatum,
    DefectKind,
    DefectlessCase,
    DefectlessDatum,
    DefectlessKind,
    ExtensionKind,
    classify,
    defectless_analyze,
    sigma_segment,
)
from valcuts.gpsfield import ApproachResult, FieldModel, PatternSeries, Tail
from valcuts.kaehler import present
from valcuts.ogroup import Component, ConvexSubgroup, GroupDescriptor
from valcuts.scenarios import abhyankar, example_e1
from valcuts.segment import (
    CutKind,
    contains,
    element_cut,
    negate,
    normalize,
    shift,
    subgroup_cut,
)

from conftest import (
    is_principal_ideal,
    is_trivial_subgroup,
    random_cut,
    random_group,
    random_group_element,
    schedule_value_at,
)
from test_gpsfield import _coordinate, abhyankar_root, perfect_model


def abhyankar_datum(p: int) -> DefectDatum:
    m = perfect_model(p)
    return DefectDatum(name=f"abhyankar_p{p}", kind=ExtensionKind.AS_DEFECT,
                       base=m, degree=p, generator=abhyankar_root(m))


def rank2_composite(p: int) -> FieldModel:
    """K((x))^(1/p^inf) composed with the valuation of its residue field K."""
    return perfect_model(p, rank=2, name="K((x))^(1/p^inf) o K")


class TestSigmaSegment:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_abhyankar_positive_cone(self, p):
        sigma, approach = sigma_segment(abhyankar_datum(p))
        assert sigma.kind is CutKind.SUBGROUP and sigma.level == 1
        assert sigma.shift.is_zero and not sigma.closed
        assert approach.schedule[0] == approach.segment.group.element(Fraction(-1, p))

    def test_rank2_coarse_witness(self):
        L = rank2_composite(2)
        theta_x = PatternSeries(L, L.zero(),
                                (Tail(L.residue.one(), L.value_group.element(-1, 0), 1),))
        datum = DefectDatum(name="theta_x", kind=ExtensionKind.AS_DEFECT,
                            base=L, degree=2, generator=theta_x)
        sigma, _ = sigma_segment(datum)
        assert sigma == normalize(subgroup_cut(ConvexSubgroup(L.value_group, 1)))

    def test_kummer_shift_applied(self):
        # declared schedule toward -vzeta, shifted by vzeta, lands on an open
        # cut above 2*vzeta; cross-checked against sampled schedule values
        G = GroupDescriptor((Component.RAT,), 3)
        vzeta = G.element(Fraction(1, 2))
        sched = DeclaredSchedule(G, limit=-vzeta, scale=G.element(1))
        base = FieldModel(name="declared", char=0, residue_char=3, value_group=G,
                          vp=G.element(1))
        datum = DefectDatum(name="kummer_shifted", kind=ExtensionKind.KUMMER_DEFECT,
                            base=base, degree=3, generator=sched, sigma_shift=vzeta)
        sigma, approach = sigma_segment(datum)
        for v in approach.schedule:
            mirrored = vzeta - v
            assert contains(sigma, mirrored)
        assert not contains(sigma, vzeta * 2)  # the boundary itself stays out
        assert sigma == normalize(subgroup_cut(ConvexSubgroup(G, 1), shift=vzeta * 2))

    def test_non_immediate_rejected(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        base = FieldModel(name="declared", char=0, residue_char=2, value_group=G)
        sched = DeclaredSchedule(G, limit=G.zero(), scale=G.element(-1))
        datum = DefectDatum(name="bad", kind=ExtensionKind.KUMMER_DEFECT,
                            base=base, degree=2, generator=sched)
        for depth in (1, 2, 12):  # the scale decides, also at depth 1 (one value)
            with pytest.raises(NotImmediateError):
                sigma_segment(datum, depth)

    def test_nonpositive_declared_sigma_rejected(self):
        G = GroupDescriptor((Component.PDIV, Component.PDIV), 2)
        base = FieldModel(name="syn", char=2, value_group=G)
        bad = [
            element_cut(G.element(-1, 0)),                       # negative minimum
            subgroup_cut(ConvexSubgroup(G, 1), closed=True),     # closed coset
            subgroup_cut(ConvexSubgroup(G, 2), shift=G.element(-1, 0)),
        ]
        for seg in bad:   # rejected when the datum is built
            with pytest.raises(StructuralError):
                DefectDatum(name="bad", kind=ExtensionKind.AS_DEFECT, base=base,
                            degree=2, declared_sigma=seg, synthetic=True)


class TestClassify:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_abhyankar_independent(self, p):
        res = classify(abhyankar_datum(p))
        assert res.kind is DefectKind.INDEPENDENT
        assert is_trivial_subgroup(res.H_E)
        assert res.certificate["criteria"] == {"ideal_route": True, "segment_route": True}

    def test_degree_is_the_residue_characteristic(self):
        m = perfect_model(3)
        with pytest.raises(StructuralError, match="residue characteristic"):
            DefectDatum(name="deg5", kind=ExtensionKind.AS_DEFECT, base=m, degree=5,
                        generator=abhyankar_root(m))

    def test_rank2_theta_x_independent_at_level1(self):
        L = rank2_composite(3)
        theta_x = PatternSeries(L, L.zero(),
                                (Tail(L.residue.one(), L.value_group.element(-1, 0), 1),))
        res = classify(DefectDatum(name="theta_x", kind=ExtensionKind.AS_DEFECT,
                                   base=L, degree=3, generator=theta_x))
        assert res.kind is DefectKind.INDEPENDENT
        assert res.H_E.level == 1

    def test_rank2_theta_t_independent_at_trivial(self):
        L = rank2_composite(3)
        theta_t = PatternSeries(L, L.zero(),
                                (Tail(L.residue.one(), L.value_group.element(0, -1), 1),))
        res = classify(DefectDatum(name="theta_t", kind=ExtensionKind.AS_DEFECT,
                                   base=L, degree=3, generator=theta_t))
        assert res.kind is DefectKind.INDEPENDENT
        assert is_trivial_subgroup(res.H_E)

    def test_mixed_characteristic_schedule(self):
        # values -vp/p^(i+1) classify to the trivial subgroup, independent
        p = 5
        G = GroupDescriptor((Component.PDIV,), p)
        base = FieldModel(name="Qp-style", char=0, residue_char=p, value_group=G,
                          vp=G.element(1))
        sched = DeclaredSchedule(G, limit=G.zero(), scale=G.element(1))
        datum = DefectDatum(name="mixed", kind=ExtensionKind.KUMMER_DEFECT,
                            base=base, degree=p, generator=sched)
        for i, value in enumerate(sched.approach(20).schedule):
            assert value == G.element(Fraction(-1, p ** (i + 1)))
        res = classify(datum)
        assert res.kind is DefectKind.INDEPENDENT and is_trivial_subgroup(res.H_E)

    def test_synthetic_principal_sigma_dependent(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        base = FieldModel(name="synthetic", char=2, value_group=G)
        datum = DefectDatum(name="dep", kind=ExtensionKind.AS_DEFECT, base=base,
                            degree=2, declared_sigma=element_cut(G.element(1)),
                            synthetic=True)
        res = classify(datum)
        assert res.kind is DefectKind.DEPENDENT
        assert not res.ram_ideal.same_values(res.max_ideal)
        assert res.certificate["synthetic"] is True

    def test_synthetic_shifted_subgroup_cut_dependent(self):
        G = GroupDescriptor((Component.PDIV, Component.PDIV), 2)
        base = FieldModel(name="synthetic2", char=2, value_group=G)
        sigma = subgroup_cut(ConvexSubgroup(G, 2), shift=G.element(1, 0))
        datum = DefectDatum(name="dep2", kind=ExtensionKind.AS_DEFECT, base=base,
                            degree=2, declared_sigma=sigma, synthetic=True)
        res = classify(datum)
        assert res.kind is DefectKind.DEPENDENT
        assert is_trivial_subgroup(res.H_E)  # invariance of a shifted point cut

    def test_sigma_independent_of_generator_translate(self):
        # theta + c for c in K, theta^p = theta + (theta^p - theta) and i*theta
        # for i in F_p^x generate the same extension, with the same sigma b - b
        # up to a unit: its classification and its Kaehler presentation do
        # not depend on the generator chosen
        rng = random.Random(4)
        for p, build in itertools.product((2, 3, 5, 7), (abhyankar, example_e1)):
            for base_res in build(p).results:
                m, theta = base_res.datum.base, base_res.datum.generator
                G = m.value_group
                generators = [theta.pow_char_power(p)]
                multiple = theta
                for _ in range(2, p):   # i*theta, built as a sum of i thetas
                    multiple = multiple + theta
                    generators.append(multiple)
                for _ in range(3):
                    c = m.zero()
                    for _ in range(rng.randint(1, 3)):
                        e = G.element(*[Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2))
                                        for _ in range(G.rank)])
                        c = c + m.monomial(rng.randint(1, p - 1), e)
                    generators.append(theta + c)
                want = present(base_res)
                for generator in generators:
                    res = classify(DefectDatum(name="other", kind=ExtensionKind.AS_DEFECT,
                                               base=m, degree=p, generator=generator))
                    assert ((res.kind, res.H_E, res.sigma, res.ram_ideal, res.max_ideal)
                            == (base_res.kind, base_res.H_E, base_res.sigma,
                                base_res.ram_ideal, base_res.max_ideal))
                    assert present(res) == want

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_other_generators_past_the_test_points(self, data):
        # the same invariance over drawn patterns: p up to 31, ranks 1-5 of
        # int, pdiv and rat classes, tail starts up to 6 and depths up to 200,
        # each over a fresh group.  An int class holds no gamma / p^i, so
        # tails are zero there and lead in a dense class
        p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
        kinds = data.draw(st.lists(st.sampled_from(list(Component)), min_size=1, max_size=5))
        assume(any(kind is not Component.INT for kind in kinds))
        G = GroupDescriptor(tuple(kinds), p)
        m = FieldModel(name="drawn", char=p, value_group=G)
        dense = [j for j, kind in enumerate(kinds) if kind is not Component.INT]
        coeff = st.integers(1, p - 1)

        def coordinate(kind) -> Fraction:
            den = 1 if kind is Component.INT else p ** data.draw(st.integers(0, 2))
            return Fraction(data.draw(st.integers(-6, 6)), den)

        def exponent(negative: bool):
            lead = data.draw(st.sampled_from(dense))
            head = Fraction(data.draw(st.integers(1, 6)), p ** data.draw(st.integers(0, 2)))
            if not negative and data.draw(st.booleans()):
                head = -head
            return G.element(*[0] * lead, -head,
                             *[0 if kind is Component.INT else coordinate(kind)
                               for kind in kinds[lead + 1:]])

        def finite(least: int):
            out = m.zero()
            for _ in range(data.draw(st.integers(least, 3))):
                out = out + m.monomial(data.draw(coeff),
                                       G.element(*[coordinate(kind) for kind in kinds]))
            return out

        # the first tail leads with a negative exponent, so theta is immediate
        tails = tuple(Tail(m.residue.element(data.draw(coeff)), exponent(n == 0),
                           data.draw(st.integers(0, 6)))
                      for n in range(data.draw(st.integers(1, 3))))
        theta = PatternSeries(m, finite(0), tails)
        multiple, i = None, data.draw(coeff)
        for bit in bin(i)[2:]:   # i*theta by doubling, from sums of theta alone
            multiple = theta if multiple is None else (
                multiple + multiple + theta if bit == "1" else multiple + multiple)
        depth = data.draw(st.integers(1, 200))

        def classified(generator):
            return classify(DefectDatum(name="theta", kind=ExtensionKind.AS_DEFECT, base=m,
                                        degree=p, generator=generator), depth)

        want = classified(theta)
        for other in (theta + finite(1), multiple, theta.pow_char_power(p)):
            res = classified(other)
            assert ((res.kind, res.H_E, res.sigma, res.ram_ideal, res.max_ideal)
                    == (want.kind, want.H_E, want.sigma, want.ram_ideal, want.max_ideal))
            assert present(res) == present(want)

    def test_drvg_base_forces_independent(self):
        # no discrete component: every pattern-built instance is independent
        for p, rank in itertools.product((2, 3), (1, 2, 3)):
            G = GroupDescriptor((Component.PDIV,) * rank, p)
            m = FieldModel(name=f"drvg_{p}_{rank}", char=p, value_group=G)
            for cls in range(rank):
                theta = PatternSeries(m, m.zero(),
                                      (Tail(m.residue.one(), G.unit(cls, -1), 1),))
                res = classify(DefectDatum(name="w", kind=ExtensionKind.AS_DEFECT,
                                           base=m, degree=p, generator=theta))
                assert res.kind is DefectKind.INDEPENDENT


class TestDeclaredSchedule:
    """A schedule is checked once, when built: it is accepted exactly when
    every value limit - scale/p^(k+1) lies in the group, and approach then
    builds them without a check, in one loop over a running power of p."""

    def test_agrees_with_the_checked_product(self):
        rng = random.Random(1919)
        outcomes = {"accepted": 0, "rejected": 0, "approached": 0}
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            G = GroupDescriptor(tuple(rng.choice(list(Component))
                                      for _ in range(rng.randint(1, 3))), p)
            limit, scale = (G.element(*[_coordinate(rng, k, p) for k in G.components])
                            for _ in range(2))
            try:
                sched = DeclaredSchedule(G, limit, scale)
            except StructuralError:
                with pytest.raises(StructuralError):
                    for e in range(1, 13):
                        scale * Fraction(1, p**e)
                outcomes["rejected"] += 1
                continue
            outcomes["accepted"] += 1
            reference = {
                k: limit - (scale * Fraction(1, p ** (k + 1)) if k >= -1
                            else scale * p ** -(k + 1))
                for k in range(-4, 12)}
            for k in range(-4, 12):
                assert schedule_value_at(sched, k) == reference[k], (G, scale, k)
            # approach reads the same values from every start; below -1 the power multiplies
            for start in range(-4, 4):
                rebuilt = DeclaredSchedule(G, limit, scale, start=start)
                if scale.sign() <= 0:
                    with pytest.raises(NotImmediateError):
                        rebuilt.approach(6)
                    continue
                outcomes["approached"] += 1
                values = rebuilt.approach(6).schedule
                assert values == tuple(
                    reference[k] for k in range(start, start + 6)), (G, scale, start)
                for value in values:
                    assert type(value.den) is int and all(type(n) is int for n in value.nums)
        assert outcomes["accepted"] > 50 and outcomes["rejected"] > 50
        assert outcomes["approached"] > 100

    def test_one_loop_matches_the_value_by_value_reference(self):
        # every rank 1-4 and component mix, p in {2, 3, 5}, starts -4..3 (the
        # power multiplies below k = -1) and depths 0..12, against each value
        # built on its own
        rng = random.Random(3232)
        seen = {"negative_start": 0, "depth0": 0, "ranks": set()}
        for _ in range(120):
            G = random_group(rng)
            limit = random_group_element(rng, G)
            # a discrete class holds no 1/p, so the scale is zero there
            scale = G.element(*[0 if k is Component.INT else _coordinate(rng, k, G.prime)
                                for k in G.components])
            if scale.is_zero:
                continue
            if scale.sign() < 0:
                scale = -scale
            seen["ranks"].add(G.rank)
            for start in range(-4, 4):
                sched = DeclaredSchedule(G, limit, scale, start=start)
                for depth in range(13):
                    values = sched.approach(depth).schedule
                    assert values == tuple(schedule_value_at(sched, k)
                                           for k in range(start, start + depth)), (
                        G, limit, scale, start, depth)
                    seen["negative_start"] += start < -1 and depth > 0
                    seen["depth0"] += depth == 0
        assert seen["ranks"] == {1, 2, 3, 4}
        assert seen["negative_start"] > 100 and seen["depth0"] > 100


class TestOneStepSigma:
    """sigma_segment builds sigma_shift - v(a - K) in one constructor call; it
    equals negating the approach segment and shifting it, checks included."""

    def test_matches_negate_then_shift(self):
        rng = random.Random(3304)
        seen = {"built": 0, "rejected": 0, "zeroed": 0}
        for _ in range(600):
            G = random_group(rng)
            cut, d = random_cut(rng, G), random_group_element(rng, G)
            if cut.is_final and rng.random() < 0.6:   # an approach segment is initial
                cut = negate(cut)
            want = shift(negate(cut), d)
            datum = SimpleNamespace(declared_sigma=None, sigma_shift=d,
                                    approach=lambda depth, cut=cut: ApproachResult(cut, ()))
            if want.is_final and not contains(want, G.zero()):
                seg, approach = sigma_segment(datum)
                assert seg == want and approach.segment is cut, (cut, d)
                seen["built"] += 1
                seen["zeroed"] += any(d.nums[cut.level:])
            else:
                with pytest.raises(StructuralError):
                    sigma_segment(datum)
                seen["rejected"] += 1
        assert seen["built"] > 200 and seen["rejected"] > 100 and seen["zeroed"] > 50, seen

    def test_declared_schedules_classify_through_the_same_cut(self):
        rng = random.Random(3305)
        built = 0
        for _ in range(200):
            G = random_group(rng)
            scale = G.element(*[0 if k is Component.INT else _coordinate(rng, k, G.prime)
                                for k in G.components])
            if scale.sign() <= 0:
                continue
            base = FieldModel(name="declared", char=0, residue_char=G.prime, value_group=G)
            sched = DeclaredSchedule(G, random_group_element(rng, G), scale,
                                     start=rng.randint(-2, 2))
            datum = DefectDatum(name="d", kind=ExtensionKind.KUMMER_DEFECT, base=base,
                                degree=G.prime, generator=sched,
                                sigma_shift=random_group_element(rng, G))
            want = shift(negate(sched.approach(4).segment), datum.sigma_shift)
            if not want.is_final or contains(want, G.zero()):
                with pytest.raises(StructuralError):
                    classify(datum, depth=4)
                continue
            assert classify(datum, depth=4).sigma == want
            built += 1
        assert built > 30


class TestDatumGroups:
    """A defect datum's generator, sigma_shift and declared segment live in
    its base's value group; one from another group is refused when built."""

    @staticmethod
    def base():
        G = GroupDescriptor((Component.PDIV,), 3)
        return FieldModel(name="syn", char=3, value_group=G)

    def test_declared_sigma_from_another_group(self):
        other = GroupDescriptor((Component.RAT, Component.INT), 3)
        with pytest.raises(StructuralError, match="declared_sigma"):
            DefectDatum(name="dep", kind=ExtensionKind.AS_DEFECT, base=self.base(), degree=3,
                        declared_sigma=element_cut(other.element(1, 0)), synthetic=True)

    def test_sigma_shift_and_generators_from_another_group(self):
        base = self.base()
        other = GroupDescriptor((Component.PDIV,), 3)
        wider = GroupDescriptor((Component.PDIV, Component.PDIV), 3)
        schedule = DeclaredSchedule(wider, wider.zero(), wider.element(1, 0))
        L = rank2_composite(3)
        pattern = PatternSeries(L, L.zero(),
                                (Tail(L.residue.one(), L.value_group.element(-1, 0), 1),))
        for field, value in (("sigma_shift", wider.element(1, 0)),
                             ("generator", schedule), ("generator", pattern)):
            with pytest.raises(StructuralError, match=field):
                DefectDatum(name="d", kind=ExtensionKind.AS_DEFECT, base=base, degree=3,
                            **({"generator": abhyankar_root(base)} if field != "generator"
                               else {}), **{field: value})
        # an equal group built apart is the same group
        DefectDatum(name="d", kind=ExtensionKind.AS_DEFECT, base=base, degree=3,
                    declared_sigma=element_cut(other.element(1)), synthetic=True)


class TestKindsGivenAsStrings:
    """A kind or a subkind given as a string is read as the member it names
    when the datum is built; any other value raises StructuralError naming
    the field."""

    def test_a_kind_string_classifies_as_its_member(self):
        m = perfect_model(3)
        datum = DefectDatum(name="abhyankar_p3", kind="as_defect", base=m, degree=3,
                            generator=abhyankar_root(m))
        assert datum.kind is ExtensionKind.AS_DEFECT and datum == abhyankar_datum(3)
        # the certificate writes the kind's value; a kept string had none
        assert classify(datum).certificate == classify(abhyankar_datum(3)).certificate

    def test_the_defectless_kind_string_is_refused_as_its_member_is(self):
        m = perfect_model(3)
        for kind in ("defectless_value", ExtensionKind.DEFECTLESS_VALUE):
            with pytest.raises(StructuralError, match="use DefectlessDatum"):
                DefectDatum(name="d", kind=kind, base=m, degree=3,
                            generator=abhyankar_root(m))

    def test_a_subkind_string_is_analysed_as_its_member(self):
        G = GroupDescriptor((Component.PDIV, Component.INT), 3)
        fields = dict(name="as", group=G, q=2, star_index=1, x0_value=G.element(0, -1),
                      residue_char=2)
        given = DefectlessDatum(subkind="artin_schreier", **fields)
        member = DefectlessDatum(subkind=DefectlessKind.ARTIN_SCHREIER, **fields)
        assert given.subkind is DefectlessKind.ARTIN_SCHREIER and given == member
        res = defectless_analyze(given)
        assert res.case is DefectlessCase.DL2C
        assert res.certificate == defectless_analyze(member).certificate

    def test_other_values_raise_naming_the_field(self):
        m = perfect_model(3)
        for kind in ("as", "AS_DEFECT", 3, None):
            with pytest.raises(StructuralError, match=r"^kind .* is not one of as_defect"):
                DefectDatum(name="d", kind=kind, base=m, degree=3,
                            generator=abhyankar_root(m))
        G = GroupDescriptor((Component.PDIV,), 3)
        for subkind in ("kummer", ExtensionKind.AS_DEFECT, None):
            with pytest.raises(StructuralError, match=r"^subkind .* is not one of artin_"):
                DefectlessDatum(name="d", group=G, q=2, star_index=0,
                                x0_value=G.element(1), subkind=subkind)


class TestDefectless:
    def test_dense_step_case(self):
        # vK = q * Z[1/p] inside vL = Z[1/p]: dense class, trivial H_E
        G = GroupDescriptor((Component.PDIV,), 3)
        datum = DefectlessDatum(name="dense", group=G, q=2, star_index=0,
                                x0_value=G.element(1))
        res = defectless_analyze(datum)
        assert res.case is DefectlessCase.DL2B
        assert is_trivial_subgroup(res.H_E)
        assert res.max_ideal.values == normalize(element_cut(G.zero(), closed=False))
        assert not is_principal_ideal(res.max_ideal)
        assert res.certificate["q_times_x0_in_vK"] is True

    def test_discrete_step_case(self):
        G = GroupDescriptor((Component.INT,), 2)
        datum = DefectlessDatum(name="discrete", group=G, q=2, star_index=0,
                                x0_value=G.element(1))
        res = defectless_analyze(datum)
        assert res.case is DefectlessCase.DL2C
        assert is_principal_ideal(res.max_ideal)  # discrete quotient attains its minimum

    def test_largest_common_subgroup_rank2(self):
        # brute-force level enumeration puts H_E right below the star class
        G = GroupDescriptor((Component.PDIV, Component.PDIV), 3)
        datum = DefectlessDatum(name="rank2", group=G, q=2, star_index=0,
                                x0_value=G.element(1, 0))
        res = defectless_analyze(datum)
        assert res.H_E.level == 1
        datum2 = DefectlessDatum(name="rank2b", group=G, q=2, star_index=1,
                                 x0_value=G.element(0, 1))
        assert is_trivial_subgroup(defectless_analyze(datum2).H_E)

    def test_as_generator_ram_ideal(self):
        # I_E = (1/theta) at value -v(theta), principal
        G = GroupDescriptor((Component.PDIV,), 3)  # descriptor prime 3 != q
        datum = DefectlessDatum(name="as", group=G, q=2, star_index=0,
                                x0_value=G.element(-1),
                                subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=2)
        res = defectless_analyze(datum)
        assert res.ram_ideal.values == element_cut(G.element(1))
        assert is_principal_ideal(res.ram_ideal)

    def test_kummer_positive_value_ram_ideal(self):
        # I_E = (zeta_q - 1) at value vp/(q-1)
        G = GroupDescriptor((Component.PDIV,), 2)
        datum = DefectlessDatum(name="kummer2a", group=G, q=3, star_index=0,
                                x0_value=G.element(1),
                                subkind=DefectlessKind.KUMMER_2A, residue_char=3,
                                vp=G.element(6))
        res = defectless_analyze(datum)
        assert res.ram_ideal.values == element_cut(G.element(3))

    def test_kummer_one_unit_ram_ideal(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        datum = DefectlessDatum(name="kummer2b", group=G, q=3, star_index=0,
                                x0_value=G.element(1),
                                subkind=DefectlessKind.KUMMER_2B, residue_char=3,
                                vp=G.element(6), v_eta_minus_1=G.element(1))
        res = defectless_analyze(datum)
        assert res.ram_ideal.values == element_cut(G.element(2))

    @pytest.mark.parametrize("subkind", [DefectlessKind.VALUE_ONLY, DefectlessKind.KUMMER_2A,
                                         DefectlessKind.KUMMER_2B])
    def test_nonpositive_vp_rejected(self, subkind):
        # p lies in the maximal ideal; v(p) <= 0 would put I_E outside the ring
        G = GroupDescriptor((Component.INT, Component.PDIV), 2)
        for vp in (G.zero(), G.element(0, -6), G.element(-1, 6)):
            with pytest.raises(StructuralError, match="is not positive"):
                DefectlessDatum(name="bad", group=G, q=3, star_index=0,
                                x0_value=G.element(1, 0), subkind=subkind, residue_char=3,
                                vp=vp, v_eta_minus_1=G.element(1, 0))
        datum = DefectlessDatum(name="ok", group=G, q=3, star_index=0,
                                x0_value=G.element(1, 0), subkind=subkind, residue_char=3,
                                vp=G.element(0, 6), v_eta_minus_1=G.element(1, 0))
        assert datum.vp == G.element(0, 6)

    def test_value_in_vK_rejected(self):
        G = GroupDescriptor((Component.PDIV,), 3)
        with pytest.raises(WrongCaseError):
            DefectlessDatum(name="bad", group=G, q=2, star_index=0,
                            x0_value=G.element(2))

    def test_divisible_class_rejected(self):
        G = GroupDescriptor((Component.RAT,), 3)
        with pytest.raises(InconsistentDatumError):
            DefectlessDatum(name="bad", group=G, q=2, star_index=0,
                            x0_value=G.element(Fraction(1, 5)))
        Gp = GroupDescriptor((Component.PDIV,), 3)
        with pytest.raises(InconsistentDatumError):
            DefectlessDatum(name="bad", group=Gp, q=3, star_index=0,
                            x0_value=Gp.element(1))

    def test_wild_value_only_rejected(self):
        G = GroupDescriptor((Component.PDIV,), 3)
        with pytest.raises(InconsistentDatumError):
            defectless_analyze(DefectlessDatum(name="bad", group=G, q=2, star_index=0,
                                               x0_value=G.element(1), residue_char=2))


def test_in_vK_reads_the_reduced_denominator_as_the_fraction_does():
    # vK is vL with the star coordinate times q: x lies in vK iff x_i / q lies
    # in the star class, read off den // gcd(num, den) as Fraction reads it
    rng = random.Random(4401)
    seen = {True: 0, False: 0}
    checks, qs = 0, set()
    while checks < 10_000:
        G = random_group(rng, max_rank=5)
        q = rng.choice((2, 3, 5, 7))
        stars = [i for i, kind in enumerate(G.components) if kind is Component.INT
                 or kind is Component.PDIV and G.prime != q]
        if not stars:
            continue
        qs.add(q)
        i = rng.choice(stars)
        datum = DefectlessDatum(name="v", group=G, q=q, star_index=i, x0_value=G.unit(i))
        for _ in range(50):
            x = random_group_element(rng, G, bound=rng.choice((3, 30)))
            if rng.random() < 0.3:   # often a multiple of q in the star class
                x = x * q
            want = G.coordinate_allowed(i, Fraction(x.nums[i], x.den * q))
            assert datum.in_vK(x) is want, (G, q, i, x)
            seen[want] += 1
            checks += 1
    assert qs == {2, 3, 5, 7} and min(seen.values()) >= 2_000, seen
