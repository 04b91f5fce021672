"""Differential presentations, zero tests, annihilators, and the value-set
colon they are checked against."""

from __future__ import annotations

import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from valcuts import segment
from valcuts.cli import load_config
from valcuts.errors import StructuralError, ValcutsError
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
)
from valcuts.gpsfield import FieldModel
from valcuts.kaehler import (
    PresentationForm,
    annihilate,
    containment_holds,
    present,
    present_quotient,
)
from valcuts.ogroup import Component, ConvexSubgroup, GroupDescriptor
from valcuts.prescribe import build, verify
from valcuts.segment import (
    IdealDescriptor,
    Segment,
    coarsening,
    contains,
    element_cut,
    is_subset,
    negate,
    shift,
    subgroup_cut,
)

from conftest import (
    count_element_builds,
    grid_points,
    is_canonical,
    random_cut,
    random_group,
    random_group_element,
    segment_set,
)
from kaehler_oracles import closed_form, colon, maximality_witness
from test_extension import abhyankar_datum


def below_boundary_candidates(group, boundary_gamma, depth=3, spread=4):
    """Values strictly below a principal boundary, for maximality probes."""
    p = group.prime
    out = []
    for d in range(depth + 1):
        step = group.element(*([Fraction(1, p**d)] + [0] * (group.rank - 1)))
        for k in range(1, spread):
            out.append(boundary_gamma - step * k)
    return out


class TestDefectPresentations:
    def test_independent_is_zero_with_full_ring_annihilator(self):
        res = classify(abhyankar_datum(3))
        pres = present(res)
        assert pres.form is PresentationForm.RAM_QUOTIENT
        assert pres.is_zero
        assert pres.annihilator.values == element_cut(res.group.zero())
        assert containment_holds(pres)

    def test_synthetic_dependent_principal_sigma(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        from valcuts.gpsfield import FieldModel

        base = FieldModel(name="syn", char=2, value_group=G)
        datum = DefectDatum(name="dep", kind=ExtensionKind.AS_DEFECT, base=base,
                            degree=2, declared_sigma=element_cut(G.element(1)),
                            synthetic=True)
        res = classify(datum)
        pres = present(res)
        assert res.kind is DefectKind.DEPENDENT
        assert not pres.is_zero
        # attained infimum keeps the plain power as annihilator
        assert pres.annihilator.values == element_cut(G.element(1))
        assert containment_holds(pres)
        assert maximality_witness(pres, below_boundary_candidates(G, G.element(1)))

    def test_synthetic_dependent_open_cut_gets_improved_annihilator(self):
        G = GroupDescriptor((Component.PDIV,), 3)
        from valcuts.gpsfield import FieldModel

        base = FieldModel(name="syn2", char=3, value_group=G)
        sigma = subgroup_cut(ConvexSubgroup(G, 1), shift=G.element(1))
        datum = DefectDatum(name="dep2", kind=ExtensionKind.AS_DEFECT, base=base,
                            degree=3, declared_sigma=sigma, synthetic=True)
        res = classify(datum)
        pres = present(res)
        assert res.kind is DefectKind.DEPENDENT
        # unattained infimum at 2 * shift is realized by a base-field value
        assert pres.annihilator.values == element_cut(G.element(2))
        assert pres.annihilator.values != pres.numerator.power(2).values
        assert containment_holds(pres)
        assert maximality_witness(pres, below_boundary_candidates(G, G.element(2)))

    def test_dependent_flag_reads_the_annihilator_against_the_maximal_ideal(self):
        # the flag is true exactly when the annihilator's values on a grid are
        # the positive ones: over an int finest class a closed cut at the unit
        # is M; over a dense one M is open, so no closed annihilator is M
        seen = set()
        for kinds in ((Component.INT,), (Component.PDIV,), (Component.RAT,),
                      (Component.PDIV, Component.INT), (Component.INT, Component.PDIV)):
            G = GroupDescriptor(kinds, 2)
            base = FieldModel(name="grid", char=2, value_group=G)
            pts = list(grid_points(G, 2, 2))
            positive = {x for x in pts if x.sign() > 0}
            for gamma in (G.unit(G.rank - 1), G.unit(G.rank - 1, 2), G.unit(0)):
                for sigma in (element_cut(gamma), element_cut(gamma, closed=False)):
                    datum = DefectDatum(name="dep", kind=ExtensionKind.AS_DEFECT, base=base,
                                        degree=2, declared_sigma=sigma, synthetic=True)
                    res = classify(datum)
                    pres = present(res)
                    if pres.is_zero:
                        continue
                    want = segment_set(pres.annihilator.values, pts) == positive
                    assert pres.annihilator_is_max_ideal is want, (kinds, sigma)
                    seen.add(want)
        assert seen == {True, False}

    def test_is_zero_iff_independent(self):
        from valcuts.gpsfield import FieldModel

        G = GroupDescriptor((Component.PDIV, Component.PDIV), 2)
        base = FieldModel(name="grid", char=2, value_group=G)
        segs = [
            subgroup_cut(ConvexSubgroup(G, 1)),
            subgroup_cut(ConvexSubgroup(G, 2)),
            subgroup_cut(ConvexSubgroup(G, 2), shift=G.element(1, 0)),
            element_cut(G.element(0, 1)),
            element_cut(G.element(2, -1)),
        ]
        for seg in segs:
            datum = DefectDatum(name="case", kind=ExtensionKind.AS_DEFECT, base=base,
                                degree=2, declared_sigma=seg, synthetic=True)
            res = classify(datum)
            pres = present(res)
            assert pres.is_zero == (res.kind is DefectKind.INDEPENDENT)


class TestDefectlessPresentations:
    def test_as_defectless_never_zero(self):
        G = GroupDescriptor((Component.PDIV,), 3)
        datum = DefectlessDatum(name="as", group=G, q=2, star_index=0,
                                x0_value=G.element(-1),
                                subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=2)
        res = defectless_analyze(datum)
        pres = present(res)
        assert pres.form is PresentationForm.RAM_MAX_QUOTIENT
        assert not pres.is_zero
        # dense class: M_E nonprincipal over the coarse ring, so the
        # annihilator is the coarsening shifted by (q-1) * v(1/theta)
        assert pres.annihilator.values == element_cut(G.element(1))
        assert containment_holds(pres)
        assert maximality_witness(pres, below_boundary_candidates(G, G.element(1)))

    def test_as_defectless_discrete_class(self):
        G = GroupDescriptor((Component.INT,), 3)
        datum = DefectlessDatum(name="as_d", group=G, q=3, star_index=0,
                                x0_value=G.element(-1),
                                subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=3)
        res = defectless_analyze(datum)
        pres = present(res)
        # M_E principal: annihilator is the full power (I*M)^(q-1)
        assert pres.annihilator.values == pres.numerator.power(2).values
        assert containment_holds(pres)

    def test_tame_dense_is_zero(self):
        G = GroupDescriptor((Component.PDIV,), 3)
        datum = DefectlessDatum(name="tame", group=G, q=2, star_index=0,
                                x0_value=G.element(1))
        res = defectless_analyze(datum)
        pres = present(res)
        assert pres.form is PresentationForm.MAX_QUOTIENT
        assert pres.is_zero
        assert pres.annihilator.values == element_cut(G.zero())

    def test_tame_discrete_nonzero_max_ideal_annihilator(self):
        G = GroupDescriptor((Component.INT,), 3)
        datum = DefectlessDatum(name="tame_d", group=G, q=2, star_index=0,
                                x0_value=G.element(1))
        res = defectless_analyze(datum)
        pres = present(res)
        assert not pres.is_zero
        assert pres.annihilator.values == res.max_ideal.power(1).values
        assert pres.annihilator_is_max_ideal  # q = 2 and M_E = M_L
        assert containment_holds(pres)

    def test_wild_kummer_value_case(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        datum = DefectlessDatum(name="kummer", group=G, q=3, star_index=0,
                                x0_value=G.element(1),
                                subkind=DefectlessKind.KUMMER_2A, residue_char=3,
                                vp=G.element(6))
        res = defectless_analyze(datum)
        pres = present(res)
        # vp lands above H_E, so q sits inside M_E and the module is nonzero
        assert not pres.is_zero
        assert pres.annihilator.values == element_cut(G.element(6))
        assert containment_holds(pres)
        assert maximality_witness(pres, below_boundary_candidates(G, G.element(6)))

    def test_wild_kummer_one_unit_nonzero(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        datum = DefectlessDatum(name="kummer2b", group=G, q=3, star_index=0,
                                x0_value=G.element(1),
                                subkind=DefectlessKind.KUMMER_2B, residue_char=3,
                                vp=G.element(6), v_eta_minus_1=G.element(1))
        res = defectless_analyze(datum)
        pres = present(res)
        assert pres.form is PresentationForm.RAM_MAX_QUOTIENT
        assert not pres.is_zero
        assert containment_holds(pres)

    def test_max_ideal_never_annihilates_over_dense_groups(self):
        # with no discrete component the maximal ideal is never principal,
        # so the reported annihilator is never M_L
        G = GroupDescriptor((Component.PDIV,), 2)
        m_l = coarsening(G, G.rank)[2]
        cases = []
        datum = DefectlessDatum(name="as", group=G, q=3, star_index=0,
                                x0_value=G.element(-1),
                                subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=3)
        res = defectless_analyze(datum)
        cases.append(present(res))
        res2 = classify(abhyankar_datum(2))
        cases.append(present(res2))
        for pres in cases:
            assert not pres.annihilator_is_max_ideal
            assert not pres.annihilator.same_values(m_l)


class TestDiscreteClasses:
    """Rank-2 defectless data with a discrete class at or below the cut class
    of H_E: the annihilator of every nonzero module contains the module's
    relations and is maximal among the candidates around its boundary."""

    @staticmethod
    def data():
        for kinds in ((Component.INT, Component.INT), (Component.INT, Component.PDIV),
                      (Component.PDIV, Component.INT)):
            G = GroupDescriptor(kinds, 5)
            for star, q in itertools.product((0, 1), (2, 3)):
                x0 = G.unit(star)
                yield DefectlessDatum(name="tame", group=G, q=q, star_index=star,
                                      x0_value=x0)
                yield DefectlessDatum(name="as", group=G, q=q, star_index=star,
                                      x0_value=-x0, subkind=DefectlessKind.ARTIN_SCHREIER,
                                      residue_char=q)
                for vp in (G.unit(0, 2), G.unit(1, 2)):   # v(zeta - 1) = vp/(q - 1)
                    yield DefectlessDatum(name="kummer", group=G, q=q, star_index=star,
                                          x0_value=x0, subkind=DefectlessKind.KUMMER_2A,
                                          residue_char=q, vp=vp)

    @staticmethod
    def candidates(boundary):
        G = boundary.group
        axes = [range(-2, 3) if k is Component.INT else
                [Fraction(n, G.prime) for n in range(-2 * G.prime, 2 * G.prime + 1)]
                for k in G.components]
        return [boundary + G.element(*offset) for offset in itertools.product(*axes)]

    def test_nonzero_modules_have_maximal_annihilators(self):
        cases = set()
        for datum in self.data():
            res = defectless_analyze(datum)
            pres = present(res)
            cases.add((datum.name, res.case, pres.is_zero))
            if pres.is_zero:
                assert pres.annihilator.values == element_cut(datum.group.zero())
                continue
            assert containment_holds(pres), datum
            outside = [g for g in self.candidates(pres.annihilator.values.shift)
                       if not contains(pres.annihilator.values, g)]
            assert outside and maximality_witness(pres, outside), datum
        # both cases of every kind, and a zero Kummer module, were reached
        assert {(name, case) for name, case, _ in cases} == set(itertools.product(
            ("tame", "as", "kummer"), (DefectlessCase.DL2B, DefectlessCase.DL2C)))
        assert ("kummer", DefectlessCase.DL2B, True) in cases


class TestPowerBuiltOnce:
    """A presentation keeps its denominator power, so a defect op calls
    scale_int once: the zero test and the containment check share it."""

    @staticmethod
    def defect_data():
        G = GroupDescriptor((Component.PDIV,), 2)
        base = FieldModel(name="declared", char=2, value_group=G)
        yield abhyankar_datum(2)   # independent: the module is zero
        yield abhyankar_datum(3)
        for gamma in (1, Fraction(3, 4)):   # dependent: a principal declared segment
            yield DefectDatum(name="dependent", kind=ExtensionKind.AS_DEFECT, base=base,
                              degree=2, declared_sigma=element_cut(G.element(gamma)),
                              synthetic=True)

    def test_a_defect_op_scales_once(self, monkeypatch):
        calls = []
        original = segment.scale_int
        monkeypatch.setattr(segment, "scale_int",
                            lambda s, m: calls.append(m) or original(s, m))
        kinds = set()
        for datum in self.defect_data():
            calls.clear()
            res = classify(datum)
            pres = present(res)
            assert containment_holds(pres)
            assert calls == [datum.degree]
            kinds.add(res.kind)
        assert kinds == set(DefectKind)

    def test_stored_power_on_every_form(self):
        results = [classify(datum) for datum in self.defect_data()]
        results += [defectless_analyze(datum) for datum in TestDiscreteClasses.data()]
        forms = set()
        for res in results:
            pres = present(res)
            assert pres.power == pres.numerator.power(pres.denominator_exponent)
            forms.add(pres.form)
        assert forms == set(PresentationForm)


class TestPresentAttachesTheAnnihilator:
    """`present` builds a presentation whole; `annihilate` returns it."""

    def test_annihilate_returns_the_presentation(self):
        results = [classify(datum) for datum in TestPowerBuiltOnce.defect_data()]
        results += [defectless_analyze(datum) for datum in TestDiscreteClasses.data()]
        for res in results:
            pres = present(res)
            assert annihilate(pres, res) is pres
            assert isinstance(pres.annihilator, IdealDescriptor)
            assert pres.to_json()["annihilator"] == segment.to_json(pres.annihilator.values)


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
# the configs whose goldens hold a nonzero IM/(IM)^p, a zero IM/(IM)^p and a
# true annihilator_is_max_ideal flag on M/M^q and on I/I^p
CONFIG_NAMES = ("defectless-as-wild-p3", "defectless-kummer-zero-p5",
                "defectless-tame-discrete-p5", "synthetic-dependent-int")


def random_results(rng, count):
    """Classified and analyzed extensions over random groups of rank 1-4:
    declared sigma segments, and defectless data of every subkind, tame
    and wild, with v(p) and v(eta - 1) positive and v(p) and v(zeta - 1) =
    v(p)/(q - 1) in vK, as p and zeta lie in K.  Data the constructors
    refuse are skipped."""
    def positive():
        x = random_group_element(rng, G)
        return x if x.sign() > 0 else G.unit(0) - x

    out = []
    while len(out) < count:
        G = random_group(rng)
        try:
            if rng.random() < 0.35:
                sigma = random_cut(rng, G)
                base = FieldModel(name="r", char=G.prime, value_group=G)
                out.append(classify(DefectDatum(
                    name="r", kind=ExtensionKind.AS_DEFECT, base=base, degree=G.prime,
                    declared_sigma=sigma, synthetic=True)))
                continue
            q = rng.choice((2, 3, 5))
            subkind = rng.choice(list(DefectlessKind))
            wild = subkind is not DefectlessKind.VALUE_ONLY and rng.random() < 0.8
            out.append(defectless_analyze(DefectlessDatum(
                name="r", group=G, q=q, star_index=rng.randrange(G.rank),
                x0_value=random_group_element(rng, G), subkind=subkind,
                residue_char=q if wild else rng.choice((0, 7)),
                vp=positive() * (q * (q - 1)), v_eta_minus_1=positive())))
        except ValcutsError:
            continue
    return out


def config_results():
    for name in CONFIG_NAMES:
        _, datum, depth = load_config(str(CONFIGS / f"{name}.json"))
        if isinstance(datum, DefectlessDatum):
            yield name, defectless_analyze(datum)
        else:
            yield name, classify(datum, depth=depth)


class TestColonMeetsTheClosedForms:
    """The annihilator is the colon (power : numerator) met with the ring,
    and the module is zero iff numerator = power, on every form.  The
    paper's closed forms (kaehler_oracles.closed_form) must agree wherever
    they apply: I^(p-1) or a*O(I) for defects, M^(q-1) for tame value
    extensions, (IM)^(q-1) or a^(q-1)*O(H) for wild ones."""

    def test_random_results(self):
        seen = set()
        for res in random_results(random.Random(3301), 1500) + [r for _, r in config_results()]:
            pres = present(res)
            is_zero, ann, is_max = closed_form(res)
            assert pres.is_zero is is_zero, res
            assert pres.annihilator == ann, res
            assert pres.annihilator_is_max_ideal is is_max, res
            assert containment_holds(pres), res
            seen.add((pres.form, pres.is_zero, pres.annihilator_is_max_ideal))
        assert seen >= {(form, False, False) for form in PresentationForm}
        assert seen >= {(form, True, False) for form in PresentationForm}
        assert seen >= {(PresentationForm.RAM_QUOTIENT, False, True),
                        (PresentationForm.MAX_QUOTIENT, False, True)}

    def test_the_annihilator_is_the_colon_met_with_the_ring(self):
        for res in random_results(random.Random(3302), 300):
            pres = present(res)
            ring = coarsening(pres.numerator.group, pres.numerator.group.rank)[1].values
            col = colon(pres.power.values, pres.numerator.values)
            assert pres.is_zero is (pres.numerator == pres.power)
            want = col if segment.is_subset(col, ring) else ring
            assert pres.annihilator.values == want
            # the colon of equal ideals holds the ring, so the shortcut agrees
            assert pres.is_zero <= segment.is_subset(ring, col)

    def test_configs_reach_the_forms_no_other_golden_holds(self):
        got = {name: present(res) for name, res in config_results()}
        assert {name: (p.form, p.is_zero, p.annihilator_is_max_ideal)
                for name, p in got.items()} == {
            "defectless-as-wild-p3": (PresentationForm.RAM_MAX_QUOTIENT, False, False),
            "defectless-kummer-zero-p5": (PresentationForm.RAM_MAX_QUOTIENT, True, False),
            "defectless-tame-discrete-p5": (PresentationForm.MAX_QUOTIENT, False, True),
            "synthetic-dependent-int": (PresentationForm.RAM_QUOTIENT, False, True),
        }
        for name, pres in got.items():
            if pres.is_zero:
                continue
            outside = [g for g in TestDiscreteClasses.candidates(pres.annihilator.values.shift)
                       if not contains(pres.annihilator.values, g)]
            assert containment_holds(pres) and outside, name
            assert maximality_witness(pres, outside), name


class TestColon:
    """colon(outer, inner) = {g : g + inner <= outer}, checked point by point."""

    @staticmethod
    def final_cut(rng, G):
        cut = random_cut(rng, G)
        return cut if cut.is_final else negate(cut)

    @staticmethod
    def offsets(G, values, dense_values, depth):
        """Offsets whose first `depth` coordinates run over `values`, or
        `dense_values` on a dense class, and whose other coordinates are 0."""
        axes = [dense_values if G.is_dense_at(i) else values for i in range(depth)]
        tail = [0] * (G.rank - depth)
        return [G.element(*head, *tail) for head in itertools.product(*axes)]

    def test_against_brute_force(self):
        # g + I <= J depends on g only through g - (d_J - d_I) and on the
        # first max(l_I, l_J) coordinates.  The probes g move by -1, 0, 1
        # there; the witnesses x of I move by finer steps up and by 2 down,
        # so a g outside the colon meets an x of I with g + x outside J
        rng = random.Random(3306)
        seen = {"member": 0, "outside": 0, "coset": 0, "open": 0}
        for _ in range(400):
            G = random_group(rng)
            inner, outer = self.final_cut(rng, G), self.final_cut(rng, G)
            col = colon(outer, inner)
            assert col.is_final and is_canonical(col)
            depth = max(inner.level, outer.level)
            fine = Fraction(1, G.prime)
            xs = [x for x in (inner.shift + o for o in
                              self.offsets(G, (-2, -1, 0, 1), (-2, -fine, 0, fine), depth))
                  if contains(inner, x)]
            d = outer.shift - inner.shift
            for delta in self.offsets(G, (-1, 0, 1), (-1, 0, 1), depth):
                g = d + delta
                want = all(contains(outer, g + x) for x in xs)
                assert contains(col, g) is want, (inner, outer, g)
                assert is_subset(shift(inner, g), outer) is want
                seen["member" if want else "outside"] += 1
                seen["coset"] += not any(delta.nums[:col.level])
            seen["open"] += not col.closed
        assert min(seen.values()) > 50, seen

    def test_colon_of_ideals_is_their_quotient(self):
        # (J : I) * I <= J, and the colon of an ideal by itself is its ring
        rng = random.Random(3307)
        for _ in range(300):
            G = random_group(rng)
            inner, outer = self.final_cut(rng, G), self.final_cut(rng, G)
            assert is_subset(segment.sum(colon(outer, inner), inner), outer)
            assert colon(inner, inner) == coarsening(G, inner.level)[1].values

    def test_rejects_initial_cuts_and_other_groups(self):
        G = GroupDescriptor((Component.PDIV,), 2)
        final = element_cut(G.element(1))
        for a, b in ((negate(final), final), (final, negate(final))):
            with pytest.raises(StructuralError, match="final"):
                colon(a, b)
        other = element_cut(GroupDescriptor((Component.PDIV,), 3).element(1))
        for a, b in ((final, other), (other, final)):
            with pytest.raises(StructuralError, match="different group"):
                colon(a, b)


class TestTheCoreReadsTheCut:
    """`present_quotient` reads N/N^q off the numerator's cut d + H: zero iff
    d = 0, annihilated by the closed cut at (q - 1)*d over H when d > 0 and
    by the ring otherwise.  The generic colon (N^q : N) met with the ring,
    and set equality decided by `is_subset` both ways, must agree on every
    canonical final cut."""

    def test_the_core_agrees_with_the_generic_colon(self):
        rng = random.Random(4301)
        seen = dict.fromkeys(("negative", "zero", "positive", "open", "closed", "discrete",
                              "flag"), 0)
        checks = 0
        while checks < 10_000:
            G = random_group(rng)
            cut = TestColon.final_cut(rng, G)
            if rng.random() < 0.25:
                cut = shift(cut, -cut.shift)
            num = IdealDescriptor(cut)
            ring, maximal = [x.values for x in coarsening(G, G.rank)[1:]]
            for q in (2, 3, 5, 7):
                pres = present_quotient(num, q, PresentationForm.RAM_QUOTIENT, "drawn")
                power = num.power(q)
                col = colon(power.values, cut)
                want = col if is_subset(col, ring) else ring
                assert pres.power == power and pres.numerator is num
                assert pres.is_zero is (num == power), (cut, q)
                assert pres.annihilator.values == want, (cut, q)
                is_max = is_subset(want, maximal) and is_subset(maximal, want)
                assert pres.annihilator_is_max_ideal is is_max, (cut, q)
                assert containment_holds(pres)
                checks += 1
                seen["flag"] += is_max
            seen[("negative", "zero", "positive")[cut.shift.sign() + 1]] += 1
            seen["closed" if cut.closed else "open"] += 1
            seen["discrete"] += G.components[cut.level - 1] is Component.INT
        assert min(seen.values()) >= 20, seen

    @staticmethod
    def counted_builds(monkeypatch) -> dict:
        """Counts of the GroupElements and Segments built from here on: a
        GroupElement through its constructor or `_from_fields`
        (`count_element_builds`), a Segment through its constructor or
        `_from_fields`."""
        counts = {"elements": 0, "segments": 0}
        negate(element_cut(GroupDescriptor((Component.INT,), 2).zero()))  # make _from_fields
        init, from_fields = Segment.__init__, Segment._from_fields.__func__

        def counting_element(element):
            counts["elements"] += 1

        def counting_init(self, *args):
            counts["segments"] += 1
            init(self, *args)

        def counting_from_fields(cls, *fields):
            counts["segments"] += 1
            return from_fields(cls, *fields)

        count_element_builds(monkeypatch, counting_element)
        monkeypatch.setattr(Segment, "__init__", counting_init)
        monkeypatch.setattr(Segment, "_from_fields", classmethod(counting_from_fields))
        return counts

    def test_one_presentation_builds_a_pinned_number_of_values(self, monkeypatch):
        # (elements, segments) per presentation, once the group's ring and
        # maximal ideal exist: the power is one of each, a nonzero annihilator
        # one more and the IM numerator one more; a numerator below the ring
        # is annihilated by the ring, and only its power is built
        G = GroupDescriptor((Component.PDIV,), 2)
        base = FieldModel(name="declared", char=2, value_group=G)
        dependent = DefectDatum(name="dependent", kind=ExtensionKind.AS_DEFECT, base=base,
                                degree=2, declared_sigma=element_cut(G.element(1)),
                                synthetic=True)
        G3 = GroupDescriptor((Component.PDIV,), 3)   # where q = 2 does not divide the class
        wild = DefectlessDatum(name="as", group=G3, q=2, star_index=0, x0_value=G3.element(-1),
                               subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=2)
        tame = DefectlessDatum(name="tame", group=G3, q=2, star_index=0, x0_value=G3.element(1))
        results = {"zero I/I^p": classify(abhyankar_datum(2)),
                   "nonzero I/I^p": classify(dependent),
                   "zero M/M^q": defectless_analyze(tame),
                   "nonzero IM/(IM)^p": defectless_analyze(wild)}
        below = IdealDescriptor(subgroup_cut(ConvexSubgroup(G, 1), G.element(-1)))
        builds = {name: (lambda res=res: present(res)) for name, res in results.items()}
        builds["numerator below the ring"] = lambda: present_quotient(
            below, 2, PresentationForm.RAM_QUOTIENT, "drawn")
        for build in builds.values():
            build()
        counts = self.counted_builds(monkeypatch)
        got = {}
        for name, build in builds.items():
            before = dict(counts)
            pres = build()
            got[name] = (pres.is_zero, counts["elements"] - before["elements"],
                         counts["segments"] - before["segments"])
        assert got == {"zero I/I^p": (True, 1, 1), "nonzero I/I^p": (False, 2, 2),
                       "zero M/M^q": (True, 1, 1), "nonzero IM/(IM)^p": (False, 3, 3),
                       "numerator below the ring": (False, 1, 1)}


class TestOneClassificationBuildsAPinnedNumberOfValues:
    """The GroupElements and Segments one `classify` or `defectless_analyze`
    builds, counted as `TestTheCoreReadsTheCut` counts them: on the first
    call over a group, which fills the level it reads (H_k, O(H_k), M_k),
    and on a second call, which reads that level and builds none of it."""

    def test_first_and_second_calls(self, monkeypatch):
        G = GroupDescriptor((Component.PDIV, Component.INT), 2)
        declared = DefectDatum(name="dependent", kind=ExtensionKind.AS_DEFECT,
                               base=FieldModel(name="declared", char=2, value_group=G),
                               degree=2, declared_sigma=element_cut(G.element(1, 0)),
                               synthetic=True)
        M = GroupDescriptor((Component.PDIV,), 3)
        schedule = DefectDatum(name="mixed", kind=ExtensionKind.KUMMER_DEFECT,
                               base=FieldModel(name="Qp-style", char=0, residue_char=3,
                                               value_group=M, vp=M.element(1)),
                               degree=3, generator=DeclaredSchedule(M, M.zero(), M.element(1)))
        W = GroupDescriptor((Component.PDIV, Component.INT), 3)
        wild = DefectlessDatum(name="as", group=W, q=2, star_index=1, x0_value=W.element(0, -1),
                               subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=2)
        calls = {"declared sigma": (G, lambda: classify(declared)),
                 "schedule, depth 12": (M, lambda: classify(schedule, 12)),
                 "schedule, depth 24": (M, lambda: classify(schedule, 24)),
                 "defectless": (W, lambda: defectless_analyze(wild))}
        counts = TestTheCoreReadsTheCut.counted_builds(monkeypatch)
        got = {}
        for name, (group, call) in calls.items():
            for turn in ("first", "second"):
                table = dict(getattr(group, "_levels", {}))
                before = dict(counts)
                call()
                got[name, turn] = (counts["elements"] - before["elements"],
                                   counts["segments"] - before["segments"])
            # the second call found its level built and left the table as it was
            assert group._levels.keys() == table.keys()
            assert all(group._levels[k] is entry for k, entry in table.items())
        # a level over an int class (the declared sigma's H_2, the defectless
        # H_E) builds the unit its M_k shifts to and two cuts, over a dense
        # one two cuts; a schedule builds depth + 1 elements and two cuts
        assert got == {("declared sigma", "first"): (1, 2), ("declared sigma", "second"): (0, 0),
                       ("schedule, depth 12", "first"): (13, 4),
                       ("schedule, depth 12", "second"): (13, 2),
                       ("schedule, depth 24", "first"): (25, 2),
                       ("schedule, depth 24", "second"): (25, 2),
                       ("defectless", "first"): (3, 3), ("defectless", "second"): (1, 1)}


class TestCheckAndWitnessPathsBuildPinnedCounts:
    """The GroupElements and Segments built, counted as `TestTheCoreReadsTheCut`
    counts them, by one `containment_holds` and by one rank-8 `verify`."""

    def test_one_containment_check_per_form(self, monkeypatch):
        # the sum of ann and the numerator is one element and one cut, wrapped
        # as it is built; is_subset builds nothing
        results = [classify(datum) for datum in TestPowerBuiltOnce.defect_data()]
        results += [defectless_analyze(datum) for datum in TestDiscreteClasses.data()]
        forms = {}
        for res in results:
            pres = present(res)
            forms.setdefault((pres.form, pres.is_zero), pres)
        assert len(forms) == 2 * len(PresentationForm)
        counts = TestTheCoreReadsTheCut.counted_builds(monkeypatch)
        for key, pres in forms.items():
            before = dict(counts)
            assert containment_holds(pres)
            assert (counts["elements"] - before["elements"],
                    counts["segments"] - before["segments"]) == (1, 1), key

    def test_a_rank8_verify_is_affine_in_depth(self, monkeypatch):
        # each of the 8 witnesses builds one schedule value per unit of depth
        # and four cuts at every depth; the approach cut negates nothing
        plans = {depth: build(8, range(1, 9), 7) for depth in (12, 18, 24)}
        counts = TestTheCoreReadsTheCut.counted_builds(monkeypatch)
        got = {}
        for depth, plan in plans.items():
            before = dict(counts)
            assert verify(plan, depth).passed
            got[depth] = (counts["elements"] - before["elements"],
                          counts["segments"] - before["segments"])
        assert got == {12: (120, 32), 18: (168, 32), 24: (216, 32)}
