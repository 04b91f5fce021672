"""Acceptance suite: one test per criterion, exact tolerances, time budgets.

Each test prints a single [PASS]/[FAIL] line (visible with -v or -s); all
comparisons are exact descriptor or rational equalities, never approximate.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from valcuts import segment as sg
from valcuts.extension import (
    DeclaredSchedule,
    DefectDatum,
    DefectKind,
    DefectlessDatum,
    DefectlessKind,
    ExtensionKind,
    classify,
    defectless_analyze,
)
from valcuts.formlang import DEFINITIONS, check_definition
from valcuts.gpsfield import FieldModel, approach_segment, val_diff
from valcuts.kaehler import containment_holds, present
from valcuts.ogroup import Component, ConvexSubgroup, GroupDescriptor
from valcuts.prescribe import CharCase, build, verify
from valcuts.scenarios import (
    abhyankar,
    example_e1,
    kummer_mixed,
    samples_for,
)
from valcuts.segment import (
    Direction,
    IdealDescriptor,
    contains,
    element_cut,
    invariance_group,
    invariance_ring,
    negate,
    normalize,
    shift,
    subgroup_cut,
)

from conftest import grid_points, is_trivial_subgroup, shifted_ideal
from kaehler_oracles import maximality_witness


class _Clock:
    def __init__(self, budget: float, label: str):
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s / budget {self.budget:.0f}s)")
        assert elapsed < self.budget, f"{self.label} exceeded its time budget"
        return False


def test_criterion_1_schedule_values_exact():
    with _Clock(1.0, "criterion 1: wild schedule values -1/p^(k+1), p in {2,3,5}, k <= 20"):
        for p in (2, 3, 5):
            sc = abhyankar(p)
            theta = sc.fmodel.immediates[0].carrier
            g = sc.model.value_group
            for k in range(1, 21):
                b_k = theta.partial_sum(k)
                assert val_diff(theta, b_k) == g.element(Fraction(-1, p ** (k + 1)))


def test_criterion_2_rank1_classification():
    with _Clock(1.0, "criterion 2: rank-1 classification, zero module, full-ring annihilator"):
        for p in (2, 3, 5):
            sc = abhyankar(p)
            res = sc.result("theta")
            g = sc.model.value_group
            approach = approach_segment(sc.fmodel.immediates[0].carrier, sc.model)
            negative_cone = normalize(element_cut(g.zero(), closed=False,
                                                  direction=Direction.INITIAL))
            assert approach.segment == negative_cone
            assert is_trivial_subgroup(res.H_E)
            assert res.kind is DefectKind.INDEPENDENT
            pres = present(res)
            assert pres.is_zero
            assert pres.annihilator.values == element_cut(g.zero())


def test_criterion_3_rank2_composite_levels():
    with _Clock(5.0, "criterion 3: rank-2 witnesses land on levels 1 and 2 (trivial)"):
        sc = example_e1(2, depth=12)
        rx = sc.result("theta_x")
        rt = sc.result("theta_t")
        assert rx.H_E.level == 1 and rx.kind is DefectKind.INDEPENDENT
        assert is_trivial_subgroup(rt.H_E) and rt.kind is DefectKind.INDEPENDENT
        assert rx.certificate["truncation_depth"] == 12


def test_criterion_4_mixed_characteristic_schedule():
    with _Clock(1.0, "criterion 4: mixed schedule -vp/p^(i+1), i <= 20, trivial subgroup"):
        for p in (2, 5):
            plan = build(1, {1}, p, CharCase.MIXED)
            datum = plan.witnesses[0].datum
            sched = datum.generator
            vp = plan.model.vp
            values = DeclaredSchedule(sched.group, sched.limit, sched.scale,
                                      start=1).approach(20).schedule
            for i in range(1, 21):
                assert values[i - 1] == vp * Fraction(-1, p ** (i + 1))
            res = classify(datum, depth=12)
            assert is_trivial_subgroup(res.H_E) and res.kind is DefectKind.INDEPENDENT
        sc = kummer_mixed(3)
        res = sc.result("eta")
        assert is_trivial_subgroup(res.H_E) and res.kind is DefectKind.INDEPENDENT


def test_criterion_5_prescribe_exhaustive():
    with _Clock(60.0, "criterion 5: all selections realized for n <= 4, p in {2,3}, depth 10"):
        for p in (2, 3):
            for n in range(1, 5):
                for bits in itertools.product((0, 1), repeat=n):
                    J = {j + 1 for j, b in enumerate(bits) if b}
                    report = verify(build(n, J, p), depth=10)
                    assert report.passed
                    assert {w.level for w in report.witnesses} == J
                    rep = report.to_json()
                    assert rep["chain_order_isomorphic"] and rep["no_discrete_component"]
                    pairs = report.plan.chain_bijection()
                    assert [i for i, _ in pairs] == list(range(n))
                    assert [lv for _, lv in pairs] == list(range(1, n + 1))


def _random_element(rng, group, depth=3, bound=4):
    coords = []
    for kind in group.components:
        den = 1 if kind is Component.INT else group.prime ** rng.randint(0, depth)
        coords.append(Fraction(rng.randint(-bound * den, bound * den), den))
    return group.element(*coords)


def _random_final(rng, group):
    gamma = _random_element(rng, group, depth=2, bound=2)
    if rng.random() < 0.4:
        return element_cut(gamma, closed=rng.random() < 0.7)
    level = rng.randint(1, group.rank)
    return subgroup_cut(ConvexSubgroup(group, level), shift=gamma,
                        closed=rng.random() < 0.3)


def test_criterion_6_segment_property_suite():
    with _Clock(30.0, "criterion 6: 10^4 randomized segment checks + grid oracle"):
        group = GroupDescriptor((Component.PDIV, Component.PDIV), 2)
        rng = random.Random(2026)
        checks = 0

        for _ in range(2500):
            s = _random_final(rng, group)
            gamma = _random_element(rng, group)
            h = invariance_group(s)
            assert invariance_group(shift(s, gamma)) == h
            assert invariance_group(negate(s)) == h
            checks += 2

        pts = [group.element(Fraction(a, 4), Fraction(b, 4))
               for a in range(-8, 9, 3) for b in range(-8, 9, 3)]
        for _ in range(1000):
            s = _random_final(rng, group)
            canon = normalize(s)
            assert normalize(canon) == canon
            x = rng.choice(pts)
            assert contains(s, x) == contains(canon, x)
            checks += 2

        for _ in range(1500):
            ideal = IdealDescriptor(_random_final(rng, group))
            gamma = _random_element(rng, group)
            h1, m1 = invariance_ring(ideal)
            h2, m2 = invariance_ring(shifted_ideal(ideal, gamma))
            assert h1 == h2 and m1.same_values(m2)
            checks += 1

        for _ in range(1500):
            s1, s2, s3 = (_random_final(rng, group) for _ in range(3))
            assert sg.sum(s1, s2) == sg.sum(s2, s1)
            assert sg.sum(sg.sum(s1, s2), s3) == sg.sum(s1, sg.sum(s2, s3))
            checks += 2

        # brute-force oracle on the stated grid (1/p^3)Z^2 within [-4, 4]^2;
        # probe points stay within [-1, 1]^2 so sum witnesses fit inside the
        # lattice, and the witness lattice is one denominator step finer so
        # every same-level split of a probe point has an on-lattice witness.
        # The sumset is searched on coordinates scaled by p^4 to integers
        grid = list(grid_points(group, 4, 3))
        window = [x for x in grid if all(abs(c) <= 1 for c in x.coords)]
        fine = list(grid_points(group, 4, 4))
        fine_wide = list(grid_points(group, 5, 4))

        def scaled(x):
            return tuple(n * (2**4 // x.den) for n in x.nums)

        for _ in range(8):
            s1 = normalize(_random_final(rng, group))
            s2 = normalize(_random_final(rng, group))
            set1 = [scaled(x) for x in fine if contains(s1, x)]
            set2 = frozenset(scaled(x) for x in fine_wide if contains(s2, x))
            total = sg.sum(s1, s2)
            # closedness shows only on the sum's boundary coset, which seldom
            # meets the window: probe its grid points whose other coordinates
            # stay within [-1, 1].  A witness pair sits on the operands'
            # boundary cosets, whose coordinates lie within [-2, 2], so it is
            # on the witness lattices too
            level = total.level
            boundary = [x for x in grid if x.coords[:level] == total.shift.coords[:level]
                        and all(abs(c) <= 1 for c in x.coords[level:])]
            for u in rng.sample(window, 30) + boundary:
                u0, u1 = scaled(u)
                witnessed = any((u0 - a0, u1 - a1) in set2 for a0, a1 in set1)
                assert contains(total, u) == witnessed
                checks += 1
            g0 = rng.choice(window)
            translated = shift(s1, g0)
            for u in rng.sample(window, 25):
                assert contains(translated, u) == contains(s1, u - g0)
                checks += 1

        assert checks >= 10_000
        print(f"  segment checks performed: {checks}")


def test_criterion_7_definability_agreement():
    with _Clock(30.0, "criterion 7: five definitions, >=50 samples, no disagreements"):
        jobs = []
        sc_a = abhyankar(2)
        res_a = sc_a.result("theta")
        jobs.append(("ram-ideal-as", sc_a, res_a.ram_ideal))
        jobs.append(("coarse-ring-as", sc_a, res_a.H_E))
        sc_e1 = example_e1(2)
        jobs.append(("max-ideal", sc_e1, sc_e1.result("theta_x").max_ideal))
        sc_k = kummer_mixed(3)
        res_k = sc_k.result("eta")
        jobs.append(("ram-ideal-kummer", sc_k, res_k.ram_ideal))
        jobs.append(("coarse-ring-kummer", sc_k, res_k.H_E))
        for name, sc, direct in jobs:
            rep = check_definition(DEFINITIONS[name], direct, sc.fmodel,
                                   samples_for(sc, 50, seed=7), name=name)
            assert rep.total >= 50
            assert not rep.disagreements, f"{name}: {rep.disagreements}"
            assert rep.unknown_rate <= 0.20
            print(f"  {name}: {rep.agreements}/{rep.total} agree, "
                  f"unknown rate {rep.unknown_rate:.0%}")


def _probe_candidates(ann_values, depth=3, spread=3):
    group = ann_values.group
    p = group.prime
    out = []
    base, cls = ann_values.shift, ann_values.level - 1
    for d in range(depth + 1):
        if group.is_dense_at(cls):
            step = group.unit(cls, Fraction(1, p**d))
        else:
            step = group.unit(cls, 1)
        for k in range(1, spread):
            out.append(base - step * k)
    return out


def test_criterion_8_kaehler_annihilator_suite():
    with _Clock(10.0, "criterion 8: zero modules iff independent; annihilators maximal"):
        # every constructed defect instance: zero exactly when independent
        instances = []
        for p in (2, 3, 5):
            instances.append(abhyankar(p).result("theta"))
        e1 = example_e1(2)
        instances.extend([e1.result("theta_x"), e1.result("theta_t")])
        instances.extend(kummer_mixed(3).results)
        for res in instances:
            pres = present(res)
            assert res.kind is DefectKind.INDEPENDENT
            assert pres.is_zero
            assert pres.annihilator.values == element_cut(res.group.zero())
            assert containment_holds(pres)

        # synthetic dependent instances
        G1 = GroupDescriptor((Component.PDIV,), 2)
        base1 = FieldModel(name="syn", char=2, value_group=G1)
        G2 = GroupDescriptor((Component.PDIV, Component.PDIV), 3)
        base2 = FieldModel(name="syn2", char=3, value_group=G2)
        synthetic = [
            DefectDatum(name="dep_principal", kind=ExtensionKind.AS_DEFECT,
                        base=base1, degree=2,
                        declared_sigma=element_cut(G1.element(1)), synthetic=True),
            DefectDatum(name="dep_shifted_point", kind=ExtensionKind.AS_DEFECT,
                        base=base1, degree=2,
                        declared_sigma=subgroup_cut(ConvexSubgroup(G1, 1),
                                                    shift=G1.element(2)),
                        synthetic=True),
            DefectDatum(name="dep_shifted_subgroup", kind=ExtensionKind.AS_DEFECT,
                        base=base2, degree=3,
                        declared_sigma=subgroup_cut(ConvexSubgroup(G2, 2),
                                                    shift=G2.element(1, 0)),
                        synthetic=True),
        ]
        for datum in synthetic:
            res = classify(datum)
            assert res.kind is DefectKind.DEPENDENT
            pres = present(res)
            assert not pres.is_zero
            assert containment_holds(pres)
            assert maximality_witness(pres, _probe_candidates(pres.annihilator.values))

        # defectless instances across both annihilator branches
        defectless = [
            DefectlessDatum(name="as_dense", group=GroupDescriptor((Component.PDIV,), 3),
                            q=2, star_index=0,
                            x0_value=GroupDescriptor((Component.PDIV,), 3).element(-1),
                            subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=2),
            DefectlessDatum(name="as_discrete", group=GroupDescriptor((Component.INT,), 3),
                            q=3, star_index=0,
                            x0_value=GroupDescriptor((Component.INT,), 3).element(-1),
                            subkind=DefectlessKind.ARTIN_SCHREIER, residue_char=3),
            DefectlessDatum(name="tame_discrete", group=GroupDescriptor((Component.INT,), 3),
                            q=2, star_index=0,
                            x0_value=GroupDescriptor((Component.INT,), 3).element(1)),
            DefectlessDatum(name="kummer_value", group=GroupDescriptor((Component.PDIV,), 2),
                            q=3, star_index=0,
                            x0_value=GroupDescriptor((Component.PDIV,), 2).element(1),
                            subkind=DefectlessKind.KUMMER_2A, residue_char=3,
                            vp=GroupDescriptor((Component.PDIV,), 2).element(6)),
            DefectlessDatum(name="kummer_one_unit",
                            group=GroupDescriptor((Component.PDIV,), 2),
                            q=3, star_index=0,
                            x0_value=GroupDescriptor((Component.PDIV,), 2).element(1),
                            subkind=DefectlessKind.KUMMER_2B, residue_char=3,
                            vp=GroupDescriptor((Component.PDIV,), 2).element(6),
                            v_eta_minus_1=GroupDescriptor((Component.PDIV,), 2).element(1)),
        ]
        for datum in defectless:
            res = defectless_analyze(datum)
            pres = present(res)
            assert containment_holds(pres)
            if not pres.is_zero:
                assert maximality_witness(pres,
                                          _probe_candidates(pres.annihilator.values))

        # a tame dense instance has a zero module with full-ring annihilator
        tame = DefectlessDatum(name="tame_dense",
                               group=GroupDescriptor((Component.PDIV,), 3), q=2,
                               star_index=0,
                               x0_value=GroupDescriptor((Component.PDIV,), 3).element(1))
        res = defectless_analyze(tame)
        pres = present(res)
        assert pres.is_zero
        assert pres.annihilator.values == element_cut(tame.group.zero())


def test_criterion_9_cli_determinism(tmp_path):
    with _Clock(60.0, "criterion 9: golden CLI runs byte-stable across 3 invocations"):
        from valcuts.cli import main

        golden_runs = [
            ["abhyankar", "--p", "3", "--depth", "15"],
            ["example-e1", "--p", "2", "--depth", "12"],
            ["example-e2", "--p", "2", "--depth", "12"],
        ]
        for args in golden_runs:
            blobs = set()
            for i in range(3):
                out = tmp_path / f"{args[0]}_{i}.json"
                assert main(args + ["--out", str(out)]) == 0
                blobs.add(out.read_bytes())
            assert len(blobs) == 1
            # and the committed golden matches semantically
            name = {"abhyankar": "abhyankar_p3_d15.json",
                    "example-e1": "example_e1_p2_d12.json",
                    "example-e2": "example_e2_p2_d12.json"}[args[0]]
            import pathlib

            golden = json.loads((pathlib.Path(__file__).parent / "goldens" / name)
                                .read_text())
            assert json.loads(out.read_text()) == golden
