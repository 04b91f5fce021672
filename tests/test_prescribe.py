"""Construction plans and their verification."""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest

from valcuts.errors import InvalidSelectionError
from valcuts.extension import classify
from valcuts.formlang import DEFINITIONS, Truth, evaluate, membership, value_set
from valcuts.gpsfield import PatternSeries, Tail
from valcuts.ogroup import Component, ConvexSubgroup, GroupDescriptor, GroupElement
from valcuts.prescribe import CharCase, VerificationReport, build, verify
from valcuts.scenarios import SCENARIOS, _generator_fmodel
from valcuts.segment import coarsening, contains

from conftest import is_subprincipal_subgroup, rebuilt


class TestBuild:
    def test_rank1_full_selection_is_abhyankar_shape(self):
        plan = build(1, {1}, 2)
        assert len(plan.witnesses) == 1 and not plan.exclusions
        w = plan.witnesses[0]
        assert w.kind == "pattern" and w.level == 1

    def test_rank2_full_selection(self):
        plan = build(2, {1, 2}, 3)
        assert sorted(w.level for w in plan.witnesses) == [1, 2]
        assert not plan.exclusions

    def test_rank2_partial_selection_records_exclusion(self):
        plan = build(2, {2}, 3)
        assert [w.level for w in plan.witnesses] == [2]
        assert [e.level for e in plan.exclusions] == [1]
        assert "tame" in plan.exclusions[0].note

    def test_invalid_level_rejected(self):
        with pytest.raises(InvalidSelectionError):
            build(2, {0}, 2)
        with pytest.raises(InvalidSelectionError):
            build(2, {3}, 2)
        with pytest.raises(InvalidSelectionError):
            build(0, set(), 2)

    def test_built_groups_have_no_discrete_component(self):
        for n in (1, 2, 3):
            plan = build(n, set(range(1, n + 1)), 2)
            assert all(k.value == "pdiv" for k in plan.group.components)


class TestVerify:
    def test_rank2_full_selection_passes(self):
        report = verify(build(2, {1, 2}, 2), depth=12)
        assert report.passed
        by_level = {w.level: w for w in report.witnesses}
        assert by_level[1].found_level == 1
        assert by_level[2].found_level == 2
        assert all(w.identity_checked for w in report.witnesses)

    def test_a_witness_that_is_not_a_root_is_reported_unchecked(self):
        # theta^p - theta - 1/t != 0 for twice the root, a later start or a
        # spare finite term; the classification still lands on the level
        plan = build(2, {1, 2}, 3)
        m = plan.model
        for change in ("coefficient", "start", "finite"):
            witnesses = []
            for w in plan.witnesses:
                (tail,) = w.datum.generator.tails
                if change == "coefficient":
                    theta = PatternSeries(m, m.zero(), (Tail(m.residue.element(2), tail.gamma,
                                                             tail.start),))
                elif change == "start":
                    theta = PatternSeries(m, m.zero(), (Tail(tail.coeff, tail.gamma, 2),))
                else:
                    theta = w.datum.generator + m.monomial(1, plan.group.unit(1))
                witnesses.append(rebuilt(w, datum=rebuilt(w.datum, generator=theta)))
            report = verify(rebuilt(plan, witnesses=tuple(witnesses)), depth=8)
            assert [w.identity_checked for w in report.witnesses] == [False, False], change
            assert all(w["identity_checked"] is False
                       for w in report.to_json()["witnesses"]), change
        assert all(w.identity_checked for w in verify(plan, depth=8).witnesses)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_pattern_witness_is_a_root(self, p):
        # at p = 2 the coefficients +1 and -1 of theta^p - theta coincide
        report = verify(build(3, {1, 2, 3}, p), depth=8)
        assert [w.identity_checked for w in report.witnesses] == [True] * 3

    def test_empty_selection_reports_only_exclusions(self):
        report = verify(build(3, set(), 3), depth=6)
        assert report.passed
        assert not report.witnesses
        assert [e.level for e in report.exclusions] == [1, 2, 3]
        data = report.to_json()
        assert all(e["status"] == "DECLARED" for e in data["exclusions"])

    def test_mixed_rank1_schedule(self):
        report = verify(build(1, {1}, 5, CharCase.MIXED), depth=10)
        assert report.passed
        w = report.witnesses[0]
        from fractions import Fraction

        assert w.schedule[0].coords == (Fraction(-1, 5),)
        assert w.schedule[1].coords == (Fraction(-1, 25),)

    def test_mixed_rank2_levels(self):
        report = verify(build(2, {1, 2}, 3, CharCase.MIXED), depth=8)
        assert report.passed
        assert {w.level for w in report.witnesses} == {1, 2}

    def test_exhaustive_small_ranks(self):
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n):
                J = {j + 1 for j, b in enumerate(bits) if b}
                report = verify(build(n, J, 2), depth=8)
                assert report.passed
                assert {w.level for w in report.witnesses} == J

    def test_schedule_values_live_in_approach_segment(self):
        plan = build(2, {1}, 2)
        report = verify(plan, depth=8)
        res_schedule = report.witnesses[0].schedule
        from valcuts.extension import sigma_segment

        sigma, approach = sigma_segment(plan.witnesses[0].datum, depth=8)
        for v in res_schedule:
            assert contains(approach.segment, v)

    def test_chain_bijection_reverses_order(self):
        plan = build(4, {1, 4}, 3)
        pairs = plan.chain_bijection()
        assert pairs == ((0, 1), (1, 2), (2, 3), (3, 4))
        report = verify(plan, depth=6).to_json()
        assert report["chain_order_isomorphic"] and report["no_discrete_component"]
        # what the report asserts by construction
        assert all(is_subprincipal_subgroup(ConvexSubgroup(plan.group, level))
                   for _, level in pairs)
        assert Component.INT not in plan.group.components


class TestTheWitnessIdentity:
    def test_every_pattern_witness_checks_its_identity(self):
        # theta^p - theta - 1/t, a finite series (PatternSeries.artin_schreier)
        for n, p in itertools.product(range(1, 7), (2, 3, 5, 7)):
            report = verify(build(n, range(1, n + 1), p), depth=6)
            assert report.passed and len(report.witnesses) == n
            assert all(w.identity_checked for w in report.witnesses), (n, p)


class TestOnlyWrittenCertificatesAreFormatted:
    """Classification formats no certificate: a report formats what it writes."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        calls = []
        original = GroupElement.coord_strings

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(GroupElement, "coord_strings", counting)
        return calls

    def test_verify_formats_nothing_until_written(self, formatted):
        report = verify(build(3, [1, 2, 3], 3), depth=8)
        assert not formatted
        data = report.to_json()
        assert len(formatted) == 24   # three witnesses, eight schedule values each

        def unit(j, value):   # value at coordinate j of the rank-3 group
            return ["0"] * j + [value] + ["0"] * (2 - j)

        assert [(w["level"], w["schedule"]) for w in data["witnesses"]] == [
            (j + 1, [unit(j, f"-1/{3 ** (k + 1)}") for k in range(8)]) for j in range(3)]

    def test_schedules_of_unequal_length_are_written_whole(self, formatted):
        # to_json walks the schedules index by index; a shorter one ends early
        report = verify(build(3, [1, 2, 3], 3), depth=8)
        for lengths in ((0, 3, 8), (8, 0, 1), (2, 2, 0), (0, 0, 0)):
            witnesses = tuple(rebuilt(w, schedule=w.schedule[:n])
                              for w, n in zip(report.witnesses, lengths))
            data = VerificationReport(report.plan, witnesses, report.exclusions).to_json()
            assert [w["schedule"] for w in data["witnesses"]] == [
                [v.coord_strings() for v in w.schedule] for w in witnesses]
            assert [len(w["schedule"]) for w in data["witnesses"]] == list(lengths)
        data = VerificationReport(report.plan, (), report.exclusions).to_json()
        assert data["witnesses"] == [] and data["chain_order_isomorphic"] is True

    def test_scenario_builds_format_nothing(self, formatted):
        for name, scenario in SCENARIOS.items():
            scenario(3 if name in ("abhyankar", "kummer-mixed") else 2, depth=20)
        assert not formatted


class TestFailureSurface:
    def test_failure_carries_report(self):
        # a witness aimed at the wrong level fails, and the report says where
        plan = build(2, {1}, 2)
        bad_witness = plan.witnesses[0]
        object.__setattr__(bad_witness, "level", 2)
        report = verify(plan, depth=6)
        assert not report.passed
        (w,) = report.witnesses
        assert (w.level, w.found_level, w.passed) == (2, 1, False)
        data = report.to_json()
        assert (data["passed"], data["chain_order_isomorphic"]) == (False, False)
        assert data["no_discrete_component"] is True

    def test_a_discrete_class_in_the_plan_group_is_reported(self):
        # the flag reads the plan's group: a plan over an int class says so
        plan = build(2, {1, 2}, 3)
        report = verify(plan, depth=4)
        assert report.to_json()["no_discrete_component"] is True
        for components in ((Component.INT, Component.PDIV), (Component.PDIV, Component.INT)):
            discrete = rebuilt(plan, group=GroupDescriptor(components, 3))
            data = VerificationReport(discrete, report.witnesses, report.exclusions).to_json()
            assert (data["no_discrete_component"], data["chain_order_isomorphic"]) == (
                False, True)


class TestPrescribedSubgroupsAreDefinable:
    """In equal characteristic every witness's coarsening O(H_j), its maximal
    ideal and its ramification ideal compile to their value sets.

    A witness depends only on (n, j, p), so the full selections 1..n cover
    every witness for n <= 6; all 84 compile.  Mixed-characteristic plans
    (value-only carriers) are not covered here.
    """

    def test_every_witness_compiles_to_its_objects(self):
        checked = 0
        for p in (2, 3, 5, 7):
            for n in range(1, 7):
                plan = build(n, range(1, n + 1), p)
                for w in plan.witnesses:
                    res = classify(w.datum)
                    fm = _generator_fmodel(plan.model, res, {})
                    for name, want in (
                            ("coarse-ring-as", coarsening(plan.group, w.level)[1].values),
                            ("ram-ideal-as", res.ram_ideal.values),
                            ("max-ideal", res.max_ideal.values)):
                        compiled = value_set(DEFINITIONS[name], fm)
                        assert compiled is not None, (p, n, w.level, name)
                        assert compiled == want, (p, n, w.level, name)
                    checked += 1
        assert checked == 84

    def test_boundary_samples_evaluate_to_membership(self):
        # b = t^e with the leading nonzero coordinate of e at index j - 1, just
        # outside H_j, or at index j, inside H_j \ H_{j+1}, at +-1/p^d: each
        # sample is evaluated pointwise and compared with direct membership
        start = time.perf_counter()
        samples = decided = 0
        for p in (2, 3, 5, 7):
            for n in range(1, 7):
                plan = build(n, range(1, n + 1), p)
                for w in plan.witnesses:
                    res = classify(w.datum)
                    fm = _generator_fmodel(plan.model, res, {})
                    direct = {"coarse-ring-as": ConvexSubgroup(plan.group, w.level),
                              "ram-ideal-as": res.ram_ideal, "max-ideal": res.max_ideal}
                    for i in range(w.level - 1, min(w.level, n - 1) + 1):
                        for d, sign in itertools.product(range(3), (1, -1)):
                            e = plan.group.unit(i, sign) * Fraction(1, p**d)
                            b = plan.model.monomial(1, e)
                            for name, want in direct.items():
                                got = evaluate(DEFINITIONS[name], fm, bindings={"b": b})
                                samples += 1
                                if got.value is Truth.UNKNOWN:
                                    continue
                                assert (got.value is Truth.TRUE) == membership(want, e), (
                                    p, n, w.level, name, e)
                                decided += got.mode == "oracle"
        assert time.perf_counter() - start < 10
        assert (samples, decided) == (2592, 2592)
