"""Shared fixtures and brute-force oracles used across the suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

import jsonschema
import pytest

from valcuts import cli, scenarios
from valcuts.errors import StructuralError
from valcuts.ogroup import Component, GroupDescriptor, GroupElement

# Built once: jsonschema.validate would re-check the schema itself on every call.
_REPORT_VALIDATOR = jsonschema.Draft202012Validator(cli.REPORT_SCHEMA)


@pytest.fixture(scope="session")
def report_validator() -> jsonschema.Draft202012Validator:
    return _REPORT_VALIDATOR


@pytest.fixture(autouse=True)
def _reports_match_schema(monkeypatch):
    """Every report a test emits through cli.main is checked against REPORT_SCHEMA.

    The CLI does not validate the reports it builds; this is where they are
    checked, before they are written.
    """
    emit = cli._emit

    def checked_emit(report, out):
        _REPORT_VALIDATOR.validate(report)
        emit(report, out)

    monkeypatch.setattr(cli, "_emit", checked_emit)


@pytest.fixture
def pdiv2_rank2() -> GroupDescriptor:
    return GroupDescriptor((Component.PDIV, Component.PDIV), 2)


@pytest.fixture
def pdiv3_rank1() -> GroupDescriptor:
    return GroupDescriptor((Component.PDIV,), 3)


def grid_points(group: GroupDescriptor, bound: int, depth: int):
    """All group elements with |coords| <= bound and denominators p^depth."""
    p = group.prime
    axes = []
    for kind in group.components:
        den = 1 if kind is Component.INT else p**depth
        step = Fraction(1, den)
        axes.append([step * k for k in range(-bound * den, bound * den + 1)])
    for coords in itertools.product(*axes):
        yield group.element(*coords)


def random_group(rng, max_rank: int = 4) -> GroupDescriptor:
    """Rank 1 to max_rank, each class int, pdiv or rat, over p in {2, 3, 5}."""
    return GroupDescriptor(tuple(rng.choice(list(Component))
                                 for _ in range(rng.randint(1, max_rank))),
                           rng.choice((2, 3, 5)))


def random_group_element(rng, group: GroupDescriptor, bound: int = 3):
    coords = []
    for kind in group.components:
        den = {Component.INT: 1, Component.PDIV: group.prime ** rng.randint(0, 2),
               Component.RAT: rng.randint(1, 6)}[kind]
        coords.append(Fraction(rng.randint(-bound * den, bound * den), den))
    return group.element(*coords)


def random_cut(rng, group: GroupDescriptor):
    """A cut through the constructor: an element or subgroup cut, open or
    closed, initial or final, its shift often nonzero inside H."""
    from valcuts.segment import Direction, Segment

    level = group.rank if rng.random() < 0.4 else rng.randint(1, group.rank)
    return Segment(rng.choice(list(Direction)), level, random_group_element(rng, group),
                   rng.random() < 0.5)


def is_canonical(seg) -> bool:
    """Closed or over a dense cut class, and no shift coordinate inside H."""
    return ((seg.closed or seg.group.is_dense_at(seg.level - 1))
            and not any(seg.shift.nums[seg.level:]))


def segment_set(seg, points):
    from valcuts.segment import contains

    return frozenset(x for x in points if contains(seg, x))


# Order and subgroup predicates the tests read and the library does not use.

def compare(a, b) -> int:
    """The total lexicographic order: the sign of the leading nonzero
    coordinate of a - b.  Elements of different groups raise, as a - b does."""
    return (a - b).sign()


def is_principal_subgroup(H) -> bool:
    """Whether H is the smallest convex subgroup containing some element:
    the one of the unit at index H.level, so every H but the trivial one."""
    return H.level <= H.group.rank - 1


def is_subprincipal_subgroup(H) -> bool:
    """Whether H is the largest convex subgroup avoiding some element: the
    unit at index H.level - 1, which the next coarser level holds, so every
    H but the whole group."""
    if H.level == 0:
        return False
    unit = H.group.unit(H.level - 1)
    return not in_subgroup(H, unit) and in_subgroup(type(H)(H.group, H.level - 1), unit)


def is_trivial_subgroup(H) -> bool:
    """Whether H is the trivial subgroup H_n, n the rank."""
    return H.level == H.group.rank


def is_principal_ideal(I) -> bool:
    """Whether the ideal's value set attains its minimum: an element cut."""
    from valcuts.segment import CutKind

    return I.values.kind is CutKind.ELEMENT


def shifted_ideal(I, gamma):
    """The ideal whose value set is gamma + vI."""
    from valcuts.segment import IdealDescriptor, shift

    return IdealDescriptor(shift(I.values, gamma))


def schedule_value_at(sched, k: int):
    """The declared schedule's value limit - scale/p^(k+1) for one k, built
    on its own: limit - scale*m/d with p^(k+1) = d/m over the one
    denominator limit.den * scale.den * d (d = 1 below k = -1, where the
    power multiplies).  The reference `DeclaredSchedule.approach` is
    checked against."""
    from valcuts.ogroup import GroupElement

    q = sched.group.prime ** abs(k + 1)
    d, m = (q, 1) if k >= -1 else (1, q)
    limit, scale = sched.limit, sched.scale
    a, b = scale.den * d, limit.den * m
    return GroupElement(sched.group,
                        tuple([x * a - y * b for x, y in zip(limit.nums, scale.nums)]),
                        limit.den * a)


def in_subgroup(H, x) -> bool:
    """Whether x lies in the convex subgroup H: its coordinates before H's
    level are zero."""
    if x.group != H.group:
        raise StructuralError("element belongs to a different group descriptor")
    return not any(x.nums[:H.level])


def position(x, H) -> int:
    """Whether x lies below (-1), inside (0) or above (1) every element of
    the convex subgroup H: the sign of its leading coordinate before H's
    level, 0 when there is none."""
    if x.group != H.group:
        raise StructuralError("element belongs to a different group descriptor")
    lead = x.leading_index()
    if lead is None or lead >= H.level:
        return 0
    return 1 if x.nums[lead] > 0 else -1


def quotient_has_smallest_positive(G, H) -> bool:
    """Whether G/H has a smallest positive element.  The quotient is the Hahn
    sum of the classes before H's level, so one exists exactly when its
    finest class is discrete; the trivial quotient (H = G) has none."""
    if H.group != G:
        raise StructuralError("subgroup belongs to a different group descriptor")
    return H.level > 0 and G.components[H.level - 1] is Component.INT


def rebuilt(value, **changes):
    """value built anew through its constructor from its fields, with
    `changes` in place of some: equal to value when nothing changes, and
    starting with none of its kept caches."""
    fields = {name: getattr(value, name) for name in value._fields}
    return type(value)(**{**fields, **changes})


def count_element_builds(monkeypatch, record) -> None:
    """Call record(element) on every GroupElement built from here on: through
    the constructor, which ends in `__post_init__`, or unchecked through
    `_from_fields`."""
    GroupElement._from_fields(GroupDescriptor((Component.INT,), 2), (0,), 1)   # make it
    post_init, from_fields = GroupElement.__post_init__, GroupElement._from_fields.__func__

    def counting_post_init(self):
        record(self)
        post_init(self)

    def counting_from_fields(cls, *fields):
        element = from_fields(cls, *fields)
        record(element)
        return element

    monkeypatch.setattr(GroupElement, "__post_init__", counting_post_init)
    monkeypatch.setattr(GroupElement, "_from_fields", classmethod(counting_from_fields))


def counted_draws(monkeypatch) -> list:
    """The (generator, args) of every sample draw made from here on: each call
    of scenarios.series_samples or scenarios.declared_samples."""
    draws = []
    for name in ("series_samples", "declared_samples"):
        original = getattr(scenarios, name)

        def counting(*args, _name=name, _original=original):
            draws.append((_name, args))
            return _original(*args)

        monkeypatch.setattr(scenarios, name, counting)
    return draws


def reference_witnesses(fmodel):
    """A formula model's bounded candidates built through Fraction and the
    checked GroupDescriptor.element: the approximants b_k of each
    distinguished element, then 0 and the monomials t^(n / p^d) in the last
    coordinate, |n / p^d| <= 2 and d <= 2, those outside the group skipped."""
    from valcuts.formlang import Approximant

    for im in fmodel.immediates:
        for k in range(min(12, len(im.schedule))):
            carrier = im.carrier.partial_sum(k) if im.carrier is not None else None
            yield f"{im.name}~{k}", Approximant(im.name, k, carrier)
    if fmodel.model.series_capable:
        g = fmodel.group
        p = fmodel.prime
        yield "0", fmodel.model.zero()
        for d in range(3):
            den = p**d
            for num in range(-2 * den, 2 * den + 1):
                coords = [Fraction(0)] * g.rank
                coords[g.rank - 1] = Fraction(num, den)
                try:
                    e = g.element(*coords)
                except StructuralError:
                    continue
                yield f"t^{Fraction(num, den)}", fmodel.model.monomial(1, e)
