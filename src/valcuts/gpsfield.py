"""Truncated generalized-power-series fields with pattern-series elements.

A SeriesElement is a finite sum of monomials c * t^g with exact group-element
exponents.  A PatternSeries adds geometric exponent tails sum_{i>=k0} c *
t^(g/p^i); these represent immediate elements intentionally.  Tails are
merged so that no two share an exponent: equal base exponents, and base
exponents that differ by a factor p^m, become one tail.  A finite support
then meets each tail only at its head, one term at a time, so v(theta - c)
for finite-support c is read off in one ordered pass over the finite
support of theta - c.

Terms are kept in exponent order and tails merged and ordered by base
exponent, and an operation builds only what it changes.  Negation and the
Frobenius (p > 0) keep the term order, and 0 + x is x; negation, the
Frobenius and adding a finite series keep every base exponent and every
relative start, so only the sum or difference of two patterns merges tails
again, and without checking them: each term is checked once, when a series
is built from outside, and each tail when a pattern is.  A difference adds
its right operand's negated terms or tails, with no negated copy built.
The least term of theta - c lies on a leading tail: a negative one at the
coarsest leading index.  Once every leading tail has passed its start, all
divide their base exponents by the same p-power, so the approach schedule
is gamma_min / p^(k+1) from there on.

Fields of residue characteristic p with char 0 carry no series arithmetic
here; they enter the extension layer through declared approximation
schedules only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import NotImmediateError, StructuralError
from .ogroup import GroupDescriptor, GroupElement, _Frozen, _slot_setters
from .residue import GF, FqElement
from .segment import Direction, Segment


class _Infinity:
    """Sentinel for v(0); larger than every group element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __repr__(self):
        return "INF"


INF = _Infinity()


class FieldModel(_Frozen):
    """A valued field of generalized power series, or a declared shell.  Its
    residue field, kept outside the fields, is F_char, or None for char 0."""

    __slots__ = ("name", "char", "value_group", "residue_char", "vp", "residue")
    _fields = ("name", "char", "value_group", "residue_char", "vp")

    def __init__(self, name: str, char: int, value_group: GroupDescriptor,
                 residue_char: int | None = None, vp: GroupElement | None = None):
        if char > 0:
            if residue_char not in (None, char):
                raise StructuralError("equal characteristic requires residue_char == char")
            residue_char = char
        elif residue_char is None:
            raise StructuralError("characteristic 0 models must declare residue_char")
        if vp is not None and vp.group != value_group:
            raise StructuralError("vp must live in the value group")
        _fm_name(self, name)
        _fm_char(self, char)
        _fm_value_group(self, value_group)
        _fm_residue_char(self, residue_char)
        _fm_vp(self, vp)
        _fm_residue(self, GF(char) if char > 0 else None)

    def __eq__(self, other) -> bool:
        # the base's comparison of the fields, after the identity test
        if self is other:
            return True
        if other.__class__ is not FieldModel:
            return NotImplemented
        return ((self.name, self.char, self.value_group, self.residue_char, self.vp)
                == (other.name, other.char, other.value_group, other.residue_char, other.vp))

    __hash__ = _Frozen.__hash__

    @property
    def series_capable(self) -> bool:
        return self.char > 0

    def _require_series(self):
        if not self.series_capable:
            raise StructuralError(f"model {self.name} carries no series arithmetic")

    def zero(self) -> "SeriesElement":
        self._require_series()
        return SeriesElement(self, ())

    def monomial(self, coeff, exponent: GroupElement) -> "SeriesElement":
        self._require_series()
        coeff = self.residue.element(coeff) if isinstance(coeff, int) else coeff
        return SeriesElement(self, ((exponent, coeff),))

    def one(self) -> "SeriesElement":
        return self.monomial(1, self.value_group.zero())


_fm_name, _fm_char, _fm_value_group, _fm_residue_char, _fm_vp, _fm_residue = _slot_setters(
    FieldModel, *FieldModel.__slots__)


def _ordered(terms) -> tuple:
    """terms of one value group, sorted by their numerators over one denominator."""
    den = lcm(*[e.den for e, _ in terms])
    return tuple(sorted(terms, key=lambda t: [n * (den // t[0].den) for n in t[0].nums]))


class SeriesElement(_Frozen):
    """A finite sum of monomials: `terms` holds (exponent, coefficient) pairs
    with nonzero coefficients of the residue field, in exponent order.
    `_from_fields` builds a terms tuple already in that form without the
    checks."""

    __slots__ = _fields = ("model", "terms")

    def __init__(self, model: FieldModel, terms: tuple[tuple[GroupElement, FqElement], ...]):
        # terms from outside, in any order, each checked against the model;
        # a repeated exponent's coefficients are added and zeros dropped
        group, field = model.value_group, model.residue
        for e, c in terms:
            if e.__class__ is not GroupElement or (e.group is not group and e.group != group):
                raise StructuralError("exponent lives in a different value group")
            if c.__class__ is not FqElement or (c.field is not field and c.field != field):
                raise StructuralError("coefficients from different residue fields")
        if len(terms) > 1:
            acc: dict = {}
            for e, c in terms:
                acc[e] = acc[e] + c if e in acc else c
            terms = [t for t in acc.items() if t[1].value]
            terms = _ordered(terms) if terms else ()
        elif terms and not terms[0][1].value:
            terms = ()
        _se_model(self, model)
        _se_terms(self, tuple(terms))

    def __eq__(self, other) -> bool:
        if other.__class__ is not SeriesElement:
            return NotImplemented
        return self.terms == other.terms and (self.model is other.model
                                              or self.model == other.model)

    __hash__ = _Frozen.__hash__

    @classmethod
    def _from_distinct(cls, model: FieldModel, terms) -> "SeriesElement":
        """The series of nonzero coefficients of the residue field at distinct
        exponents, in any order: sorted once, with nothing added or dropped."""
        return cls._from_fields(model, _ordered(terms) if len(terms) > 1 else tuple(terms))

    def _check(self, other):
        if not isinstance(other, SeriesElement) or other.model != self.model:
            raise StructuralError("series from different field models")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        """Minimum exponent of the support; INF for zero."""
        if not self.terms:
            return INF
        return self.terms[0][0]

    def __add__(self, other):
        if isinstance(other, PatternSeries):
            return other + self
        self._check(other)
        if not other.terms:
            return self
        if self.terms:
            return self._plus(other.terms)
        return other   # 0 + x

    def _plus(self, terms) -> "SeriesElement":
        """self plus nonzero terms of the residue field, given in any order
        (an exponent may repeat) and sorted once: a term whose exponent
        nothing else has is kept as it is, and FqElements are added only
        where two exponents meet."""
        acc = dict(self.terms)
        for e, c in terms:
            a = acc.get(e)
            if a is None:
                acc[e] = c
            else:
                s = a + c
                if s.is_zero:
                    del acc[e]
                else:
                    acc[e] = s
        return SeriesElement._from_distinct(self.model, list(acc.items()))

    def __neg__(self):
        return SeriesElement._from_fields(self.model, tuple([(e, -c) for e, c in self.terms]))

    def __sub__(self, other):
        if isinstance(other, PatternSeries):
            return (-other) + self
        self._check(other)   # as `+` does, before negating an operand that may have no `-`
        if not other.terms:
            return self
        negated = [(e, -c) for e, c in other.terms]
        if self.terms:
            return self._plus(negated)
        return SeriesElement._from_fields(self.model, tuple(negated))   # 0 - x

    def __mul__(self, other):
        """The product, on integers: every exponent is written over one common
        denominator, coefficients are summed mod p, and group elements are
        built only for the terms that survive.  At p = 2, x * x is x^2, the
        Frobenius."""
        if other is self and self.model.char == 2:
            return self.frobenius()
        self._check(other)
        den = lcm(*[e.den for e, _ in self.terms + other.terms])

        def scaled(factor):
            return [([n * (den // e.den) for n in e.nums], a.value) for e, a in factor.terms]

        acc: dict = {}
        right = scaled(other)
        for k1, a1 in scaled(self):
            for k2, a2 in right:
                k = tuple([x + y for x, y in zip(k1, k2)])
                acc[k] = acc.get(k, 0) + a1 * a2
        group, field = self.model.value_group, self.model.residue
        return SeriesElement._from_distinct(self.model, [
            (GroupElement(group, k, den),
             FqElement(field, a % field.p))
            for k, a in acc.items() if a % field.p])

    def __pow__(self, n: int):
        """x^n; over F_p, x^(p m) = (x^p)^m, with x^p the Frobenius."""
        if n < 0:
            return self.inverse() ** (-n)
        base, p = self, self.model.char
        while n and n % p == 0:
            base = base.frobenius()
            n //= p
        out = self.model.one()
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> "SeriesElement":
        if len(self.terms) != 1:
            raise StructuralError("only monomials can be inverted exactly")
        e, c = self.terms[0]
        return SeriesElement._from_fields(self.model, ((-e, c.inverse()),))

    def frobenius(self) -> "SeriesElement":
        """x -> x^p; it fixes the prime-field coefficients."""
        p = self.model.char  # p > 0 keeps the term order
        return SeriesElement._from_fields(self.model, tuple([(e * p, c) for e, c in self.terms]))


_se_model, _se_terms = _slot_setters(SeriesElement, *SeriesElement._fields)


class Tail(_Frozen):
    """The geometric tail sum_{i >= start} coeff * t^(gamma / p^i), p the
    characteristic of coeff; every gamma / p^i lies in the group.
    `_from_fields` builds the tail of a nonzero coeff on a base exponent
    some tail already checked, without the checks."""

    __slots__ = _fields = ("coeff", "gamma", "start")

    def __init__(self, coeff: FqElement, gamma: GroupElement, start: int):
        if gamma.is_zero:
            raise StructuralError("tail base exponent must be nonzero")
        if coeff.is_zero:
            raise StructuralError("tail coefficient must be nonzero")
        gamma.require_p_divisible(coeff.field.p, "tail base exponent")
        _tail_coeff(self, coeff)
        _tail_gamma(self, gamma)
        _tail_start(self, start)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Tail:
            return NotImplemented
        return (self.start == other.start and self.gamma == other.gamma
                and (self.coeff is other.coeff or self.coeff == other.coeff))

    __hash__ = _Frozen.__hash__

    def exponent(self, i: int) -> GroupElement:
        return self.gamma.over_p_power(self.coeff.field.p, i)


_tail_coeff, _tail_gamma, _tail_start = _slot_setters(Tail, *Tail._fields)


def _family_shift(base: GroupElement, gamma: GroupElement, p: int) -> int | None:
    """m with gamma = base * p^m, or None when the two tails share no exponent."""
    i = base.leading_index()
    b, g = base.nums[i], gamma.nums[i]
    # gamma = r * base with r = g/b times base.den/gamma.den, r > 0
    if b * g <= 0 or any(y * b != x * g for x, y in zip(base.nums, gamma.nums)):
        return None
    num, den = abs(g * base.den), abs(b * gamma.den)
    common = gcd(num, den)
    num, den, m = num // common, den // common, 0
    while num % p == 0:
        num //= p
        m += 1
    while den % p == 0:
        den //= p
        m -= 1
    return m if num == den == 1 else None


def _merge_tails(model: FieldModel, tails, finite: SeriesElement):
    """Combine tails that share exponents; spilled head terms go finite, in
    one addition.  The tails were checked against the model when built.

    A tail whose base exponent is base * p^m for a present base is the tail
    at that base starting m places earlier.
    """
    by_gamma: dict = {}
    spilled = []
    for t in tails:
        prev = by_gamma.get(t.gamma)
        if prev is None:
            for base, tail in by_gamma.items():
                m = _family_shift(base, t.gamma, model.char)
                if m is not None:
                    prev, t = tail, Tail._from_fields(t.coeff, base, t.start - m)
                    break
        if prev is not None:
            lo, hi = (prev, t) if prev.start <= t.start else (t, prev)
            spilled += [(lo.exponent(i), lo.coeff) for i in range(lo.start, hi.start)]
            c = lo.coeff + hi.coeff
            if c.is_zero:
                del by_gamma[t.gamma]
            else:
                by_gamma[t.gamma] = Tail._from_fields(c, t.gamma, hi.start)
        else:
            by_gamma[t.gamma] = t
    ordered = tuple(sorted(by_gamma.values(), key=lambda t: t.gamma))
    return ordered, (finite._plus(spilled) if spilled else finite)


class PatternSeries(_Frozen):
    """finite_part plus geometric tails; an intentionally immediate element.
    `_from_fields` builds one of tails already merged and ordered by base
    exponent, without _merge_tails."""

    __slots__ = _fields = ("model", "finite_part", "tails")

    def __init__(self, model: FieldModel, finite_part: SeriesElement, tails: tuple[Tail, ...]):
        model._require_series()
        if finite_part.__class__ is not SeriesElement or finite_part.model != model:
            raise StructuralError("finite part from a different field model")
        for t in tails:
            if t.gamma.group != model.value_group:
                raise StructuralError("tail exponent lives in a different value group")
            if t.coeff.field != model.residue:
                raise StructuralError("tail coefficient lives in a different residue field")
        tails, finite = _merge_tails(model, tails, finite_part)
        _ps_model(self, model)
        _ps_finite_part(self, finite)
        _ps_tails(self, tails)

    def __eq__(self, other) -> bool:
        if other.__class__ is not PatternSeries:
            return NotImplemented
        return (self.tails == other.tails and self.finite_part == other.finite_part
                and (self.model is other.model or self.model == other.model))

    __hash__ = _Frozen.__hash__

    @property
    def has_tails(self) -> bool:
        return bool(self.tails)

    def as_series(self) -> SeriesElement:
        if self.has_tails:
            raise StructuralError("pattern with tails is not a finite series")
        return self.finite_part

    def __add__(self, other):
        if isinstance(other, PatternSeries):
            self._check(other)
            return self._merged(other.tails, self.finite_part + other.finite_part)
        return PatternSeries._from_fields(self.model, self.finite_part + other, self.tails)

    def _check(self, other: "PatternSeries"):
        if other.model != self.model:
            raise StructuralError("patterns from different field models")

    def _merged(self, tails, finite: SeriesElement) -> "PatternSeries":
        """The pattern of finite and self's tails merged with `tails`; both
        sets were checked against this model when built."""
        tails, finite = _merge_tails(self.model, self.tails + tails, finite)
        return PatternSeries._from_fields(self.model, finite, tails)

    # negation, the Frobenius and adding a finite series keep every base
    # exponent and every relative start, so the tails stay merged and ordered

    def __neg__(self):
        return PatternSeries._from_fields(
            self.model, -self.finite_part,
            tuple([Tail._from_fields(-t.coeff, t.gamma, t.start) for t in self.tails]))

    def __sub__(self, other):
        if isinstance(other, PatternSeries):
            # the negated tails go straight into one merge
            self._check(other)
            return self._merged(
                tuple([Tail._from_fields(-t.coeff, t.gamma, t.start) for t in other.tails]),
                self.finite_part - other.finite_part)
        return PatternSeries._from_fields(self.model, self.finite_part - other, self.tails)

    def frobenius(self) -> "PatternSeries":
        return PatternSeries._from_fields(
            self.model, self.finite_part.frobenius(),
            tuple([Tail._from_fields(t.coeff, t.gamma, t.start - 1) for t in self.tails]))

    def artin_schreier(self, c: SeriesElement) -> SeriesElement:
        """theta^p - theta - c, a finite series: the Frobenius fixes the F_p
        coefficients and starts each merged tail one place earlier, so a tail
        of theta^p less the same tail of theta is its first term."""
        F = self.finite_part
        F._check(c)
        return F.frobenius()._plus([(e, -a) for e, a in F.terms + c.terms]
                                   + [(t.exponent(t.start - 1), t.coeff) for t in self.tails])

    def pow_char_power(self, n: int) -> "PatternSeries":
        """n-th power for n a power of the characteristic (via Frobenius)."""
        p = self.model.char
        out = self
        while n != 1:
            if n < 1 or n % p:
                raise StructuralError("pattern powers are supported for p-power exponents")
            out = out.frobenius()
            n //= p
        return out

    def partial_sum(self, k: int) -> SeriesElement:
        """finite_part plus every tail term with index <= k, sorted once."""
        terms = [(t.exponent(i), t.coeff) for t in self.tails for i in range(t.start, k + 1)]
        if self.finite_part.terms:
            return self.finite_part._plus(terms)
        return SeriesElement._from_distinct(self.model, terms)


_ps_model, _ps_finite_part, _ps_tails = _slot_setters(PatternSeries, *PatternSeries._fields)


def _leading_tails(theta: PatternSeries) -> list[Tail]:
    """The leading tails: those whose base exponent is negative with the
    coarsest leading index i of any negative one, least base exponent first.

    Each exponent of such a tail is zero before index i and negative at i.
    Every other tail's exponents are positive, or zero up to index i, so they
    lie above all of these: only the leading tails can hold the least term of
    theta - b for a finite-support b.
    """
    tails = theta.tails  # ordered by base exponent
    if not tails or tails[0].gamma.sign() >= 0:
        return []
    lead = tails[0].gamma.leading_index()
    return [t for t in tails if t.gamma.leading_index() == lead and t.gamma.nums[lead] < 0]


def val_diff(theta: PatternSeries, c: SeriesElement) -> GroupElement:
    """v(theta - c), exact, for finite-support c.

    One ordered pass: the support of finite_part - c is walked upwards
    against the heads of the leading tails (`_leading_tails`; every other
    tail term lies above all of theirs).  A term that cancels the least head
    moves that tail on by one; the first term or head that nothing cancels is
    the valuation.  Merged tails share no exponent, so a term meets one head
    at most, and each term is visited once.  theta needs a tail with negative
    base exponent, and c must be a SeriesElement of theta's model.
    """
    if theta.__class__ is not PatternSeries:   # read first: anything else has no model
        raise StructuralError("val_diff needs a pattern theta")
    if c.__class__ is not SeriesElement or c.model != theta.model:
        raise StructuralError("val_diff needs a finite series of theta's field model")
    heads = [[t.exponent(t.start), t.coeff.value] for t in _leading_tails(theta)]
    if not heads:
        raise StructuralError("val_diff needs a tail with negative base exponent")
    p = theta.model.char
    for e, coeff in (theta.finite_part - c).terms:
        head = min(heads, key=itemgetter(0))
        value = head[0]
        if value != e or (coeff.value + head[1]) % p:
            return min(value, e)
        # the tail's next term: its exponent is this one over p
        head[0] = GroupElement(value.group, value.nums, value.den * p)
    return min(head[0] for head in heads)


class ApproachResult(_Frozen):
    """v(theta - K) as a cut plus the schedule certificate."""

    __slots__ = _fields = ("segment", "schedule")


def approach_segment(theta: PatternSeries, K: FieldModel, depth: int = 12) -> ApproachResult:
    """The initial segment v(theta - K), with the first `depth` schedule values.

    The schedule lists the distinct values of v(theta - b_k), b_k the partial
    sum through index k, for k = k_lo, k_lo + 1, ...  theta - b_k is the tail
    terms past index k, and merged tails share no exponent, so v(theta - b_k)
    is the least t.exponent(max(k + 1, t.start)) over the leading tails t
    (`_leading_tails`).  These values never decrease and reach every
    leading-tail exponent, so the distinct ones increase strictly.  Once
    k + 1 has passed every leading start, each leading tail divides its base
    exponent by the same p^(k+1), so the least base exponent stays least: the
    value is gamma_min / p^(k+1), new at every k, and no minimum is taken.
    """
    if K.value_group != theta.model.value_group:
        raise StructuralError("base field has a different value group")
    if not theta.has_tails:
        raise NotImmediateError("element has finite support over the base field")
    leading = _leading_tails(theta)
    if not leading:
        raise NotImmediateError("tail exponents decrease; v(theta - K) has a maximum")
    gamma_min = leading[0].gamma
    group, nums, p = gamma_min.group, gamma_min.nums, theta.model.char
    content, e = gcd(*nums), 0   # p^e divides every numerator of gamma_min
    while content % p == 0:
        content, e = content // p, e + 1
    schedule = []
    starts = [t.start for t in leading]
    k = max(0, min(starts) - 1)
    # the minimum is taken while a leading tail waits at its start, at the first k
    # past every start, whose value may repeat the last waiting one, and while k < e
    closed = max(*starts, e)   # the first k of the closed form
    while k < closed and len(schedule) < depth:
        value = min([t.exponent(max(k + 1, t.start)) for t in leading])
        if not schedule or schedule[-1] != value:
            schedule.append(value)
        k += 1
    # then gamma_min / p^(k+1) is in lowest terms once p^e is struck from it
    nums, den = tuple([n // p**e for n in nums]), gamma_min.den * p**max(k - e, 0)
    for _ in range(depth - len(schedule)):
        den *= p
        schedule.append(GroupElement._from_fields(group, nums, den))
    # seq_cut(0, -gamma_min) in one step: the open initial cut at 0 over the
    # subprincipal subgroup of gamma_min's class, which a tail's base exponent
    # makes p-divisible, so dense, and the zero shift is canonical
    seg = Segment._from_fields(Direction.INITIAL, gamma_min.leading_index() + 1, group.zero(),
                               False)
    return ApproachResult(seg, tuple(schedule))


# --------------------------------------------------------------------------
# Text grammar for elements:  coeff 't^' exponent ('+' ...), exponents exact
# rationals or coordinate tuples.

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+)?\s*\*?\s*(?:t(?:\^(?P<exp>\([^)]*\)|-?\d+(?:/\d+)?))?)?\s*$"
)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise StructuralError(f"not an exact rational: {text!r}") from None


def parse_element(model: FieldModel, text: str) -> SeriesElement:
    model._require_series()
    out = model.zero()
    depth = 0
    parts, cur = [], []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    for part in parts:
        if not part.strip():
            raise StructuralError(f"empty term in element text: {text!r}")
        m = _TERM_RE.match(part)
        if not m or (m.group("coeff") is None and "t" not in part):
            raise StructuralError(f"cannot parse element term: {part!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        exp_text = m.group("exp")
        if "t" not in part:
            exponent = model.value_group.zero()
        elif exp_text is None:
            exponent = model.value_group.element(*([1] + [0] * (model.value_group.rank - 1)))
        elif exp_text.startswith("("):
            coords = [_rational(x.strip()) for x in exp_text[1:-1].split(",")]
            exponent = model.value_group.element(*coords)
        else:
            if model.value_group.rank != 1:
                raise StructuralError("scalar exponent in a higher-rank value group")
            exponent = model.value_group.element(_rational(exp_text))
        out = out + model.monomial(coeff, exponent)
    return out
