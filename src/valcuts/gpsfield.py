"""Truncated generalized-power-series fields with pattern-series elements.

A SeriesElement is a finite sum of monomials c * t^g with exact group-element
exponents.  A PatternSeries adds geometric exponent tails sum_{i>=k0} c *
t^(g/p^i); these represent immediate elements intentionally.  Tails are
merged so that no two share an exponent: equal base exponents, and base
exponents that differ by a factor p^m, become one tail.  A finite support
then meets each tail only at its head, one term at a time, so v(theta - c)
for finite-support c is read off in one ordered pass over the finite
support of theta - c.

Fields of residue characteristic p with char 0 carry no series arithmetic
here; they enter the extension layer through declared approximation
schedules only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NotImmediateError, StructuralError
from .ogroup import GroupDescriptor, GroupElement
from .residue import FqElement, FqField
from .segment import Direction, Segment, seq_cut


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


@dataclass(frozen=True)
class FieldModel:
    """A valued field of generalized power series, or a declared shell."""

    name: str
    char: int
    value_group: GroupDescriptor
    residue: FqField | None = None
    residue_char: int | None = None
    vp: GroupElement | None = None

    def __post_init__(self):
        if self.char > 0:
            if self.residue_char not in (None, self.char):
                raise StructuralError("equal characteristic requires residue_char == char")
            object.__setattr__(self, "residue_char", self.char)
            if self.residue is not None and self.residue.p != self.char:
                raise StructuralError("residue field characteristic mismatch")
        elif self.residue_char is None:
            raise StructuralError("characteristic 0 models must declare residue_char")
        if self.vp is not None and self.vp.group != self.value_group:
            raise StructuralError("vp must live in the value group")

    @property
    def series_capable(self) -> bool:
        return self.char > 0 and self.residue is not None

    def _require_series(self):
        if not self.series_capable:
            raise StructuralError(f"model {self.name} carries no series arithmetic")

    def zero(self) -> "SeriesElement":
        self._require_series()
        return SeriesElement(self, ())

    def monomial(self, coeff, exponent: GroupElement) -> "SeriesElement":
        self._require_series()
        if isinstance(coeff, int):
            coeff = self.residue.element(coeff)
        if exponent.group != self.value_group:
            raise StructuralError("exponent lives in a different value group")
        if coeff.is_zero:
            return self.zero()
        return SeriesElement(self, ((exponent, coeff),))

    def one(self) -> "SeriesElement":
        return self.monomial(1, self.value_group.zero())


def _ordered(terms) -> tuple:
    """terms sorted by exponent.  Each exponent is keyed by its numerators over
    one common denominator, so the sort compares integer lists; exponents
    from different groups raise as their comparison would."""
    first = terms[0][0]
    for e, _ in terms:
        if e.__class__ is not GroupElement or (
                e.group is not first.group and e.group != first.group):
            raise StructuralError("elements belong to different group descriptors")
    den = lcm(*[e.den for e, _ in terms])
    return tuple(sorted(terms, key=lambda t: [n * (den // t[0].den) for n in t[0].nums]))


@dataclass(frozen=True)
class SeriesElement:
    model: FieldModel
    terms: tuple[tuple[GroupElement, FqElement], ...]

    def __post_init__(self):
        terms = self.terms
        if len(terms) > 1:
            object.__setattr__(self, "terms", _ordered(terms))
        elif type(terms) is not tuple:
            object.__setattr__(self, "terms", tuple(terms))

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
        field = self.model.residue
        acc = dict(self.terms)
        for e, c in other.terms:
            a = acc.get(e)
            if a is not None:
                s = a + c
                if s.is_zero:
                    del acc[e]
                else:
                    acc[e] = s
            elif c.__class__ is not FqElement or (c.field is not field and c.field != field):
                raise StructuralError("coefficients from different residue fields")
            elif c.value:
                acc[e] = c
        return SeriesElement(self.model, tuple(acc.items()))

    def __neg__(self):
        return SeriesElement(self.model, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, PatternSeries):
            return (-other) + self
        return self + (-other)

    def __mul__(self, other):
        """The product, on integers: every exponent is written over one common
        denominator, coefficients are summed mod p, and group elements are
        built only for the terms that survive."""
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
        return SeriesElement(self.model, [
            (GroupElement(group, k, den),
             FqElement(field, a % field.p))
            for k, a in acc.items() if a % field.p])

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.model.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "SeriesElement":
        if len(self.terms) != 1:
            raise StructuralError("only monomials can be inverted exactly")
        e, c = self.terms[0]
        return SeriesElement(self.model, ((-e, c.inverse()),))

    def frobenius(self) -> "SeriesElement":
        """x -> x^p; it fixes the prime-field coefficients."""
        p = self.model.char
        return SeriesElement(self.model, tuple((e * p, c) for e, c in self.terms))


@dataclass(frozen=True)
class Tail:
    """The geometric tail sum_{i >= start} coeff * t^(gamma / p^i), p the
    characteristic of coeff; every gamma / p^i lies in the group."""

    coeff: FqElement
    gamma: GroupElement
    start: int

    def __post_init__(self):
        if self.gamma.is_zero:
            raise StructuralError("tail base exponent must be nonzero")
        if self.coeff.is_zero:
            raise StructuralError("tail coefficient must be nonzero")
        self.gamma.require_p_divisible(self.coeff.field.p, "tail base exponent")

    def exponent(self, i: int) -> GroupElement:
        return self.gamma.over_p_power(self.coeff.field.p, i)


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


def _merge_tails(model: FieldModel, tails, extra_finite):
    """Combine tails that share exponents; spilled head terms go finite.

    A tail whose base exponent is base * p^m for a present base is the tail
    at that base starting m places earlier.
    """
    by_gamma: dict = {}
    finite = extra_finite
    for t in tails:
        if t.gamma.group != model.value_group:
            raise StructuralError("tail exponent lives in a different value group")
        prev = by_gamma.get(t.gamma)
        if prev is None:
            for base, tail in by_gamma.items():
                m = _family_shift(base, t.gamma, model.char)
                if m is not None:
                    prev, t = tail, Tail(t.coeff, base, t.start - m)
                    break
        if prev is not None:
            lo, hi = sorted((prev, t), key=lambda x: x.start)
            for i in range(lo.start, hi.start):
                finite = finite + model.monomial(lo.coeff, lo.exponent(i))
            c = lo.coeff + hi.coeff
            if c.is_zero:
                del by_gamma[t.gamma]
            else:
                by_gamma[t.gamma] = Tail(c, t.gamma, hi.start)
        else:
            by_gamma[t.gamma] = t
    ordered = tuple(sorted(by_gamma.values(), key=lambda t: t.gamma))
    return ordered, finite


@dataclass(frozen=True)
class PatternSeries:
    """finite_part plus geometric tails; an intentionally immediate element."""

    model: FieldModel
    finite_part: SeriesElement
    tails: tuple[Tail, ...]

    def __post_init__(self):
        self.model._require_series()
        tails, finite = _merge_tails(self.model, self.tails, self.finite_part)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "finite_part", finite)

    @property
    def has_tails(self) -> bool:
        return bool(self.tails)

    def as_series(self) -> SeriesElement:
        if self.has_tails:
            raise StructuralError("pattern with tails is not a finite series")
        return self.finite_part

    def __add__(self, other):
        if isinstance(other, PatternSeries):
            if other.model != self.model:
                raise StructuralError("patterns from different field models")
            return PatternSeries(self.model, self.finite_part + other.finite_part,
                                 self.tails + other.tails)
        return PatternSeries(self.model, self.finite_part + other, self.tails)

    def __neg__(self):
        return PatternSeries(
            self.model, -self.finite_part,
            tuple(Tail(-t.coeff, t.gamma, t.start) for t in self.tails))

    def __sub__(self, other):
        return self + (-other)

    def frobenius(self) -> "PatternSeries":
        return PatternSeries(
            self.model, self.finite_part.frobenius(),
            tuple(Tail(t.coeff, t.gamma, t.start - 1) for t in self.tails))

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
        """finite_part plus every tail term with index <= k."""
        terms = tuple((t.exponent(i), t.coeff)
                      for t in self.tails for i in range(t.start, k + 1))
        return self.finite_part + SeriesElement(self.model, terms)


def val_diff(theta: PatternSeries, c: SeriesElement) -> GroupElement:
    """v(theta - c), exact, for finite-support c.

    One ordered pass: the support of finite_part - c is walked upwards
    against the heads of the tails with negative base exponent (the others
    lie above 0, so above every such head).  A term that cancels a head moves
    that tail on by one; the first term or head that nothing cancels is the
    valuation.  Merged tails share no exponent, so a term meets one head at
    most, and each term is visited once.  theta needs a tail with negative
    base exponent.
    """
    if c.model != theta.model:
        raise StructuralError("operands from different field models")
    heads = {t: (t.start, t.exponent(t.start))
             for t in theta.tails if t.gamma.sign() < 0}
    if not heads:
        raise StructuralError("val_diff needs a tail with negative base exponent")
    for e, coeff in (theta.finite_part - c).terms:
        t, (i, head) = min(heads.items(), key=lambda item: item[1][1])
        if head != e or not (coeff + t.coeff).is_zero:
            return min(head, e)
        heads[t] = (i + 1, t.exponent(i + 1))
    return min(head for _, head in heads.values())


@dataclass(frozen=True)
class ApproachResult:
    """v(theta - K) as a cut plus the schedule certificate."""

    segment: Segment
    schedule: tuple[GroupElement, ...]


def approach_segment(theta: PatternSeries, K: FieldModel, depth: int = 12) -> ApproachResult:
    """The initial segment v(theta - K), with the first `depth` schedule values.

    The schedule lists the distinct values of v(theta - b_k), b_k the partial
    sum through index k, for k = k_lo, k_lo + 1, ...  theta - b_k is the tail
    terms past index k, and merged tails share no exponent, so v(theta - b_k)
    is the least t.exponent(max(k + 1, t.start)) over the tails t with
    negative base exponent.  These values never decrease and reach every
    negative-tail exponent, so the distinct ones increase strictly.
    """
    if K.value_group != theta.model.value_group:
        raise StructuralError("base field has a different value group")
    if not theta.has_tails:
        raise NotImmediateError("element has finite support over the base field")
    gamma_min = min(t.gamma for t in theta.tails)
    if gamma_min.sign() > 0:
        raise NotImmediateError("tail exponents decrease; v(theta - K) has a maximum")
    negative = [t for t in theta.tails if t.gamma.sign() < 0]
    schedule = []
    k = max(0, min(t.start for t in theta.tails) - 1)
    while len(schedule) < depth:
        value = min(t.exponent(max(k + 1, t.start)) for t in negative)
        if not schedule or schedule[-1] != value:
            schedule.append(value)
        k += 1
    seg = seq_cut(theta.model.value_group.zero(), -gamma_min, start=1,
                  direction=Direction.INITIAL)
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
