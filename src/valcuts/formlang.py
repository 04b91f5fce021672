"""First-order formulas over a valued field with a base-field predicate.

Grammar (extends the published core with a sign on valuation expressions and
a symbolic exponent, both of which the standard definition texts need):

    formula := quant | bool
    quant   := ("forall" | "exists") ident "in" ("L" | "K" | "L\\K") ":" formula
    bool    := bool ("and" | "or" | "->") bool | "not" bool | "(" formula ")" | atom
    atom    := term "=" term | vexpr rel vexpr | "inK(" term ")"
    vexpr   := ["-"] "v(" term ")" | rational
    rel     := "<" | "<=" | "=" | ">=" | ">"
    term    := ident | integer | term ("+"|"-"|"*") term
             | term "^" (integer | "p") | "1/" term | "(" term ")"

An atom reads as `term = term` when it parses so, else as a comparison.  A
name resolves through the bindings (a quantifier shadows any name), the model
constants and immediate elements, then the built-ins `p` (known by v(p)) and
`zeta_p` (a unit); a name that resolves nowhere is an error.

Evaluation is three-valued.  A quantifier over the base field K is answered
exactly (ORACLE mode) when its body compares a valuation of a recognized
shape in the bound variable c against a computable value: v(x - c),
v(x^p - x - c^p + c), or v(x^p - c^p), possibly inside a product with
c-free factors.  Everything else falls back to bounded witness enumeration
(BOUNDED mode), where UNKNOWN is a first-class outcome.  A formula in one
binding b is compiled once per model to the values of v(b) at which it holds,
or, when it is one K quantifier left to enumeration over one atom in b, to
its candidates' values, which give where the enumeration would stop.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import islice

from .errors import EvaluationUnsupported, ParseError, StructuralError
from .gpsfield import INF, FieldModel, PatternSeries, SeriesElement, val_diff
from .ogroup import ConvexSubgroup, GroupElement, _Frozen, _slot_setters
from .segment import (
    CutKind,
    Direction,
    IdealDescriptor,
    Segment,
    coarsening,
    contains,
    element_cut,
    is_subset,
    negate,
    scale_int,
    shift,
)

# --------------------------------------------------------------------------
# AST


class Domain(str, Enum):
    L = "L"
    K = "K"
    L_MINUS_K = "L\\K"


class _Node(_Frozen):
    """A syntax node, equal to a node of its class with equal fields.  Its hash
    and its free names are computed once and kept on it, but not in its
    pickled state, which holds the fields only: a str hashes differently in
    each process."""

    __slots__ = ("_hash", "_free")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = _Frozen.__hash__(self)
            _node_hash(self, h)
            return h


_node_hash, _node_free = _slot_setters(_Node, *_Node.__slots__)


class _Pair(_Node):
    """The nodes of two operands: Add, Sub, Mul and EqAtom."""

    __slots__ = _fields = ("left", "right")


class _OfTerm(_Node):
    """The nodes of one term: Recip and InK."""

    __slots__ = _fields = ("term",)


class Var(_Node):
    __slots__ = _fields = ("name",)


class IntLit(_Node):
    __slots__ = _fields = ("value",)   # an int


class Add(_Pair):
    __slots__ = ()


class Sub(_Pair):
    __slots__ = ()


class Mul(_Pair):
    __slots__ = ()


class Pow(_Node):
    """base ** exponent, the exponent an integer or the symbolic prime "p"."""

    __slots__ = _fields = ("base", "exponent")


class Recip(_OfTerm):
    __slots__ = ()


class VOf(_Node):
    __slots__ = _fields = ("term", "negated")
    _defaults = {"negated": False}


class RatConst(_Node):
    __slots__ = _fields = ("value",)   # a Fraction


class ValAtom(_Node):
    """left rel right, each side a VOf or a RatConst."""

    __slots__ = _fields = ("left", "rel", "right")


class EqAtom(_Pair):
    __slots__ = ()


class InK(_OfTerm):
    __slots__ = ()


class Not(_Node):
    __slots__ = _fields = ("body",)


class BinOp(_Node):
    """left op right, op one of "and", "or" and "->"."""

    __slots__ = _fields = ("op", "left", "right")


class Quant(_Node):
    """kind ("forall" or "exists") var in domain: body."""

    __slots__ = _fields = ("kind", "var", "domain", "body")


_BINARY = (Add, Sub, Mul, ValAtom, EqAtom, BinOp)   # nodes with .left and .right
_BUILTINS = frozenset({"p", "zeta_p"})


# --------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op><=|>=|->|[()^+\-*/\\:<>=,]))"
)

_KEYWORDS = {"forall", "exists", "in", "and", "or", "not", "inK", "v", "L", "K"}

_MAX_DEPTH = 50   # tree levels; each walk over a tree recurses once a level


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0   # levels the parse is nested in

    def peek(self, offset=0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":   # the end token is never consumed
            self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def at(self, value):
        return self.tokens[self.i][1] == value

    def nested(self, parse):
        """parse() one step deeper; a tree level prints as two steps at most, so past
        2 * _MAX_DEPTH steps a RecursionError ends the parse, past every alternative."""
        if self.depth == 2 * _MAX_DEPTH:
            raise RecursionError(self.peek()[2])
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def formula(self):
        return self.implies()

    def implies(self):
        left = self.disjunct()
        if self.at("->"):
            self.next()
            return BinOp("->", left, self.nested(self.implies))
        return left

    def disjunct(self):
        left = self.conjunct()
        while self.at("or"):
            self.next()
            left = BinOp("or", left, self.conjunct())
        return left

    def conjunct(self):
        left = self.unary()
        while self.at("and"):
            self.next()
            left = BinOp("and", left, self.unary())
        return left

    def unary(self):
        if self.at("not"):
            self.next()
            return Not(self.nested(self.unary))
        if self.peek()[1] in ("forall", "exists"):
            return self.quant()
        if self.at("("):
            save = self.i
            self.next()
            try:
                inner = self.nested(self.formula)
                self.expect(")")
                return inner
            except ParseError:
                self.i = save
        return self.atom()

    def quant(self):
        kind = self.next()[1]
        name_tok = self.next()
        if name_tok[0] != "name" or name_tok[1] in _KEYWORDS:
            raise ParseError("expected a variable name", name_tok[2])
        self.expect("in")
        dom_tok = self.next()
        if dom_tok[1] == "L" and self.at("\\"):
            self.next()
            self.expect("K")
            domain = Domain.L_MINUS_K
        elif dom_tok[1] in ("L", "K"):
            domain = Domain(dom_tok[1])
        else:
            raise ParseError("expected a domain L, K, or L\\K", dom_tok[2])
        self.expect(":")
        return Quant(kind, name_tok[1], domain, self.nested(self.formula))

    def atom(self):
        if self.at("inK"):
            self.next()
            self.expect("(")
            t = self.term()
            self.expect(")")
            return InK(t)
        save = self.i
        try:
            left = self.term()
            self.expect("=")
            return EqAtom(left, self.term())
        except ParseError:
            self.i = save
        left = self.vexpr()
        rel_tok = self.next()
        if rel_tok[1] not in ("<", "<=", "=", ">=", ">"):
            raise ParseError("expected a comparison", rel_tok[2])
        return ValAtom(left, rel_tok[1], self.vexpr())

    def vexpr(self):
        if self.at("-") and self.peek(1)[1] == "v" and self.peek(2)[1] == "(":
            self.next()
            self.next()
            self.next()
            t = self.term()
            self.expect(")")
            return VOf(t, negated=True)
        if self.at("v") and self.peek(1)[1] == "(":
            self.next()
            self.next()
            t = self.term()
            self.expect(")")
            return VOf(t)
        return RatConst(self._rational())

    def _rational(self):
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        tok = self.next()
        if tok[0] != "int":
            raise ParseError("expected a rational constant", tok[2])
        num = int(tok[1])
        if self.at("/"):
            self.next()
            den_tok = self.next()
            if den_tok[0] != "int" or int(den_tok[1]) == 0:
                raise ParseError("expected a nonzero denominator", den_tok[2])
            return Fraction(sign * num, int(den_tok[1]))
        return Fraction(sign * num)

    def term(self):
        left = self.term_factor()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            right = self.term_factor()
            left = Add(left, right) if op == "+" else Sub(left, right)
        return left

    def term_factor(self):
        left = self.term_power()
        while self.at("*"):
            self.next()
            left = Mul(left, self.term_power())
        return left

    def term_power(self):
        base = self.term_primary()
        if self.at("^"):
            self.next()
            tok = self.next()
            if tok[0] == "int":
                return Pow(base, int(tok[1]))
            if tok[1] == "p":
                return Pow(base, "p")
            raise ParseError("expected an integer or p as exponent", tok[2])
        return base

    def term_primary(self):
        kind, text, pos = self.peek()
        if text == "(":
            self.next()
            t = self.nested(self.term)
            self.expect(")")
            return t
        if kind == "int":
            self.next()
            if text == "1" and self.at("/"):
                self.next()
                return Recip(self.nested(self.term_power))
            return IntLit(int(text))
        if kind == "name":
            if text in ("forall", "exists", "and", "or", "not", "in", "inK") or (
                    text == "v" and self.peek(1)[1] == "("):
                raise ParseError(f"unexpected keyword {text!r} in term", pos)
            self.next()
            return Var(text)
        raise ParseError(f"unexpected token {text!r} in term", pos)


def parse(text: str):
    return _parse_text(text)


@lru_cache(maxsize=256)
def _parse_text(text: str):
    # the AST is immutable, so one parse of a text serves every evaluation
    p = _Parser(text)
    try:
        out = p.formula()
        if _deeper(out, _MAX_DEPTH):   # chains of and, or, +, - and * deepen only the tree
            raise RecursionError(0)
    except RecursionError as err:   # carries the position past the bound
        raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels",
                         err.args[0]) from None
    tok = p.next()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return out


def _deeper(node, levels: int) -> bool:
    """Whether a syntax tree has more than `levels` levels; the walk stops there."""
    return levels == 0 or any(_deeper(child, levels - 1)
                              for child in [getattr(node, name) for name in node._fields]
                              if isinstance(child, _Node))


def print_formula(f) -> str:
    if isinstance(f, Quant):
        return f"{f.kind} {f.var} in {f.domain.value} : {print_formula(f.body)}"
    if isinstance(f, BinOp):
        # quantifier bodies extend maximally, so quantified sides need parens
        return f"({_print_delimited(f.left)} {f.op} {_print_delimited(f.right)})"
    if isinstance(f, Not):
        return f"not ({print_formula(f.body)})"
    if isinstance(f, ValAtom):
        return f"{_print_vexpr(f.left)} {f.rel} {_print_vexpr(f.right)}"
    if isinstance(f, EqAtom):
        return f"{print_term(f.left)} = {print_term(f.right)}"
    if isinstance(f, InK):
        return f"inK({print_term(f.term)})"
    raise StructuralError(f"not a formula node: {f!r}")


def _print_delimited(f) -> str:
    text = print_formula(f)
    return f"({text})" if isinstance(f, Quant) else text


def _print_vexpr(v) -> str:
    if isinstance(v, VOf):
        return f"{'-' if v.negated else ''}v({print_term(v.term)})"
    return str(v.value)


_TERM_OPS = {Add: "+", Sub: "-", Mul: "*"}


def print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if type(t) in _TERM_OPS:
        return f"({print_term(t.left)} {_TERM_OPS[type(t)]} {print_term(t.right)})"
    if isinstance(t, Pow):
        base = print_term(t.base)
        if isinstance(t.base, (Recip, Pow)):
            base = f"({base})"
        return f"{base}^{t.exponent}"
    if isinstance(t, Recip):
        return f"1/{print_term(t.term)}"
    raise StructuralError(f"not a term node: {t!r}")


# --------------------------------------------------------------------------
# Three-valued truth


class Truth(str, Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"

    @staticmethod
    def of(b: bool) -> "Truth":
        return Truth.TRUE if b else Truth.FALSE

    def negated(self) -> "Truth":
        if self is Truth.TRUE:
            return Truth.FALSE
        if self is Truth.FALSE:
            return Truth.TRUE
        return Truth.UNKNOWN


def _kleene_and(a: Truth, b: Truth) -> Truth:
    if Truth.FALSE in (a, b):
        return Truth.FALSE
    if Truth.UNKNOWN in (a, b):
        return Truth.UNKNOWN
    return Truth.TRUE


def _kleene_or(a: Truth, b: Truth) -> Truth:
    if Truth.TRUE in (a, b):
        return Truth.TRUE
    if Truth.UNKNOWN in (a, b):
        return Truth.UNKNOWN
    return Truth.FALSE


# --------------------------------------------------------------------------
# Models and values

class ImmediateElement(_Frozen):
    """A distinguished element x of L outside K with its approach data: the
    initial segment v(x - K), the schedule v(x - b_k) along the
    approximants, the exact series form when available (`carrier`) and
    `facts` such as "as_generator", "kummer_generator" and "one_unit"."""

    __slots__ = _fields = ("name", "segment", "schedule", "carrier", "facts")
    _defaults = {"carrier": None, "facts": frozenset()}


class DeclaredValue(_Frozen):
    """A value-only carrier of K: nothing but its valuation, a GroupElement
    or INF, is known."""

    __slots__ = _fields = ("valuation",)


class SampleDraw:
    """`count` samples (label, carrier, valuation), drawn by draw() when first
    iterated and kept for later iterations.  Every carrier has the finite
    valuation it is listed with, so a check that reads samples only through
    their valuations is settled by their number, without drawing."""

    __slots__ = ("_count", "_draw", "_drawn")

    def __init__(self, count: int, draw):
        self._count = count
        self._draw = draw
        self._drawn = None

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        if self._drawn is None:
            self._drawn = self._draw()
        return iter(self._drawn)


class Approximant(_Frozen):
    """The k-th schedule approximant b_k of an immediate element."""

    __slots__ = _fields = ("owner", "index", "carrier")
    _defaults = {"carrier": None}


_SCHEDULE_DEPTH = 12      # bounded witnesses: the first 12 approximants of each
_MAX_CANDIDATES = 64      # immediate, then monomials, 64 witnesses in all
_EXPONENT_BOUND = 2       # monomial witnesses t^(n / p^d) with |n / p^d| <= 2
_DENOMINATOR_DEPTH = 2    # and d <= 2


class FormulaModel(_Frozen):
    """The pair (L, K) with bindings for the formula constants.  Its pools are
    kept in its `__dict__`, so it pickles and copies with them filled; a
    model built anew from its fields starts them empty."""

    _fields = ("model", "immediates", "constants")
    __reduce__ = object.__reduce__

    def __init__(self, model: FieldModel, immediates: tuple[ImmediateElement, ...],
                 constants: dict | None = None):
        # constants maps each symbol to its carrier
        vars(self).update(model=model, immediates=immediates,
                          constants={} if constants is None else constants)

    @property
    def group(self):
        return self.model.value_group

    @property
    def prime(self) -> int:
        return self.model.char if self.model.char else self.model.residue_char

    def immediate(self, name: str) -> ImmediateElement | None:
        for im in self.immediates:
            if im.name == name:
                return im
        return None

    def zeta_value(self) -> GroupElement:
        """v(zeta_p - 1) = v(p) / (p - 1)."""
        if self.model.vp is None:
            raise EvaluationUnsupported("model declares no value for p")
        value = self.model.vp.over(self.prime - 1)
        if value is None:
            raise EvaluationUnsupported("v(zeta_p - 1) lies outside the value group")
        return value

    @cached_property
    def candidates(self) -> tuple:
        """(label, value) witnesses bounded enumeration tries, in order.

        The pool depends only on the model, so it is built once and shared by
        every evaluation; a model built anew from its fields builds its own.
        """
        return tuple(islice(self._witnesses(), _MAX_CANDIDATES))

    @cached_property
    def side_values(self) -> dict:
        """(side, quantified variable) -> the side's value on each pool
        candidate, None where it is unsupported: the one valuation kept per
        model, shared by every formula _first_stops compiles with that side,
        each of which folds its own cofactors into keys of its own."""
        return {}

    @cached_property
    def names(self) -> frozenset:
        """The names the model binds: constants, distinguished elements, built-ins."""
        return frozenset(self.constants).union((im.name for im in self.immediates), _BUILTINS)

    @cached_property
    def value_sets(self) -> dict:
        """(formula, variable) -> its value set in v(variable), and how evaluate
        answers from what was compiled (_compiled)."""
        return {}

    @cached_property
    def compiled_answers(self) -> dict:
        """The caller's formula, text or tree -> (variable, answer, term) (_compiled_answer)."""
        return {}

    def _witnesses(self):
        """The approximants b_k of each distinguished element, then 0 and the
        monomials t^(n / p^d) in the last coordinate, built on integers as
        GroupElement(g, (0, ..., n), p^d), those outside the group skipped."""
        for im in self.immediates:
            for k in range(min(_SCHEDULE_DEPTH, len(im.schedule))):
                carrier = im.carrier.partial_sum(k) if im.carrier is not None else None
                yield f"{im.name}~{k}", Approximant(im.name, k, carrier)
        if self.model.series_capable:
            g = self.group
            zeros = (0,) * (g.rank - 1)
            yield "0", self.model.zero()
            for d in range(_DENOMINATOR_DEPTH + 1):
                den = self.prime**d
                for num in range(-_EXPONENT_BOUND * den, _EXPONENT_BOUND * den + 1):
                    e = GroupElement(g, zeros + (num,), den)
                    if g._outside(e.nums, e.den) is None:
                        yield f"t^{e.coord_strings()[-1]}", self.model.monomial(1, e)


class EvalResult(_Frozen):
    """A truth value and the path that answered it, "oracle" or "bounded"."""

    __slots__ = _fields = ("value", "mode", "witness", "candidates_used")
    _defaults = {"witness": None, "candidates_used": 0}

    def to_json(self) -> dict:
        return {"value": self.value.value, "mode": self.mode,
                "witness": self.witness, "candidates_used": self.candidates_used}


# The K-quantifier shapes the oracle answers exactly, in a distinguished
# element x and the quantified c.  A row gives the signed summands, keyed by
# (x or c, exponent 1 or p) and matched up to one overall sign, the fact x
# must carry, and the value v(x - K) must stay below.  v(shape) is then its
# degree in c times v(x - c).
_SHAPES = (
    ({("x", 1): 1, ("c", 1): -1}, None, None),
    # v(y^p - y) = p * v(y) needs every v(x - c) negative
    ({("x", "p"): 1, ("x", 1): -1, ("c", "p"): -1, ("c", 1): 1}, "as_generator",
     lambda fm: fm.group.zero()),
    # x^p - c^p is the product of the x - zeta^i c, and each has value v(x - c)
    # when v(x - c) < v(zeta_p - 1)
    ({("x", "p"): 1, ("c", "p"): -1}, "one_unit", FormulaModel.zeta_value),
)


class _Evaluator:
    def __init__(self, fmodel: FormulaModel, bindings: dict):
        self.fm = fmodel
        self.bindings = dict(bindings)
        self.bounded_used = False
        self.candidates_used = 0
        self.witness: str | None = None

    # -- term carriers ------------------------------------------------

    def _resolve(self, name: str):
        if name in self.bindings:
            return self.bindings[name]
        if name in self.fm.constants:
            return self.fm.constants[name]
        im = self.fm.immediate(name)
        if im is not None:
            return im
        if name == "p":
            return DeclaredValue(self._int_valuation(self.fm.prime))
        if name == "zeta_p":
            return DeclaredValue(self.fm.group.zero())
        raise EvaluationUnsupported(f"unbound name {name!r}")

    def _declared(self, name: str) -> bool:   # bound, a constant or an immediate
        return (name in self.bindings or name in self.fm.constants
                or self.fm.immediate(name) is not None)

    def term_carrier(self, t):
        """Exact carrier (series or pattern) of a term, when computable."""
        if isinstance(t, Var):
            return _bound_carrier(t.name, self._resolve(t.name))
        if isinstance(t, IntLit):
            if not self.fm.model.series_capable:
                raise EvaluationUnsupported("no series arithmetic on this model")
            return self.fm.model.monomial(t.value, self.fm.group.zero())
        if isinstance(t, Add):
            return self.term_carrier(t.left) + self.term_carrier(t.right)
        if isinstance(t, Sub):
            return self.term_carrier(t.left) - self.term_carrier(t.right)
        if isinstance(t, Mul):
            a, b = self.term_carrier(t.left), self.term_carrier(t.right)
            if isinstance(a, PatternSeries) or isinstance(b, PatternSeries):
                raise EvaluationUnsupported("products of pattern series are not exact")
            return a * b
        if isinstance(t, Pow):
            base = self.term_carrier(t.base)
            e = self._exponent(t.exponent)
            if isinstance(base, PatternSeries):
                if e == 0:
                    return self.fm.model.one()
                try:
                    return base.pow_char_power(e)
                except StructuralError as err:   # e is not a power of p
                    raise EvaluationUnsupported(str(err)) from None
            return base**e
        if isinstance(t, Recip):
            base = self.term_carrier(t.term)
            if isinstance(base, PatternSeries):
                raise EvaluationUnsupported("pattern series are not invertible here")
            return base.inverse()
        raise EvaluationUnsupported(f"no carrier for term {t!r}")

    def _exponent(self, e) -> int:
        return self.fm.prime if e == "p" else int(e)

    def term_valuation(self, t):
        """v(term): multiplicative structure first, carriers as fallback."""
        if isinstance(t, Mul):
            a = self.term_valuation(t.left)
            b = self.term_valuation(t.right)
            return INF if INF in (a, b) else a + b
        if isinstance(t, Recip):
            v = self.term_valuation(t.term)
            if v is INF:
                raise EvaluationUnsupported("1/0 has no valuation")
            return -v
        if isinstance(t, Pow):
            v = self.term_valuation(t.base)
            e = self._exponent(t.exponent)
            return INF if v is INF else v * e
        if isinstance(t, Var):
            return _bound_valuation(t.name, self._resolve(t.name))
        if isinstance(t, (Add, Sub)):
            if t == _ZETA_MINUS_ONE and not self._declared("zeta_p"):
                return self.fm.zeta_value()
            special = self._schedule_difference(t)
            if special is not None:
                return special
            try:
                a, b = self.term_carrier(t.left), self.term_carrier(t.right)
            except EvaluationUnsupported:
                return self._min_rule(t)
            # a pattern x with tails and a finite series s: one val_diff(x, ±s),
            # without building the pattern x ± s; v(s - x) = v(x - s)
            for x, s in ((a, b), (b, a)):
                if (x.__class__ is PatternSeries and x.tails and s.__class__ is SeriesElement
                        and s.model is x.model):
                    return val_diff(x, s if isinstance(t, Sub) else -s)
            return _carrier_valuation(a - b if isinstance(t, Sub) else a + b)
        if isinstance(t, IntLit):
            return self._int_valuation(t.value)
        return _carrier_valuation(self.term_carrier(t))

    def _int_valuation(self, n: int):
        p = self.fm.prime
        if n == 0:
            return INF
        if self.fm.model.char:
            return INF if n % p == 0 else self.fm.group.zero()
        if self.fm.model.vp is None:
            raise EvaluationUnsupported("model declares no value for p")
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return self.fm.model.vp * k

    def _schedule_difference(self, t):
        """v(x - b_k) from the declared schedule of an immediate x without a
        carrier; with one, the carriers give v(x - b_k) exactly."""
        if not isinstance(t, Sub):
            return None
        for a, b in ((t.left, t.right), (t.right, t.left)):
            if isinstance(a, Var) and isinstance(b, Var):
                try:
                    xa = self._resolve(a.name)
                    xb = self._resolve(b.name)
                except EvaluationUnsupported:
                    return None
                if (isinstance(xa, ImmediateElement) and xa.carrier is None
                        and isinstance(xb, Approximant)):
                    if xb.owner != xa.name:
                        raise EvaluationUnsupported(
                            "approximant belongs to a different element")
                    return xa.schedule[xb.index]
        return None

    def _min_rule(self, t):
        a = self.term_valuation(t.left)
        b = self.term_valuation(t.right)
        if a is INF:
            return b
        if b is INF:
            return a
        if a != b:
            return min(a, b)
        raise EvaluationUnsupported("equal valuations; the sum may cancel")

    # -- atoms ----------------------------------------------------------

    def vexpr_value(self, v):
        if isinstance(v, RatConst):
            if v.value == 0:
                return self.fm.group.zero()
            if self.fm.group.rank != 1:
                raise EvaluationUnsupported(
                    "nonzero rational constants need a rank-1 value group")
            if not self.fm.group.coordinate_allowed(0, v.value):
                raise EvaluationUnsupported(f"{v.value} lies outside the value group")
            return self.fm.group.element(v.value)
        val = self.term_valuation(v.term)
        if v.negated:
            if val is INF:
                raise EvaluationUnsupported("-v(0) has no value")
            return -val
        return val

    def eval_atom(self, atom) -> Truth:
        if isinstance(atom, ValAtom):
            try:
                a = self.vexpr_value(atom.left)
                b = self.vexpr_value(atom.right)
            except EvaluationUnsupported:
                return Truth.UNKNOWN
            return Truth.of(_compare_values(a, b, atom.rel))
        if isinstance(atom, EqAtom):
            try:
                a = self.term_carrier(atom.left)
                b = self.term_carrier(atom.right)
            except EvaluationUnsupported:
                try:
                    va = self.term_valuation(atom.left)
                    vb = self.term_valuation(atom.right)
                    if va is not vb and (va is INF or vb is INF or va != vb):
                        return Truth.FALSE  # distinct valuations refute equality
                except EvaluationUnsupported:
                    pass
                return Truth.UNKNOWN
            diff = a - b
            if isinstance(diff, PatternSeries):
                return Truth.of(not diff.has_tails and diff.as_series().is_zero)
            return Truth.of(diff.is_zero)
        if isinstance(atom, InK):
            return self._in_base(atom.term)
        raise StructuralError(f"not an atom: {atom!r}")

    def _in_base(self, t) -> Truth:
        if isinstance(t, Var):
            v = self._resolve(t.name)
            if isinstance(v, ImmediateElement):
                if v.carrier is not None:
                    return Truth.of(not v.carrier.has_tails)
                return Truth.FALSE
            if isinstance(v, (DeclaredValue, Approximant, SeriesElement)):
                return Truth.TRUE
            if isinstance(v, PatternSeries):
                return Truth.of(not v.has_tails)
        # a generator's fact settles x^p (Kummer) or x^p - x (Artin-Schreier)
        # without its carrier
        power = fact = None
        if isinstance(t, Pow):
            power, fact = t, "kummer_generator"
        elif isinstance(t, Sub):
            # x^p - x and its negative x - x^p lie in K together
            pw, x = (t.left, t.right) if isinstance(t.left, Pow) else (t.right, t.left)
            if isinstance(pw, Pow) and pw.base == x:
                power, fact = pw, "as_generator"
        if power is not None and isinstance(power.base, Var):
            v = self._try_resolve(power.base.name)
            if isinstance(v, ImmediateElement) and fact in v.facts \
                    and self._exponent(power.exponent) == self.fm.prime:
                return Truth.TRUE
        try:
            carrier = self.term_carrier(t)
        except EvaluationUnsupported:
            return Truth.UNKNOWN
        if isinstance(carrier, PatternSeries):
            return Truth.of(not carrier.has_tails)
        return Truth.TRUE

    def _try_resolve(self, name):
        try:
            return self._resolve(name)
        except EvaluationUnsupported:
            return None

    # -- quantifiers ------------------------------------------------------

    def eval(self, f) -> Truth:
        if isinstance(f, Quant):
            return self.eval_quant(f)
        if isinstance(f, Not):
            return self.eval(f.body).negated()
        if isinstance(f, BinOp):
            if f.op == "and":
                return _kleene_and(self.eval(f.left), self.eval(f.right))
            if f.op == "or":
                return _kleene_or(self.eval(f.left), self.eval(f.right))
            return _kleene_or(self.eval(f.left).negated(), self.eval(f.right))
        return self.eval_atom(f)

    def _eval_with(self, var: str, value, body, walk=None):
        """walk(body), by default self.eval, with var bound to value; each term
        is valued when the walk reads it."""
        outer = self.bindings
        self.bindings = {**outer, var: value}
        result = (walk or self.eval)(body)
        self.bindings = outer
        return result

    def eval_quant(self, q: Quant) -> Truth:
        if q.domain is Domain.L_MINUS_K:
            if not self.fm.immediates:
                raise StructuralError(
                    "domain L\\K needs a model with a distinguished immediate element")
            # the distinguished elements are exhaustive for this model
            return reduce(_kleene_and if q.kind == "forall" else _kleene_or,
                          [self._eval_with(q.var, im, q.body) for im in self.fm.immediates])
        if q.domain is Domain.K:
            exact = self._oracle(q)
            if exact is not None:
                return exact
        return self._bounded(q)

    # oracle: the quantified atom compares a recognized shape against a value
    def _oracle(self, q: Quant) -> Truth | None:
        if q.var not in free_variables(q.body):
            return self.eval(q.body)  # constant body over a nonempty domain
        walk = self._guarded_shape(q)
        if walk is None:
            return None
        guards, (cside, rel, other, decomposed) = walk
        try:
            w = self.vexpr_value(other)
        except EvaluationUnsupported:
            return None
        if w is INF:
            truth = Truth.of(rel in ("<", "<="))  # the c side is always finite
        else:
            values = _values_cut(decomposed, cside.negated, q.kind, rel)
            if values is not None:
                truth = Truth.of(_holds(values, w))
            else:
                seg, k, w_extra = decomposed
                if k == 0:
                    return None
                # `exists ... = w` where some class is not |k|-divisible: the
                # one candidate is s = r/k, r = sign * w - w_extra, if in G
                s = ((-w if cside.negated else w) - w_extra).over(k)
                truth = Truth.of(s is not None and contains(seg, s))
        for op, guard in reversed(guards):   # `guard -> rest` is `not guard or rest`
            held = self.eval(guard)
            truth = (_kleene_and(held, truth) if op == "and"
                     else _kleene_or(held.negated(), truth))
        return truth

    def _guarded_shape(self, q: Quant):
        """(guards, atom) when the body of the K quantifier q is an atom
        `±v(term) REL other`, term of a recognized shape in q.var and other free
        of it, behind guards that do not name q.var: the (op, guard) pairs,
        outermost first.  atom is (c side, relation read c side first, other
        side, decomposition).  None when q.var hides a name the shapes read."""
        if self._declared(q.var) or q.var in _BUILTINS:
            return None
        guards = []
        body = q.body
        while isinstance(body, BinOp):
            split = _split_guard(q.var, body)
            if split is None:
                return None
            guards.append((body.op, split[0]))
            body = split[1]
        if not isinstance(body, ValAtom):
            return None
        mentions_left = q.var in free_variables(body.left)
        cside = body.left if mentions_left else body.right
        other = body.right if mentions_left else body.left
        rel = body.rel if mentions_left else _flip_rel(body.rel)
        if q.var in free_variables(other) or not isinstance(cside, VOf):
            return None
        decomposed = self._decompose(cside.term, q.var)
        if decomposed is None:
            return None
        return guards, (cside, rel, other, decomposed)

    # -- value sets: the values of v(var) at which a formula holds ----------

    def values(self, f, var: str):
        """The finite w at which f holds when v(var) = w: a Segment, or
        True/False for every w or none.  None when var occurs other than as
        v(var)/-v(var) against a K quantifier's shape, or a quantifier is
        outside the shapes; var is unbound here."""
        if var not in free_variables(f):
            truth = self.eval(f)   # evaluated once for every value of var
            return None if truth is Truth.UNKNOWN else truth is Truth.TRUE
        if not isinstance(f, Quant) or f.domain is Domain.L:
            return None
        if f.domain is Domain.L_MINUS_K:
            if not self.fm.immediates:
                return None
            found = [self._eval_with(f.var, im, f.body, walk=lambda g: self.values(g, var))
                     for im in self.fm.immediates]
            return reduce(lambda a, b: _merge(a, b, union=f.kind == "exists"), found)
        if f.var not in free_variables(f.body):
            return self.values(f.body, var)
        walk = self._guarded_shape(f)
        if walk is None:
            return None
        guards, (cside, rel, other, decomposed) = walk
        if (not isinstance(other, VOf) or other.term != Var(var)
                or var in free_variables(cside)):
            return None
        values = _values_cut(decomposed, cside.negated, f.kind, rel)
        if other.negated and isinstance(values, Segment):
            values = negate(values)   # the set of -w for w = v(var)
        for op, guard in reversed(guards):
            held = self.values(guard, var)
            if values is None or not isinstance(held, bool):
                return None
            if not held:
                values = op == "->"   # a false guard: `and` fails, `->` holds
        return values

    def _decompose(self, term, var):
        """Split v(term) into (segment, k, cofactor value).

        v(term) = cofactors + k * s with s ranging over the segment; k is the
        integer exponent the c-bearing factor carries times the multiplier of
        its shape."""
        split = self._cofactors(term, var)
        shape = split and self._match_shape(split[0], var)
        return (shape[0], split[1] * shape[1], split[2]) if shape else None

    def _cofactors(self, term, var):
        """(factor, e, value) with v(term) = e * v(factor) + value: factor is
        the one factor of term naming var, value the valuation of the others.
        None when another number of factors names var or the others have no
        finite value."""
        factors = _flatten_factors(term)
        with_var = [(f, e) for f, e in factors if var in free_variables(f)]
        if len(with_var) != 1:
            return None
        fvar, e = with_var[0]
        value = self.fm.group.zero()
        try:
            for f, ee in factors:
                if f is fvar:
                    continue
                v = self.term_valuation(f)
                if v is INF:
                    return None
                value = value + v * ee
        except EvaluationUnsupported:
            return None
        return fvar, e, value

    def _match_shape(self, t, var):
        """(v(x - K), multiplier) when t is a _SHAPES row in a distinguished
        element x and c = var, so that v(t) = multiplier * v(x - c) over c in K."""
        terms = _flatten_sum(t)
        signed, names = {}, {var}
        for term, sign in terms:
            power = 1
            if isinstance(term, Pow) and self._exponent(term.exponent) == self.fm.prime:
                term, power = term.base, "p"
            if not isinstance(term, Var):
                return None
            names.add(term.name)
            key = ("c" if term.name == var else "x", power)
            signed[key] = signed.get(key, 0) + sign
        names.remove(var)
        if len(names) != 1:
            return None
        im = self._try_resolve(names.pop())
        if not isinstance(im, ImmediateElement):
            return None
        negated = {key: -sign for key, sign in signed.items()}
        for summands, fact, bound in _SHAPES:
            if len(summands) != len(terms) or summands not in (signed, negated):
                continue
            if fact is not None and fact not in im.facts:
                return None
            try:
                if bound is not None and contains(im.segment, bound(self.fm)):
                    return None
            except EvaluationUnsupported:   # no v(zeta_p - 1) in the group
                return None
            return im.segment, self.fm.prime if ("c", "p") in summands else 1
        return None

    # bounded fallback: enumerate candidate witnesses
    def _bounded(self, q: Quant) -> Truth:
        self.bounded_used = True
        for label, cand in self.fm.candidates:
            self.candidates_used += 1
            r = self._eval_with(q.var, cand, q.body)
            if q.kind == "exists" and r is Truth.TRUE:
                self.witness = label
                return Truth.TRUE
            if q.kind == "forall" and r is Truth.FALSE:
                self.witness = label
                return Truth.FALSE
        return Truth.UNKNOWN  # the domain is infinite; the pool cannot settle it


_ZETA_MINUS_ONE = Sub(Var("zeta_p"), IntLit(1))


def _bound_carrier(name: str, value):
    """The exact carrier (series or pattern) of what name is bound to."""
    if isinstance(value, (ImmediateElement, Approximant)):
        if value.carrier is None:
            raise EvaluationUnsupported(f"{name} has no series form")
        return value.carrier
    if isinstance(value, (SeriesElement, PatternSeries)):
        return value
    if isinstance(value, DeclaredValue):
        raise EvaluationUnsupported(f"{name} is value-only")
    raise StructuralError(f"{name} is bound to {value!r}, which is no element of L")


def _bound_valuation(name: str, value):
    """v(name) where name is bound to value: its declared valuation, else its
    carrier's."""
    if value.__class__ is SeriesElement:
        return value.valuation()
    if isinstance(value, DeclaredValue):
        return value.valuation
    return _carrier_valuation(_bound_carrier(name, value))


def _carrier_valuation(carrier):
    if not isinstance(carrier, PatternSeries):
        return carrier.valuation()
    if not carrier.has_tails:
        return carrier.finite_part.valuation()
    return val_diff(carrier, carrier.model.zero())


def _flatten_factors(t, exponent=1):
    if isinstance(t, Mul):
        return _flatten_factors(t.left, exponent) + _flatten_factors(t.right, exponent)
    if isinstance(t, Recip):
        return _flatten_factors(t.term, -exponent)
    if isinstance(t, Pow) and isinstance(t.exponent, int):
        return [(f, e * t.exponent) for f, e in _flatten_factors(t.base, exponent)]
    return [(t, exponent)]


def _flatten_sum(t, sign=1):
    if isinstance(t, Add):
        return _flatten_sum(t.left, sign) + _flatten_sum(t.right, sign)
    if isinstance(t, Sub):
        return _flatten_sum(t.left, sign) + _flatten_sum(t.right, -sign)
    return [(t, sign)]


def _flip_rel(rel: str) -> str:
    return {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}[rel]


_RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _compare_values(a, b, rel: str) -> bool:
    if a is INF or b is INF:
        if rel == "=":
            return a is b
        if rel in ("<", "<="):
            return (b is INF) and (a is not INF or rel == "<=")
        return (a is INF) and (b is not INF or rel == ">=")
    return _RELATIONS[rel](a, b)


def _split_guard(var: str, body: BinOp):
    """(guard, rest) for a body `guard and rest`, `rest and guard` or
    `guard -> rest` whose guard does not name var."""
    if body.op == "and":
        pairs = ((body.left, body.right), (body.right, body.left))
    elif body.op == "->":
        pairs = ((body.left, body.right),)
    else:
        return None
    for guard, rest in pairs:
        if var not in free_variables(guard):
            return guard, rest
    return None


def _values_cut(decomposed, negated: bool, quant: str, rel: str):
    """The finite w for which `quant c in K : cside REL w` holds, where cside is
    v(term), or -v(term) when negated, and `decomposed` is _decompose(term):
    a Segment, True/False for every w or none, or None when no cut is it."""
    seg, k, w_extra = decomposed
    # cside = sign * (w_extra + k * s) over s in seg, so the atom reads
    # k * s REL r with r = sign * w - w_extra once the sign is moved over
    sign = -1 if negated else 1
    if sign < 0:
        rel = _flip_rel(rel)
    if k == 0:
        # a zeroth power: the c side is w_extra for every c; the atom reads 0 REL r
        if rel == "=":
            return None   # the single point r = 0 is no cut
        cut = element_cut(w_extra.group.zero(), closed=rel in ("<=", ">="),
                          direction=Direction.FINAL if rel in ("<", "<=")
                          else Direction.INITIAL)
    else:
        if k < 0:
            rel = _flip_rel(rel)
        if quant == "exists" and rel == "=" and not all(   # the image k * S is a cut
                seg.group._denominator_allowed(i, abs(k)) for i in range(seg.group.rank)):
            return None   # only when every class is |k|-divisible
        cut = _decide(scale_int(seg, abs(k)), quant, rel)
        if isinstance(cut, bool):
            return cut
        if k < 0:
            cut = negate(cut)   # the set was of -r
    if not w_extra.is_zero:
        cut = shift(cut, w_extra)   # the set of sign * w
    return negate(cut) if sign < 0 else cut


def _decide(seg: Segment, quant: str, rel: str):
    """The r with (quant s in seg : s REL r), for an initial segment seg: a
    Segment, or True/False for every r or none.  For `exists ... =` it is seg
    itself."""
    if quant == "exists":
        if rel in (">=", "="):
            return seg
        if rel == ">":
            return _without_max(seg)
        return True    # <= and <: initial segments are unbounded below
    if rel == "<":
        return _complement(seg)
    if rel == "<=":
        return _complement(_without_max(seg))   # the complement and the maximum
    return False       # >=, >, =: fail far down the segment


def _without_max(seg: Segment) -> Segment:
    """An initial segment less its maximum; only an element cut has one."""
    if seg.kind is CutKind.ELEMENT:
        return Segment(seg.direction, seg.level, seg.shift, False)
    return seg


def _complement(seg: Segment) -> Segment:
    return Segment(seg.direction.flipped(), seg.level, seg.shift, not seg.closed)


def _holds(values, w) -> bool:
    """Whether a finite value w lies in a value set."""
    return values if isinstance(values, bool) else contains(values, w)


def _merge(a, b, union: bool):
    """a | b (or a & b) for two value sets; None unless both are cuts of one
    direction, which are nested, or one is True/False."""
    if a is None or b is None:
        return None
    for x, y in ((a, b), (b, a)):
        if isinstance(x, bool):
            return x if x is union else y
    if a.direction is not b.direction:
        return None
    b_within_a = (is_subset(b, a) if a.is_final
                  else is_subset(negate(b), negate(a)))
    return a if b_within_a is union else b


def free_variables(node) -> frozenset:
    """The names a formula, valuation expression or term uses unbound, found
    once per node and kept on it."""
    try:
        return node._free
    except AttributeError:
        pass
    if isinstance(node, Var):
        found = frozenset({node.name})
    elif isinstance(node, _BINARY):
        found = free_variables(node.left) | free_variables(node.right)
    elif isinstance(node, Pow):
        found = free_variables(node.base)
    elif isinstance(node, (Recip, VOf, InK)):
        found = free_variables(node.term)
    elif isinstance(node, Not):
        found = free_variables(node.body)
    elif isinstance(node, Quant):
        found = free_variables(node.body) - {node.var}
    else:
        found = frozenset()
    _node_free(node, found)
    return found


def evaluate(phi, fmodel: FormulaModel, bindings: dict | None = None) -> EvalResult:
    """Three-valued evaluation; exact where the segment oracle applies.  With one
    binding it may be read off a value set compiled once per model."""
    if bindings and len(bindings) == 1:
        answer = _compiled_answer(phi, fmodel, bindings)   # the names are checked when compiled
        if answer is not None:
            return answer
    ast = _parse_text(phi) if isinstance(phi, str) else phi
    bindings = bindings or {}
    _check_bound(ast, fmodel, bindings)
    ev = _Evaluator(fmodel, bindings)
    value = ev.eval(ast)
    mode = "bounded" if ev.bounded_used else "oracle"
    return EvalResult(value, mode, ev.witness, ev.candidates_used)


def _compiled_answer(phi, fmodel: FormulaModel, bindings: dict) -> EvalResult | None:
    """evaluate's result, read from what was compiled of phi as given for the one
    binding at the finite valuation of the term it reads; None, for a walk, when
    either is missing.  term None is the bound name, whose valuation is read from
    the binding; a walker is built only to value another term."""
    (name, carrier), = bindings.items()
    entry = fmodel.compiled_answers.get(phi)
    if entry is None or entry[0] != name:
        _values, answer, term = _compiled(
            _parse_text(phi) if isinstance(phi, str) else phi, fmodel, name)
        entry = fmodel.compiled_answers[phi] = (
            name, answer, None if term.__class__ is Var else term)
    _name, answer, term = entry
    if not answer:
        return None
    try:
        if term is not None:
            w = _Evaluator(fmodel, bindings).term_valuation(term)
        elif carrier.__class__ is SeriesElement:
            w = carrier.valuation()
        elif carrier.__class__ is DeclaredValue:
            w = carrier.valuation
        else:
            w = _bound_valuation(name, carrier)
    except EvaluationUnsupported:
        return None
    return None if w is INF else answer(w)


def _compiled(ast, fmodel: FormulaModel, var: str):
    """(values, answer, term), kept per model: the value set of v(var) in ast,
    and answer(v(term)), evaluate's result, or False where it has none: var
    names what a quantifier or the model binds, or ast neither compiled without
    enumerating candidates (the walk reports them), with term var, nor is a K
    quantifier answered from its candidates (_first_stops)."""
    entry = fmodel.value_sets.get((ast, var))
    if entry is None:
        _check_bound(ast, fmodel, {var})
        ev = _Evaluator(fmodel, {})
        values = ev.values(ast, var)
        answer, term = False, Var(var)
        if var in fmodel.names or _binds(ast, var):
            pass   # the walk reads var as the model or a quantifier binds it
        elif values is not None and not ev.bounded_used:
            answer = _member_kernel(values)
        else:
            answer, term = _first_stops(ast, ev, var) or (answer, term)
        entry = fmodel.value_sets[ast, var] = values, answer, term
    return entry


def _member_kernel(values):
    """answer(w) by membership of w in the value set: a partial, which pickles, of
    _member_answer over the cut's integers, or of _first_stop with one result."""
    false, true = EvalResult(Truth.FALSE, "oracle"), EvalResult(Truth.TRUE, "oracle")
    if values.__class__ is bool:
        return partial(_first_stop, bisect_left, (), (true if values else false,))
    d = values.shift
    return partial(_member_answer, d.group, d.nums[:values.level], d.den,
                   values.direction is Direction.FINAL, true, false,
                   true if values.closed else false)


def _member_answer(group, nums: tuple, den: int, final: bool, inside: EvalResult,
                   outside: EvalResult, at: EvalResult, w) -> EvalResult:
    """segment.contains of w, with its foreign-group error, answered inside,
    outside or at the shift through the level (nums over den)."""
    if w.group is not group and w.group != group:
        raise StructuralError("element belongs to a different group descriptor")
    wd = w.den
    for a, b in zip(w.nums, nums):
        a, b = a * den, b * wd
        if a != b:
            return inside if (a > b) is final else outside
    return at


_NEGATED_REL = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}


def _first_stops(q, ev: _Evaluator, var: str):
    """(answer, term) for a K quantifier q that the oracle leaves to bounded
    enumeration, whose body is one atom `side REL ±v(other)` or its mirror,
    with REL an order, side naming q.var and otherwise names of the model, and
    other naming var but not q.var: answer(v(term)) is the walk's result.  side
    is valued on each candidate once per model (FormulaModel.side_values); the
    walk ends at the first candidate whose value has `a stop ±v(other)`, the
    first place the prefix maximum (for > and >=) or minimum has it, so only
    the candidates that move that extreme are kept.  When other is term, its
    one factor in var, of exponent 1, times cofactors of finite value (t in
    v(b*t)), these are valued once, here, and folded into keys ±extreme -
    cofactors; else term is other.  answer is one bisect of the keys.  None
    for any other formula, and where no candidate values side."""
    if not (isinstance(q, Quant) and q.domain is Domain.K and isinstance(q.body, ValAtom)
            and q.body.rel != "=" and ev._guarded_shape(q) is None):
        return None
    atom, names = q.body, ev.fm.names | {q.var}
    for side, other, rel in ((atom.left, atom.right, atom.rel),
                             (atom.right, atom.left, _flip_rel(atom.rel))):
        if (isinstance(side, VOf) and isinstance(other, VOf)
                and q.var in free_variables(side) and free_variables(side) <= names
                and var in free_variables(other) and q.var not in free_variables(other)):
            break
    else:
        return None

    def value(vexpr):
        try:
            return ev.vexpr_value(vexpr)
        except EvaluationUnsupported:
            return None

    pool = ev.fm.candidates
    sides = ev.fm.side_values.get((side, q.var))
    if sides is None:   # side names q.var and the model alone, so it is the model's
        sides = ev.fm.side_values[side, q.var] = tuple(
            ev._eval_with(q.var, cand, side, walk=value) for _label, cand in pool)
    if all(a is None for a in sides):
        return None
    stop = rel if q.kind == "exists" else _NEGATED_REL[rel]
    rising = stop in (">", ">=")
    ends = Truth.TRUE if q.kind == "exists" else Truth.FALSE
    split = ev._cofactors(other.term, var)
    term, cofactors = ((split[0], split[2]) if split and split[1] == 1
                       else (other.term, ev.fm.group.zero()))
    keys, results, extreme = [], [], None
    last = EvalResult(Truth.UNKNOWN, "bounded", None, len(pool))
    for used, ((label, _cand), a) in enumerate(zip(pool, sides), 1):
        if a is INF and rising:   # stops every finite value; INF lowers no minimum
            last = EvalResult(ends, "bounded", label, used)
            break
        if a is None or a is INF or (
                extreme is not None and not (a > extreme if rising else a < extreme)):
            continue
        extreme = a
        keys.append((-a if other.negated else a) - cofactors)
        results.append(EvalResult(ends, "bounded", label, used))
    rel = _flip_rel(stop) if other.negated else stop
    if rel in ("<", "<="):
        # falling keys, stored reversed: when c of them have `key REL w`, the
        # walk stops at the c-th kept candidate from the end, results[c]
        keys.reverse()
        results = [last] + results[::-1]
    else:
        results.append(last)
    find = bisect_right if rel in (">", "<=") else bisect_left
    return partial(_first_stop, find, keys, results), term


def _first_stop(find, keys: list, results: list, w) -> EvalResult:
    """results[find(keys, w)], the walk's result at v(term) = w (_first_stops)."""
    return results[find(keys, w)]


def _binds(f, name: str) -> bool:
    """Whether a quantifier in the formula f binds name."""
    if isinstance(f, (Quant, Not)):
        return getattr(f, "var", None) == name or _binds(f.body, name)
    return isinstance(f, BinOp) and (_binds(f.left, name) or _binds(f.right, name))


def value_set(phi, fmodel: FormulaModel):
    """The finite values of v(b) at which phi holds, compiled once per model: a
    Segment, or True/False for every value or none.  Returns None when b
    occurs other than as v(b)/-v(b) against a recognized shape, or a K
    quantifier falls outside the shapes.
    """
    ast = parse(phi) if isinstance(phi, str) else phi
    return _compiled(ast, fmodel, "b")[0]


def _check_bound(ast, fmodel: FormulaModel, bound) -> None:
    unbound = free_variables(ast).difference(fmodel.names, bound)
    if unbound:
        raise StructuralError(f"unbound variables: {sorted(unbound)}")


# --------------------------------------------------------------------------
# Agreement checking of a definition against a directly computed set

class AgreementReport(_Frozen):
    __slots__ = _fields = ("definition", "total", "agreements", "disagreements", "unknowns")

    @property
    def unknown_rate(self) -> float:
        return self.unknowns / self.total if self.total else 0.0

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "definition": self.definition,
            "samples": self.total,
            "agreements": self.agreements,
            "disagreements": list(self.disagreements),
            "unknowns": self.unknowns,
            "unknown_rate": self.unknown_rate,
            "passed": self.passed,
        }


def membership(direct, value) -> bool:
    """Membership of a sample by its valuation, for ideals and coarsenings:
    INF, or a finite value in the direct object's value set."""
    values = _direct_values(direct)
    return value is INF or _holds(values, value)


def _direct_values(direct):
    """The finite values of an ideal's or a coarsening ring's members, as a
    value set (True for the whole group)."""
    if isinstance(direct, IdealDescriptor):
        return direct.values
    if isinstance(direct, ConvexSubgroup):
        return coarsening(direct.group, direct.level)[1].values if direct.level else True
    raise StructuralError("direct object must be an ideal or a convex subgroup")


def exact_verdict(phi, direct, fmodel: FormulaModel) -> bool | None:
    """Whether phi defines the direct object: True or False when evaluate
    answers b by membership in a value set compiled once per model, as that
    set is or is not the direct object's; None when phi does not compile."""
    ast = parse(phi) if isinstance(phi, str) else phi
    values, answer, _term = _compiled(ast, fmodel, "b")
    if not answer or values is None:
        return None
    return values == _direct_values(direct)


def check_definition(phi, direct, fmodel: FormulaModel, samples,
                     name: str = "") -> AgreementReport:
    """Compare formula truth against descriptor membership on each sample.

    Samples are (label, carrier, valuation) triples, each bound to the free
    variable b and evaluated; TRUE/FALSE disagreements are reported as hard
    failures, UNKNOWNs are counted.  When the exact verdict is True, a sample
    whose carrier has its declared finite valuation agrees without being
    evaluated: evaluate would test that valuation for membership in the
    direct object's set.  Every sample of a SampleDraw is such a sample, so
    one agrees in full without being drawn.
    """
    ast = parse(phi) if isinstance(phi, str) else phi
    name = name or (phi if isinstance(phi, str) else print_formula(ast))
    exact = exact_verdict(ast, direct, fmodel) is True
    if exact and samples.__class__ is SampleDraw:
        return AgreementReport(name, len(samples), len(samples), (), 0)
    agreements = 0
    unknowns = 0
    bad = []
    total = 0
    for label, carrier, value in samples:
        total += 1
        if exact and value is not INF:
            try:
                if _bound_valuation("b", carrier) == value:
                    agreements += 1
                    continue
            except EvaluationUnsupported:
                pass
        got = evaluate(ast, fmodel, bindings={"b": carrier}).value
        want = membership(direct, value)
        if got is Truth.UNKNOWN:
            unknowns += 1
            continue
        if (got is Truth.TRUE) == want:
            agreements += 1
        else:
            bad.append({"sample": label, "formula": got.value, "direct": want})
    return AgreementReport(name, total, agreements, tuple(bad), unknowns)


# Named definition texts used by the command-line reports.
DEFINITIONS = {
    "ram-ideal-as": (
        "exists x in L\\K : exists c in K : inK(x^p - x) and v(b) >= -v(x - c)"),
    "max-ideal": (
        "exists x in L\\K : exists c in K : inK(x^p - x) and -v(x - c) <= v(b)"),
    "coarse-ring-as": "forall c in K : v(theta^p - theta - c^p + c) < v(b)",
    "ram-ideal-kummer": (
        "exists x in L\\K : exists c in K : inK(x^p) and "
        "v(b) >= v((zeta_p - 1) * (1/(x - c)))"),
    "coarse-ring-kummer": (
        "forall c in K : v((eta^p - c^p) * (1/(zeta_p - 1))^p) < v(b)"),
}
