"""Correctness oracles that share no code with valcuts.

Cuts are checked by brute-force membership on integer-scaled coordinates:
every coordinate is multiplied by Space.D = 60 * p^8, so group elements
become int tuples compared lexicographically (index 0 dominant).  A cut is
decided on "critical points" near its boundary: the boundary itself, the
boundary moved by a small step in each class, and the boundary moved by a
huge amount in the classes below.  Two step sizes are used: Space.test_step
for probe points and the finer Space.low_step (with HUGE_LOW > HUGE_TEST)
for the lowest points of a final segment, so an infimum that a sumset does
not attain is still approached from inside.

Schedules are checked against closed forms, reports at golden size against
tests/goldens, definability answers against the value of the sample.
"""

from __future__ import annotations

from fractions import Fraction

HUGE_TEST = 10**6
HUGE_LOW = 10**12


class Space:
    """Integer-scaled coordinates for one group descriptor."""

    def __init__(self, group: dict):
        self.comps = group["comps"]
        self.n = len(self.comps)
        self.p = group["p"]
        self.D = 60 * self.p**8  # a multiple of every generated denominator
        dense = [k != "int" for k in self.comps]
        self.test_step = [self.p**4 if d else self.D for d in dense]
        self.low_step = [1 if d else self.D for d in dense]

    def el(self, coords) -> tuple:
        out = []
        for c in coords:
            f = Fraction(c) * self.D
            if f.denominator != 1:
                raise ValueError(f"coordinate {c} is finer than the oracle scale")
            out.append(int(f))
        return tuple(out)

    def unit(self, i: int, amount: int) -> tuple:
        return tuple(amount if j == i else 0 for j in range(self.n))

    def cut(self, data: dict) -> tuple:
        """(kind, direction, boundary, closed, level) from op data or to_json."""
        if "t" in data:
            kind = data["t"]
            boundary = self.el(data["g"] if kind == "el" else data["d"])
            return (kind, data["dir"], boundary, data["closed"],
                    self.n if kind == "el" else data["level"])
        kind = "el" if data["kind"] == "element" else "sub"
        if data["kind"] not in ("element", "subgroup"):
            raise ValueError(f"unexpected cut kind {data['kind']}")
        boundary = self.el(data["gamma"] if kind == "el" else data["shift"])
        return (kind, data["direction"], boundary, data["closed"],
                self.n if kind == "el" else data["level"])


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def neg(a):
    return tuple(-x for x in a)


def _position(y, level) -> int:
    """-1 below, 0 inside, +1 above the convex subgroup of the given level."""
    for i in range(level):
        if y[i]:
            return 1 if y[i] > 0 else -1
    return 0


def member(cut, x) -> bool:
    kind, direction, b, closed, level = cut
    if kind == "el":
        if direction == "final":
            return x >= b if closed else x > b
        return x <= b if closed else x < b
    pos = _position(sub(x, b), level)
    if direction == "final":
        return pos >= 0 if closed else pos > 0
    return pos <= 0 if closed else pos < 0


def mirror(cut):
    kind, direction, b, closed, level = cut
    return (kind, "initial" if direction == "final" else "final", neg(b), closed, level)


def low_point(space: Space, cut):
    """A point of a final cut within LOW_STEP of its infimum."""
    kind, direction, b, closed, level = cut
    assert direction == "final"
    pt = list(b)
    if kind == "el":
        if not closed:
            pt[space.n - 1] += space.low_step[space.n - 1]
        return tuple(pt)
    if not closed:
        pt[level - 1] += space.low_step[level - 1]
    for j in range(level, space.n):
        pt[j] -= HUGE_LOW * space.D
    return tuple(pt)


def critical_points(space: Space, boundaries):
    pts = set()
    for b in boundaries:
        pts.add(b)
        for i in range(space.n):
            for s in (1, -1):
                pts.add(add(b, space.unit(i, s * space.test_step[i])))
                moved = list(add(b, space.unit(i, s * space.test_step[i])))
                for j in range(i + 1, space.n):
                    moved[j] += s * HUGE_TEST * space.D
                pts.add(tuple(moved))
                moved = list(b)
                for j in range(i, space.n):
                    moved[j] -= s * HUGE_TEST * space.D
                pts.add(tuple(moved))
    return pts


def _same_set(space, want, got_cut, boundaries, label):
    for z in critical_points(space, boundaries):
        if want(z) != member(got_cut, z):
            return f"{label}: membership differs at {z}"
    return None


# --------------------------------------------------------------------------
# cut-algebra

def check_cut_op(op: dict, out) -> str | None:
    space = Space(op["group"])
    kind = op["kind"]
    if kind == "contains":
        want = member(space.cut(op["cut"]), space.el(op["x"]))
        return None if out == want else f"contains: got {out}, want {want}"
    if kind == "normalize":
        raw = space.cut(op["cut"])
        got = space.cut(out)
        return _same_set(space, lambda z: member(raw, z), got, [raw[2], got[2]],
                         "normalize")
    if kind == "is_subset":
        a, b = space.cut(op["a"]), space.cut(op["b"])
        want = member(b, low_point(space, a))
        return None if out == want else f"is_subset: got {out}, want {want}"
    if kind == "shift":
        raw = space.cut(op["cut"])
        g = space.el(op["g"])
        got = space.cut(out)
        return _same_set(space, lambda z: member(raw, sub(z, g)), got,
                         [add(raw[2], g), got[2]], "shift")
    if kind == "sum":
        a, b = space.cut(op["a"]), space.cut(op["b"])
        w = low_point(space, b)
        got = space.cut(out)
        return _same_set(space, lambda z: member(a, sub(z, w)), got,
                         [add(a[2], b[2]), got[2]], "sum")
    if kind == "scale_int":
        raw = space.cut(op["cut"])
        m = op["m"]
        final = raw if raw[1] == "final" else mirror(raw)
        w = low_point(space, final)
        rest = tuple((m - 1) * c for c in w)
        sign = 1 if raw[1] == "final" else -1

        def want(z):
            zz = z if sign > 0 else neg(z)
            return member(final, sub(zz, rest))

        got = space.cut(out)
        bm = tuple(m * c for c in raw[2])
        return _same_set(space, want, got, [bm, got[2]], "scale_int")
    if kind == "invariance_ring":
        raw = space.cut(op["cut"])
        level = raw[4]
        if out["H_level"] != level:
            return f"invariance_ring: level {out['H_level']}, want {level}"
        got = space.cut(out["M"])
        zero = tuple([0] * space.n)
        return _same_set(space, lambda z: _position(z, level) > 0, got,
                         [zero, got[2]], "invariance_ring maximal ideal")
    raise ValueError(kind)


def check_ext_op(op: dict, out: dict) -> str | None:
    if not out["containment_holds"]:
        return "containment_holds is false"
    group = op["group"]
    n = len(group["comps"])
    p = group["p"]
    if op["ext"] == "schedule":
        limit = [Fraction(c) for c in op["limit"]]
        scale = [Fraction(c) for c in op["scale"]]
        want = [[str(l - s / p ** (k + 1)) for l, s in zip(limit, scale)]
                for k in range(op["depth"])]
        if out["schedule"] != want:
            return "declared schedule differs from limit - scale/p^(k+1)"
        want_level = op["scale_class"] + 1
        want_kind = "independent" if op["independent"] else "dependent"
    elif op["ext"] == "sigma":
        cut = op["cut"]
        if cut["t"] == "el":
            want_level = n
            zero = all(Fraction(c) == 0 for c in cut["g"])
            indep = (not cut["closed"] and zero and group["comps"][-1] != "int")
        else:
            want_level = cut["level"]
            indep = all(Fraction(c) == 0 for c in cut["d"][:want_level])
        want_kind = "independent" if indep else "dependent"
    else:
        want_level = op["star"] + 1
        want_case = ("dense_archimedean_step" if group["comps"][op["star"]] != "int"
                     else "discrete_archimedean_step")
        if out["case"] != want_case:
            return f"defectless case {out['case']}, want {want_case}"
        if out["H_E_level"] != want_level:
            return f"H_E level {out['H_E_level']}, want {want_level}"
        return None
    if out["H_E_level"] != want_level:
        return f"H_E level {out['H_E_level']}, want {want_level}"
    if out["classification"] != want_kind:
        return f"classification {out['classification']}, want {want_kind}"
    return None


# --------------------------------------------------------------------------
# deep-schedule

def closed_form_schedule(p: int, rank: int, cls: int, depth: int):
    """Rows -1/p^(k+1) placed in class `cls`, k = 0 .. depth-1."""
    rows = []
    for k in range(depth):
        row = ["0"] * rank
        row[cls] = str(Fraction(-1, p ** (k + 1)))
        rows.append(row)
    return rows


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def check_report(op: dict, rc: int, report: dict, goldens: dict) -> str | None:
    argv = op["argv"]
    command = argv[0]
    if "golden" in op and report != goldens[op["golden"]]:
        return f"report differs from golden {op['golden']}"
    p = int(_flag(argv, "--p", "2"))
    depth = int(_flag(argv, "--depth", "12"))
    if command == "prescribe":
        if rc != 0 or not report.get("passed"):
            return "prescribe did not pass"
        rank = int(_flag(argv, "--rank", "1"))
        select = [int(x) for x in _flag(argv, "--select", "").split(",") if x]
        if [w["level"] for w in report["witnesses"]] != select:
            return "witness levels differ from the selection"
        for w in report["witnesses"]:
            # equal char: class j-1; mixed: -vp/p^(i+1) with vp the unit of class 0
            want = closed_form_schedule(p, rank, w["level"] - 1, depth)
            if w["schedule"] != want or not w["passed"]:
                return f"prescribe witness at level {w['level']}: schedule or check wrong"
        return None
    if rc != 0:
        return f"exit code {rc}"
    rank = {"abhyankar": 1, "example-e1": 2, "example-e2": 2}[command]
    classes = {"abhyankar": {"theta": 0}, "example-e1": {"theta_x": 0, "theta_t": 1},
               "example-e2": {"theta_t": 1}}[command]
    names = [e["certificate"]["extension"] for e in report["extensions"]]
    if sorted(names) != sorted(classes):
        return f"extensions {names}, want {sorted(classes)}"
    for e in report["extensions"]:
        cert = e["certificate"]
        want = closed_form_schedule(p, rank, classes[cert["extension"]], depth)
        if cert["schedule"] != want:
            return f"{cert['extension']}: schedule differs from -1/p^(k+1)"
        if not e["omega"]["containment_holds"]:
            return f"{cert['extension']}: containment_holds is false"
    for c in report["definability"]:
        if c["disagreements"] or not c["passed"]:
            return f"definability {c['definition']} disagrees"
    return None


def check_probe(op: dict, value) -> str | None:
    want = [str(Fraction(-1, op["p"] ** (op["k"] + 1)))]
    return None if value == want else f"val_diff {value}, want {want}"


# --------------------------------------------------------------------------
# definability

def _lex_sign(coords) -> int:
    for c in coords:
        f = Fraction(c)
        if f:
            return 1 if f > 0 else -1
    return 0


def _coarse_sign(coords) -> int:
    """Sign of the class-0 coordinate: position against the subgroup H_1."""
    f = Fraction(coords[0])
    return (f > 0) - (f < 0)


def truth(scenario: str, name: str, b) -> bool:
    """Closed-form truth of a definition or bounded formula at v(b).

    Every target set is {v > 0} or {v >= 0} read in the class that the
    witness lives in: the whole (rank-1) group for abhyankar and
    kummer-mixed, class 0 (above H_1) for example-e1's theta_x.
    """
    sign = _coarse_sign(b) if scenario == "example-e1" else _lex_sign(b)
    if name in ("ram-ideal-as", "max-ideal", "ram-ideal-kummer"):
        return sign > 0
    if name in ("coarse-ring-as", "coarse-ring-kummer"):
        return sign >= 0
    # v(theta - c*c) runs over v(theta - K), the classes below 0 (below H_1)
    if name.endswith("-t"):
        # v(b*t) = v(b) + v(t); v(t) is inside H_1 for example-e1
        if scenario == "example-e1":
            shifted = sign
        else:
            shifted = _lex_sign([Fraction(b[0]) + 1])
    else:
        shifted = sign
    at_or_above_zero = shifted >= 0
    return at_or_above_zero if name.startswith("sq-forall") else not at_or_above_zero


def check_eval(op: dict, value: str) -> str | None:
    if value == "UNKNOWN":
        if op["formula"] is None:
            return "an oracle definition answered UNKNOWN"
        return None
    want = truth(op["scenario"], op["name"], op["b"])
    if (value == "TRUE") != want:
        return f"{op['name']} at v(b)={op['b']}: got {value}, want {want}"
    return None
