"""Command-line entry point: worked scenarios, config runs, JSON reports.

Every command writes one deterministic JSON document: keys are sorted, all
numbers are exact strings, the sample seed and truncation depth ride along,
and repeated runs with the same flags are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import (
    ConfigError,
    ConfigReader,
    InvalidSelectionError,
    ParseError,
    StructuralError,
    ValcutsError,
    built,
)
from .extension import (
    DeclaredSchedule,
    DefectDatum,
    DefectlessDatum,
    DefectlessKind,
    ExtensionKind,
    classify,
    defectless_analyze,
    positive_vp,
)
from .formlang import (
    DEFINITIONS,
    DeclaredValue,
    check_definition,
    evaluate,
    exact_verdict,
    free_variables,
    parse,
)
from .gpsfield import FieldModel, PatternSeries, Tail, parse_element
from .kaehler import containment_holds, present
from .ogroup import Component, GroupDescriptor, is_prime
from .prescribe import CharCase, build, verify
from .scenarios import SCENARIOS, samples_for
from .segment import from_json as segment_from_json
from .segment import to_json as segment_to_json

SCHEMA_VERSION = 1
DEFAULT_DEPTH = 12


# The shape of every report.  The code builds reports, so they are not
# re-validated at run time; the test suite checks each one it emits.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "definability": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["definition", "samples", "agreements",
                             "disagreements", "unknowns", "unknown_rate", "passed"],
            },
        },
    },
    "allOf": [
        {"if": {"properties": {"command": {"enum": [
            "abhyankar", "example-e1", "example-e2", "kummer-mixed"]}}},
         "then": {"required": ["prime", "depth", "seed", "model", "extensions",
                               "definability", "realized_levels"]}},
        {"if": {"properties": {"command": {"const": "prescribe"}}},
         "then": {"required": ["passed", "witnesses", "exclusions",
                               "chain_order_isomorphic", "chain_bijection"]}},
        {"if": {"properties": {"command": {"enum": ["classify", "kaehler"]}}},
         "then": {"required": ["certificate", "config_hash", "depth"]}},
        {"if": {"properties": {"command": {"const": "eval"}}},
         "then": {"required": ["formula", "result", "scenario"]}},
        {"if": {"properties": {"command": {"const": "check-def"}}},
         "then": {"required": ["exact", "report", "scenario", "seed"],
                  "properties": {"exact": {"type": ["boolean", "null"]}}}},
    ],
}


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _config_hash(config: dict) -> str:
    import hashlib   # here, not at the top: no other command loads it and OpenSSL

    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def load_config(path: str) -> tuple:
    """The config document at `path`, with the datum and the depth it states."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    # unreadable, not UTF-8, not JSON, or nested deeper than the decoder recurses
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(f"--config {path}: {err}", fields=["--config"]) from None
    return (config, *datum_from_config(config))


def datum_from_config(config: dict) -> tuple:
    """The datum a config document states and its depth, read in one walk.

    Each object is read by a `ConfigReader`, which reads only the fields of
    the extension's `kind` and of the generator's `type`.  The values are
    checked against each other once the walk has found no error.
    """
    doc = ConfigReader(config)
    doc.get("schema", int, among=(SCHEMA_VERSION,))
    label = doc.get("label", str, "configured")
    depth = doc.get("depth", int, DEFAULT_DEPTH, low=1)
    gspec = doc.object("group")
    components = gspec.get("components", list)
    for n, component in enumerate(components or ()):
        gspec.check(f"components/{n}", component, str, among=tuple(c.value for c in Component))
    if components == []:
        gspec.fail("components", "expected at least one component")
    p = gspec.get("p", int, low=2)
    rank = gspec.get("rank", int, None, low=1)
    if rank is not None and components is not None and rank != len(components):
        gspec.fail("rank", f"{rank} does not match the {len(components)} components")
    group = gspec.build("p", GroupDescriptor, components, p)
    ext = doc.object("extension")
    kind = ext.kind("kind", tuple(k.value for k in ExtensionKind))
    degree = ext.get("degree", int, low=2)
    residue_char = ext.get("residue_char", int, None, low=0)
    vp = ext.element("vp", group, None)
    if kind == "defectless_value":
        star_index = ext.get("star_index", int, low=0)
        x0_value = ext.element("x0_value", group)
        subkind = ext.get("subkind", str, "value_only",
                          among=tuple(k.value for k in DefectlessKind))
        v_eta_minus_1 = ext.element("v_eta_minus_1", group, None)
    elif kind is not None:
        char = ext.get("char", int, None, low=0)
        sigma_shift = ext.element("sigma_shift", group, None)
        gen = ext.object("generator", missing="a defect extension needs a generator")
        gtype = gen.kind("type", ("pattern", "schedule", "sigma"))
        synthetic = ext.get("synthetic", bool, gtype == "sigma")
        if gtype == "pattern":
            finite = gen.get("finite", str, "")
            tails = [(tail.get("coeff", int, 1), tail.element("gamma", group),
                      tail.get("start", int, 1)) for tail in gen.objects("tails")]
        elif gtype == "schedule":
            limit, scale = gen.element("limit", group), gen.element("scale", group)
            start = gen.get("start", int, 0)
        elif gtype == "sigma":
            segment = gen.get("segment", dict)
    doc.close()
    if residue_char and not ext.build("residue_char", is_prime, residue_char):
        raise ConfigError.at("extension/residue_char", f"{residue_char} is neither 0 nor prime")
    if not ext.build("degree", is_prime, degree):
        raise ConfigError.at("extension/degree", f"{degree} is not prime")
    if kind == "defectless_value":
        # the degree is prime and the elements are the group's: vp and star_index are left
        ext.build("vp", positive_vp, vp)
        return ext.build(
            "star_index", DefectlessDatum, name=label, group=group, q=degree,
            star_index=star_index, x0_value=x0_value, subkind=DefectlessKind(subkind),
            residue_char=residue_char or 0, vp=vp, v_eta_minus_1=v_eta_minus_1), depth
    if char is None:
        char = group.prime if kind == "as_defect" else 0
    elif char and not is_prime(char):
        raise ConfigError.at("extension/char", f"{char} is not prime")
    model = ext.build(
        "residue_char", FieldModel, name=label, char=char,
        residue_char=char or group.prime if residue_char is None else residue_char,
        value_group=group, vp=vp)
    if degree != model.residue_char:
        raise ConfigError.at("extension/degree", f"a defect extension has degree "
                             f"{model.residue_char}, the residue characteristic")
    generator = declared_sigma = None
    if gtype == "pattern":
        if not model.series_capable:
            raise ConfigError.at("extension/generator/type", "a pattern generator needs "
                                 "series arithmetic, which a model of extension/char 0 "
                                 "has none of")
        generator = PatternSeries(
            model, gen.build("finite", parse_element, model, finite) if finite else model.zero(),
            tuple(gen.build(f"tails/{n}", Tail, model.residue.element(coeff), gamma, start)
                  for n, (coeff, gamma, start) in enumerate(tails)))
    elif gtype == "schedule":
        generator = gen.build("scale", DeclaredSchedule, group, limit, scale, start=start)
    else:
        declared_sigma = segment_from_json(group, segment, gen.at("segment"))
    datum = functools.partial(
        DefectDatum, name=label, kind=ExtensionKind(kind), base=model, degree=degree,
        generator=generator, declared_sigma=declared_sigma, sigma_shift=sigma_shift,
        synthetic=synthetic)
    # a declared segment is checked final and positive when the datum is built
    return (datum() if declared_sigma is None else gen.build("segment", datum)), depth


# --------------------------------------------------------------------------
# report builders

def _group_json(group: GroupDescriptor) -> dict:
    return {"components": [c.value for c in group.components], "p": group.prime}


def _omega_json(result) -> dict:
    pres = present(result)
    out = pres.to_json()
    out["containment_holds"] = containment_holds(pres)
    return out


def scenario_report(command: str, p: int, depth: int, seed: int) -> dict:
    scenario = SCENARIOS[command](p, depth=depth)
    extensions = []
    for res in scenario.results:
        entry = {
            "certificate": res.certificate,
            "classification": res.kind.value,
            "H_E_level": res.H_E.level,
            "sigma_segment": segment_to_json(res.sigma),
            "ram_ideal": segment_to_json(res.ram_ideal.values),
            "max_ideal": segment_to_json(res.max_ideal.values),
            "omega": _omega_json(res),
        }
        extensions.append(entry)
    # the samples are drawn only if some check walks them
    samples = samples_for(scenario, 50, seed)
    checks = [check_definition(DEFINITIONS[name], direct, scenario.fmodel, samples,
                               name=name).to_json()
              for name, direct in _definability_targets(command, scenario)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "prime": p,
        "depth": depth,
        "seed": seed,
        # declared, not inferred: every scenario models a perfect henselian field
        "model": {"name": scenario.model.name,
                  "char": scenario.model.char,
                  "henselian": True,
                  "perfect_hull": True,
                  "group": _group_json(scenario.model.value_group)},
        "extensions": extensions,
        "definability": checks,
        "realized_levels": sorted({r.H_E.level for r in scenario.results}),
    }
    if command == "example-e2":
        report["exclusions"] = [{
            "level": 1,
            "note": "tame closure over the coarse class; declared, not computed",
            "status": "DECLARED",
        }]
    return report


def _definability_targets(command: str, scenario):
    if command in ("abhyankar",):
        res = scenario.result("theta")
        return [("ram-ideal-as", res.ram_ideal), ("max-ideal", res.max_ideal),
                ("coarse-ring-as", res.H_E)]
    if command == "example-e1":
        res = scenario.result("theta_x")
        return [("ram-ideal-as", res.ram_ideal), ("max-ideal", res.max_ideal)]
    if command == "kummer-mixed":
        res = scenario.result("eta")
        return [("ram-ideal-kummer", res.ram_ideal), ("coarse-ring-kummer", res.H_E)]
    return []


def config_report(command: str, path: str, depth: int | None) -> dict:
    """The classify report of the config at `path`; kaehler adds the differential
    module.  The depth defaults to the config's."""
    config, datum, config_depth = load_config(path)
    depth = depth or config_depth
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_hash": _config_hash(config),
        "depth": depth,
    }
    if isinstance(datum, DefectlessDatum):
        # the one value the analysis derives from a field is v(p)/(q - 1)
        res = built("extension/vp", defectless_analyze, datum)
        report["case"] = res.case.value
    else:
        res = classify(datum, depth=depth)
        report["classification"] = res.kind.value
    report["certificate"] = res.certificate
    if command == "kaehler":
        report["omega"] = _omega_json(res)
    return report


def prescribe_report(rank: int, select, p: int, char_case: str, depth: int) -> dict:
    try:
        plan = build(rank, select, p, CharCase(char_case))
    except InvalidSelectionError as err:
        raise ConfigError.at("--select", err) from None
    data = verify(plan, depth=depth).to_json()
    data["schema_version"] = SCHEMA_VERSION
    data["command"] = "prescribe"
    data["depth"] = depth
    return data


def eval_report(formula: str, scenario_name: str, p: int, depth: int,
                binding: str | None) -> dict:
    scenario = SCENARIOS[scenario_name](p, depth=depth)
    ast = parse(formula)
    bindings = {}
    if binding is not None:
        name, eq, text = binding.partition("=")
        if not (name and eq):
            raise ConfigError.at("--bind", f"{binding!r} is not of the form NAME=TERM")
        if name not in free_variables(ast):
            raise ConfigError.at("--bind", f"the formula reads no free {name!r}")
        if text.startswith("v:"):
            bindings[name] = DeclaredValue(
                built("--bind", scenario.model.value_group.element, *text[2:].split(",")))
        else:
            bindings[name] = built("--bind", parse_element, scenario.model, text)
    res = evaluate(ast, scenario.fmodel, bindings=bindings)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "scenario": scenario_name,
        "prime": p,
        "formula": formula,
        "result": res.to_json(),
    }


def check_def_report(name: str, scenario_name: str, p: int, depth: int,
                     samples: int, seed: int) -> dict:
    if name not in DEFINITIONS:
        raise ConfigError(f"unknown definition {name!r}; "
                          f"choose from {sorted(DEFINITIONS)}", fields=["name"])
    scenario = SCENARIOS[scenario_name](p, depth=depth)
    targets = dict(_definability_targets(scenario_name, scenario))
    if name not in targets:
        raise ConfigError(
            f"definition {name!r} has no direct object in scenario {scenario_name!r}",
            fields=["name", "scenario"])
    rep = check_definition(DEFINITIONS[name], targets[name], scenario.fmodel,
                           samples_for(scenario, samples, seed), name=name)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "check-def",
        "scenario": scenario_name,
        "prime": p,
        "seed": seed,
        "exact": exact_verdict(DEFINITIONS[name], targets[name], scenario.fmodel),
        "report": rep.to_json(),
    }


# --------------------------------------------------------------------------

def _write(x, out: list, pad: str) -> None:
    """Append the pieces of json.dumps(x, sort_keys=True, indent=2) to out,
    where pad is a newline and the indentation of x's line.  With indent set,
    json encodes in pure Python through generators; this appends to one list,
    containers first (no class is both one and a str, int or float), and a str
    item or value in the append of its separator or key."""
    if isinstance(x, list) or isinstance(x, tuple):   # faster than a tuple of classes
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in x:
            if item.__class__ is str:   # most items: the coordinates of values
                out.append(sep + encode_basestring_ascii(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = comma
        out.append(pad + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(x.items()):
            if isinstance(key, str):
                key = encode_basestring_ascii(key)
            elif key is None or isinstance(key, (int, float)):
                key = '"' + json.dumps(key) + '"'
            else:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            if item.__class__ is str:
                out.append(sep + key + ": " + encode_basestring_ascii(item))
            else:
                out.append(sep + key + ": ")
                _write(item, out, inner)
            sep = comma
        out.append(pad + "}")
    elif isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(json.dumps(x))   # one per definability check: its unknown_rate
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _emit(report: dict, out: str | None) -> None:
    pieces: list = []
    _write(report, pieces, "\n")
    pieces.append("\n")
    text = "".join(pieces)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:   # a missing directory, a directory, no permission
            raise ConfigError.at("--out", f"cannot write {out!r}: "
                                          f"{err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _prime(text: str) -> int:
    value = int(text)
    try:
        prime = is_prime(value)
    except StructuralError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _level_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args keeps no state on the parser
    parser = argparse.ArgumentParser(
        prog="valcuts",
        description="Exact cut arithmetic for valued fields: coarsenings, "
                    "ramification ideals, defect classification.")
    parser.add_argument("--version", action="version", version=f"valcuts {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, default_p=2, default_depth=DEFAULT_DEPTH, seed=False):
        if default_p is not None:
            sp.add_argument("--p", type=_prime, default=default_p, help="prime")
        sp.add_argument("--depth", type=_positive_int, default=default_depth,
                        help="truncation depth")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="sample seed")
        sp.add_argument("--out", help="output path (stdout when omitted)")

    for name in ("abhyankar", "example-e1", "example-e2", "kummer-mixed"):
        common(sub.add_parser(name, help=f"run the {name} scenario"),
               default_p=3 if name == "kummer-mixed" else 2, seed=True)

    sp = sub.add_parser("prescribe", help="build and verify a selection of levels")
    sp.add_argument("--rank", type=_positive_int, required=True)
    sp.add_argument("--select", type=_level_list, default="",
                    help="comma-separated levels, e.g. 1,3")
    sp.add_argument("--char", choices=["equal", "mixed"], default="equal")
    common(sp)

    for name in ("classify", "kaehler"):
        sp = sub.add_parser(name, help=f"{name} an extension from a config file")
        sp.add_argument("--config", required=True)
        # the config fixes the prime; the depth defaults to the config's, else DEFAULT_DEPTH
        common(sp, default_p=None, default_depth=None)

    sp = sub.add_parser("eval", help="evaluate a formula against a scenario")
    sp.add_argument("--formula", required=True)
    sp.add_argument("--scenario", choices=sorted(SCENARIOS), default="abhyankar")
    sp.add_argument("--bind", help="free-variable binding, e.g. b=t^-1, or b=v:3/4 "
                                   "with one coordinate per rank")
    common(sp)

    sp = sub.add_parser("check-def", help="agreement of a definition with its set")
    sp.add_argument("--name", required=True)
    sp.add_argument("--scenario", choices=sorted(SCENARIOS), default="abhyankar")
    sp.add_argument("--samples", type=_positive_int, default=50)
    common(sp, seed=True)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # the limit is absent before 3.10.7
        sys.set_int_max_str_digits(0)  # reports print every number whole
    args = build_parser().parse_args(argv)
    try:
        if args.command in SCENARIOS:
            report = scenario_report(args.command, args.p, args.depth, args.seed)
        elif args.command == "prescribe":
            report = prescribe_report(args.rank, args.select, args.p, args.char,
                                      args.depth)
        elif args.command in ("classify", "kaehler"):
            report = config_report(args.command, args.config, args.depth)
        elif args.command == "eval":
            report = eval_report(args.formula, args.scenario, args.p, args.depth,
                                 args.bind)
        else:
            report = check_def_report(args.name, args.scenario, args.p, args.depth,
                                      args.samples, args.seed)
        _emit(report, args.out)
    except (ConfigError, ParseError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ValcutsError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    if args.command == "prescribe" and not report.get("passed", False):
        return 1
    checks = [report["report"]] if args.command == "check-def" else report.get("definability", [])
    return 1 if any(not c["passed"] for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
