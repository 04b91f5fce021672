"""Command-line interface: reports, configs, goldens, determinism."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import tempfile
from collections import OrderedDict
from enum import Enum
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valcuts
from valcuts import cli, gpsfield
from valcuts.cli import (
    REPORT_SCHEMA,
    build_parser,
    datum_from_config,
    load_config,
    main,
)
from valcuts.errors import ConfigError
from valcuts.extension import classify
from valcuts.formlang import DEFINITIONS, DeclaredValue, evaluate
from valcuts.scenarios import SCENARIOS
from valcuts.segment import IdealDescriptor, shift

from conftest import counted_draws

GOLDENS = pathlib.Path(__file__).parent / "goldens"
ROOT = pathlib.Path(__file__).parent.parent
CONFIGS = ROOT / "configs"


def src_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(pathlib.Path(valcuts.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestScenarios:
    def test_abhyankar_schedule_and_classification(self, tmp_path):
        code, report = run(["abhyankar", "--p", "3", "--depth", "15"], tmp_path)
        assert code == 0
        cert = report["extensions"][0]["certificate"]
        assert cert["schedule"][0] == ["-1/3"]
        assert report["extensions"][0]["classification"] == "independent"
        assert report["extensions"][0]["omega"]["is_zero"] is True

    def test_abhyankar_past_depth_64(self, tmp_path):
        code, report = run(["abhyankar", "--p", "2", "--depth", "66"], tmp_path)
        assert code == 0
        schedule = report["extensions"][0]["certificate"]["schedule"]
        assert schedule == [[f"-1/{2 ** (k + 1)}"] for k in range(66)]

    def test_example_e1_levels(self, tmp_path):
        code, report = run(["example-e1", "--depth", "12"], tmp_path)
        assert code == 0
        assert report["realized_levels"] == [1, 2]

    def test_example_e2_exclusion_declared(self, tmp_path):
        code, report = run(["example-e2"], tmp_path)
        assert code == 0
        assert report["realized_levels"] == [2]
        assert report["exclusions"][0]["status"] == "DECLARED"

    def test_kummer_mixed(self, tmp_path):
        code, report = run(["kummer-mixed", "--p", "3"], tmp_path)
        assert code == 0
        assert all(c["passed"] for c in report["definability"])

    def test_prescribe_roundtrip(self, tmp_path):
        code, report = run(["prescribe", "--rank", "4", "--select", "1,3",
                            "--p", "5", "--depth", "10"], tmp_path)
        assert code == 0
        assert report["passed"] is True
        assert [w["level"] for w in report["witnesses"]] == [1, 3]
        assert [e["level"] for e in report["exclusions"]] == [2, 4]

    def test_eval_with_binding(self, tmp_path):
        code, report = run(["eval", "--formula",
                            "exists c in K : v(b) >= -v(theta - c)",
                            "--scenario", "abhyankar", "--bind", "b=t^(1/2)"], tmp_path)
        assert code == 0
        assert report["result"]["value"] == "TRUE"
        assert report["result"]["mode"] == "oracle"

    @pytest.mark.parametrize("scenario", ["example-e1", "example-e2"])
    @pytest.mark.parametrize("coords", [("1/2", "0"), ("-1/2", "3"), ("0", "-1")])
    def test_eval_value_binding_on_rank_2(self, tmp_path, scenario, coords):
        # one comma-separated coordinate per rank, as the value group writes them
        formula = DEFINITIONS["max-ideal"]
        code, report = run(["eval", "--scenario", scenario, "--p", "2", "--formula", formula,
                            "--bind", "b=v:" + ",".join(coords)], tmp_path)
        assert code == 0
        fm = SCENARIOS[scenario](2, depth=12).fmodel
        value = DeclaredValue(fm.group.element(*map(Fraction, coords)))
        assert report["result"] == evaluate(formula, fm, bindings={"b": value}).to_json()
        assert report["result"]["value"] == ("TRUE" if coords[0] == "1/2" else "FALSE")

    def test_eval_unknown_atom_is_not_bounded_mode(self, tmp_path):
        # no quantifier enumerated candidates, so the oracle answered
        code, report = run(["eval", "--scenario", "abhyankar", "--p", "2",
                            "--formula", "inK(theta^3)"], tmp_path)
        assert code == 0
        assert report["result"] == {"value": "UNKNOWN", "mode": "oracle",
                                    "witness": None, "candidates_used": 0}

    @pytest.mark.parametrize("scenario", ["abhyankar", "example-e1"])
    def test_a_constant_outside_the_value_group_reads_unknown(self, tmp_path, scenario):
        # 1/3 lies outside Z[1/2] on abhyankar; example-e1 has rank 2
        code, report = run(["eval", "--scenario", scenario, "--p", "2",
                            "--formula", "v(b) < 1/3", "--bind", "b=t"], tmp_path)
        assert code == 0
        assert report["result"] == {"value": "UNKNOWN", "mode": "oracle",
                                    "witness": None, "candidates_used": 0}

    def test_eval_unbound_name_exits_1_naming_it(self, capsys):
        code = main(["eval", "--scenario", "kummer-mixed", "--p", "3",
                     "--formula", "v(t) > 0"])
        assert code == 1
        assert "'t'" in capsys.readouterr().err

    def test_check_def(self, tmp_path):
        code, report = run(["check-def", "--name", "coarse-ring-kummer",
                            "--scenario", "kummer-mixed", "--p", "3",
                            "--samples", "60"], tmp_path)
        assert code == 0
        assert report["report"]["passed"] is True


def readme_commands():
    """The argument lists of the `valcuts ...` lines in the README's
    "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("valcuts ")]


def readme_ids(commands):
    """Each command's name, with a count from the second line of a name on:
    eval, eval-2."""
    names = [args[0] for args in commands]
    return [name if names.index(name) == i else f"{name}-{names[:i + 1].count(name)}"
            for i, name in enumerate(names)]


class TestReadme:
    @pytest.mark.parametrize("args", readme_commands(), ids=readme_ids(readme_commands()))
    def test_documented_command_runs(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(ROOT)   # the commands name configs/ relative to the root
        if "--out" in args:
            args = args[:args.index("--out")] + args[args.index("--out") + 2:]
        assert main(args + ["--out", str(tmp_path / "report.json")]) == 0
        json.loads((tmp_path / "report.json").read_text())

    def test_every_documented_command_is_collected(self):
        assert [a[0] for a in readme_commands()] == [
            "abhyankar", "example-e1", "example-e2", "kummer-mixed", "prescribe",
            "classify", "kaehler", "eval", "eval", "check-def"]


class TestConfigs:
    def test_synthetic_dependent(self, tmp_path):
        code, report = run(["classify", "--config",
                            str(CONFIGS / "synthetic-dependent.json")], tmp_path)
        assert code == 0
        assert report["classification"] == "dependent"
        assert report["certificate"]["synthetic"] is True

    def test_dependent_annihilator_over_a_discrete_class_is_the_maximal_ideal(self, tmp_path):
        # over Z, I = {v >= 1} is M itself, so I/I^2 has annihilator M = {v >= 1}
        config = json.loads((CONFIGS / "synthetic-dependent.json").read_text())
        config["group"]["components"] = ["int"]
        code, report = run(["kaehler", "--config", write_text(tmp_path, json.dumps(config))],
                           tmp_path)
        assert code == 0
        assert report["omega"]["annihilator"] == {"closed": True, "direction": "final",
                                                  "gamma": ["1"], "kind": "element"}
        assert report["omega"]["annihilator_is_max_ideal"] is True

    def test_pattern_config_matches_scenario(self, tmp_path):
        code, report = run(["classify", "--config",
                            str(CONFIGS / "abhyankar-p3.json")], tmp_path)
        assert code == 0
        assert report["classification"] == "independent"

    def test_mixed_schedule_config(self, tmp_path):
        code, report = run(["kaehler", "--config",
                            str(CONFIGS / "mixed-schedule-p5.json")], tmp_path)
        assert code == 0
        assert report["omega"]["is_zero"] is True

    def test_defectless_config(self, tmp_path):
        code, report = run(["kaehler", "--config",
                            str(CONFIGS / "defectless-dense.json")], tmp_path)
        assert code == 0
        assert report["case"] == "dense_archimedean_step"
        assert report["omega"]["form"] == "M/M^q"

    @pytest.mark.parametrize("components,star,case", [
        (("int", "pdiv"), 0, "discrete_archimedean_step"),
        (("pdiv", "int"), 0, "dense_archimedean_step"),   # a discrete class inside H_E
    ])
    def test_defectless_config_with_a_discrete_class(self, tmp_path, components, star, case):
        x0 = ["0", "0"]
        x0[star] = "1"
        config = write_extension(tmp_path, {"kind": "defectless_value", "degree": 2,
                                            "star_index": star, "x0_value": x0},
                                 components=components, p=3)
        code, report = run(["kaehler", "--config", config], tmp_path)
        assert code == 0
        assert report["case"] == case
        assert report["omega"]["containment_holds"] is True

    def test_bad_config_lists_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": 1,
            "group": {"components": ["pdiv"], "p": 1},
            "extension": {"kind": "nonsense", "degree": 2},
        }))
        with pytest.raises(ConfigError) as err:
            load_config(str(bad))
        joined = " ".join(err.value.fields)
        assert "extension/kind" in joined
        assert "group/p" in joined

    def test_nonprime_p_fails_at_construction(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": 1,
            "group": {"components": ["pdiv"], "p": 4},
            "extension": {"kind": "as_defect", "degree": 2, "char": 2,
                          "generator": {"type": "pattern",
                                        "tails": [{"coeff": 1, "gamma": ["-1"],
                                                   "start": 1}]}},
        }))
        code = main(["classify", "--config", str(bad)])
        assert code == 2  # every field well typed, but p = 4 is not prime

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1}))
        code = main(["classify", "--config", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("depth", [1, 2])
    def test_negative_declared_scale_rejected_at_every_depth(self, tmp_path, capsys, depth):
        # limit - scale/p^(k+1) decreases for scale < 0, even with one value shown
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "schema": 1, "depth": depth, "group": {"components": ["pdiv"], "p": 2},
            "extension": {"kind": "kummer_defect", "degree": 2, "char": 0,
                          "residue_char": 2, "vp": ["1"], "sigma_shift": ["10"],
                          "generator": {"type": "schedule", "limit": ["0"],
                                        "scale": ["-1"]}}}))
        assert main(["classify", "--config", str(path)]) == 1
        assert "do not increase strictly" in capsys.readouterr().err

    def test_config_hash_stable(self):
        config, datum, depth = load_config(str(CONFIGS / "abhyankar-p3.json"))
        assert datum_from_config(config) == datum_from_config(config) == (datum, depth)


def write_text(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


def write_extension(tmp_path, extension, components=("pdiv",), p=2):
    return write_text(tmp_path, json.dumps({
        "schema": 1,
        "group": {"components": list(components), "p": p},
        "extension": extension,
    }))


def write_config(tmp_path, segment, components=("pdiv",), p=2):
    return write_extension(tmp_path, {"kind": "as_defect", "degree": p, "char": p,
                                      "generator": {"type": "sigma", "segment": segment}},
                           components, p)


def edited(name, edit):
    """A --config argument: configs/<name> after edit(extension) changed it."""
    def write(tmp_path):
        config = json.loads((CONFIGS / name).read_text())
        edit(config["extension"])
        return write_text(tmp_path, json.dumps(config))
    return write


WILD_KUMMER = {"kind": "defectless_value", "degree": 3, "residue_char": 3,
               "star_index": 0, "x0_value": ["1", "0"], "vp": ["0", "1"]}


def pattern(p, *tails):
    return {"kind": "as_defect", "degree": p, "char": p,
            "generator": {"type": "pattern", "tails": list(tails)}}


class TestOtherGeneratorConfig:
    """The config-level twin of the same-extension checks: theta + c (c in K,
    monomials added to `finite`) and theta^p (each tail's gamma and each
    finite exponent times p; a coefficient of F_p is its own p-th power)
    generate the extension a pattern config states, so its classification,
    H_E, sigma-segment, ramification and maximal ideals and Kaehler module
    must not change."""

    PATTERN_CONFIGS = ("abhyankar-p3", "pattern-tails-p3")
    MONOMIAL = re.compile(r"(?:(\d+)\*)?t\^\(([^)]*)\)")

    @classmethod
    def frobenius(cls, config):
        gen, p = config["extension"]["generator"], config["group"]["p"]
        for tail in gen["tails"]:
            tail["gamma"] = [str(Fraction(x) * p) for x in tail["gamma"]]
        if "finite" in gen:
            terms = []
            for term in gen["finite"].split(" + "):
                coeff, coords = cls.MONOMIAL.fullmatch(term).groups()
                exponent = ",".join(str(Fraction(x) * p) for x in coords.split(","))
                terms.append(f"{coeff or 1}*t^({exponent})")
            gen["finite"] = " + ".join(terms)

    @staticmethod
    def translate(config, rng):
        p = config["group"]["p"]
        terms = [config["extension"]["generator"].get("finite", "")]
        for _ in range(rng.randint(1, 3)):
            coords = [Fraction(rng.randint(-6, 6), 1 if kind == "int" else p ** rng.randint(0, 2))
                      for kind in config["group"]["components"]]
            terms.append(f"{rng.randint(1, p - 1)}*t^({','.join(map(str, coords))})")
        config["extension"]["generator"]["finite"] = " + ".join(filter(None, terms))

    @staticmethod
    def invariants(tmp_path, config):
        path = write_text(tmp_path, json.dumps(config))
        (_, classified), (_, kaehler) = (run([command, "--config", path], tmp_path)
                                         for command in ("classify", "kaehler"))
        res = classify(*datum_from_config(config))
        return [(report["classification"], report["certificate"]["H_E_level"],
                 report["certificate"]["sigma_segment"]) for report in (classified, kaehler)] + [
            res.ram_ideal, res.max_ideal, kaehler["omega"]]

    def test_pattern_configs_keep_their_reports_under_another_generator(self, tmp_path):
        rng = random.Random(4302)
        for name in self.PATTERN_CONFIGS:
            config = json.loads((CONFIGS / f"{name}.json").read_text())
            want = self.invariants(tmp_path, config)
            others = [json.loads(json.dumps(config)) for _ in range(4)]
            self.frobenius(others[0])
            for other in others[1:]:
                self.translate(other, rng)
            for other in others:
                assert other != config
                assert self.invariants(tmp_path, other) == want, (name, other)


class TestLongNumbers:
    def test_numbers_past_the_digit_limit_print_whole(self, tmp_path):
        # 3^10000 has 4,772 digits, past the default int-to-str limit of 4,300
        config = json.loads((CONFIGS / "abhyankar-p3.json").read_text())
        config["depth"] = 3
        config["extension"]["generator"]["tails"][0]["start"] = 10000
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config))
        code, report = run(["classify", "--config", str(path)], tmp_path)
        assert code == 0
        # main lifted the limit for this process, so the expected text can be built
        assert report["certificate"]["schedule"] == [
            [f"-1/{3 ** k}"] for k in (10000, 10001, 10002)]


class TestImportCost:
    """No command loads `dataclasses` or `inspect` (the library declares no
    dataclass) or `jsonschema` (config documents are read by ConfigReader),
    and only the config commands, which hash their config, load `hashlib`."""

    @pytest.mark.parametrize("args", [
        ["abhyankar", "--p", "3", "--depth", "15"],
        ["classify", "--config", str(CONFIGS / "abhyankar-p3.json")],
        ["kaehler", "--config", str(CONFIGS / "defectless-dense.json")],
        ["prescribe", "--rank", "3", "--select", "1,3", "--p", "5", "--depth", "6"],
        ["eval", "--formula", "exists c in K : v(b) >= -v(theta - c)", "--bind", "b=t^(1/2)"],
        ["check-def", "--name", "max-ideal", "--scenario", "example-e1", "--samples", "20"],
    ], ids=lambda args: args[0])
    def test_no_command_imports_dataclasses_inspect_or_jsonschema(self, tmp_path,
                                                                  report_validator, args):
        out = tmp_path / "out.json"
        # a module the interpreter loaded at start-up does not count
        script = ("import sys\n"
                  "before = set(sys.modules)\n"
                  "from valcuts.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, *[name in sys.modules and name not in before\n"
                  "              for name in ('dataclasses', 'inspect', 'jsonschema',\n"
                  "                           'hashlib')])\n")
        proc = subprocess.run([sys.executable, "-c", script, *args, "--out", str(out)],
                              capture_output=True, text=True, env=src_env(), check=True)
        code, *loaded, hashed = proc.stdout.split()
        assert (code, loaded) == ("0", ["False", "False", "False"])
        if args[0] not in ("classify", "kaehler"):
            assert hashed == "False"
        report_validator.validate(json.loads(out.read_text()))


class TestOverlappingTails:
    def test_cancelling_family_has_finite_support(self, tmp_path, capsys):
        # over F_2, sum_{i>=2} t^(-2/2^i) is sum_{i>=1} t^(-1/2^i): the tails cancel
        config = write_extension(tmp_path, pattern(2, {"gamma": ["-1"], "start": 1},
                                                   {"gamma": ["-2"], "start": 2}))
        assert main(["classify", "--config", config]) == 1
        assert "error: element has finite support" in capsys.readouterr().err

    def test_family_merged_into_one_tail(self, tmp_path):
        # sum_{i>=4} t^(-3/3^i) doubles the tail sum_{i>=1} t^(-1/3^i) from i = 3
        config = write_extension(tmp_path, pattern(3, {"gamma": ["-1"], "start": 1},
                                                   {"gamma": ["-3"], "start": 4}), p=3)
        code, report = run(["classify", "--config", config], tmp_path)
        assert code == 0
        assert report["classification"] == "independent"
        assert report["certificate"]["schedule"][:2] == [["-1/27"], ["-1/81"]]

    def test_tails_of_different_families_classify(self, tmp_path):
        # the -1/3 family runs from index 1, the -1 family only from index 10,
        # so v(theta - b_k) repeats -1/1024 at k = 8, 9; the schedule skips it
        config = write_extension(tmp_path, pattern(2, {"gamma": ["-1"], "start": 10},
                                                   {"gamma": ["-1/3"], "start": 1}),
                                 components=("rat",))
        code, report = run(["classify", "--config", config], tmp_path)
        assert code == 0
        assert report["classification"] == "independent"
        schedule = [Fraction(v[0]) for v in report["certificate"]["schedule"]]
        assert schedule[:9] == [Fraction(-1, 3 * 2 ** k) for k in range(1, 9)] + [
            Fraction(-1, 1024)]
        assert schedule[9] == Fraction(-1, 2048)


class TestDeclaredSchedule:
    def test_start_below_minus_one(self, tmp_path):
        # limit - scale * p^-(k+1) for k + 1 < 0
        config = write_extension(tmp_path, {
            "kind": "kummer_defect", "degree": 5,
            "generator": {"type": "schedule", "limit": ["0"], "scale": ["1"], "start": -3}},
            p=5)
        code, report = run(["classify", "--config", config], tmp_path)
        assert code == 0
        assert report["certificate"]["schedule"][:4] == [["-25"], ["-5"], ["-1"], ["-1/5"]]


class TestDeclaredSigma:
    def test_closed_subgroup_cut_is_positive(self, tmp_path):
        # {a : a_0 >= 1} lies entirely above 0
        config = write_config(tmp_path, {
            "direction": "final", "kind": "subgroup", "level": 1,
            "shift": ["1", "0"], "closed": True}, components=("pdiv", "pdiv"))
        code, report = run(["kaehler", "--config", config], tmp_path)
        assert code == 0
        assert report["classification"] == "dependent"
        assert report["certificate"]["H_E_level"] == 1
        assert report["omega"]["containment_holds"] is True

    def test_cut_through_zero_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "direction": "final", "kind": "subgroup", "level": 1,
            "shift": ["0", "0"], "closed": True}, components=("pdiv", "pdiv"))
        assert main(["classify", "--config", config]) == 2
        assert ("extension/generator/segment: the value segment must consist of positive "
                "values") in capsys.readouterr().err

    @pytest.mark.parametrize("segment,field", [
        ({"direction": "final", "kind": "ray", "gamma": ["1"]},
         "extension/generator/segment/kind: expected one of"),
        ({"kind": "element", "gamma": ["1"], "closed": True},
         "extension/generator/segment/direction: missing"),
    ])
    def test_malformed_segment_exit_code(self, tmp_path, capsys, segment, field):
        assert main(["classify", "--config", write_config(tmp_path, segment)]) == 2
        assert field in capsys.readouterr().err


class TestInputContract:
    @pytest.mark.parametrize("args", [
        ["abhyankar", "--depth", "0"],
        ["abhyankar", "--depth", "-3"],
        ["check-def", "--name", "ram-ideal-as", "--samples", "0"],
    ])
    def test_nonpositive_counts_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/x.json", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, target):
        out = str(tmp_path / target)
        assert main(["abhyankar", "--depth", "4", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out: cannot write {out!r}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["classify", "kaehler"])
    def test_config_depth_used_by_default(self, tmp_path, command):
        config = str(CONFIGS / "synthetic-dependent.json")  # declares depth 10
        _, report = run([command, "--config", config], tmp_path)
        assert report["depth"] == 10
        assert report["certificate"]["truncation_depth"] == 10
        _, report = run([command, "--config", config, "--depth", "7"], tmp_path)
        assert report["depth"] == 7
        assert report["certificate"]["truncation_depth"] == 7

    def test_default_depth_without_config_depth(self, tmp_path):
        _, report = run(["classify", "--config",
                         str(CONFIGS / "defectless-dense.json")], tmp_path)
        assert report["depth"] == 12

    @pytest.mark.parametrize("args,named", [
        (["classify", "--config", {"kind": "as_defect", "degree": 2,
                                   "generator": {"type": "sigma"}}],
         "extension/generator/segment: missing"),
        (["classify", "--config", {"kind": "as_defect", "degree": 2,
                                   "generator": {"type": "pattern"}}],
         "extension/generator/tails: missing"),
        (["classify", "--config", pattern(2, {"start": 1})],
         "extension/generator/tails/0/gamma: missing"),
        (["classify", "--config", {"kind": "kummer_defect", "degree": 2,
                                   "generator": {"type": "schedule", "scale": ["1"]}}],
         "extension/generator/limit: missing"),
        (["classify", "--config", {"kind": "as_defect", "degree": 2,
                                   "generator": {"tails": [{"gamma": ["-1"]}]}}],
         "extension/generator/type: missing"),
        (["classify", "--config", {"kind": "defectless_value", "degree": 2,
                                   "x0_value": ["1"]}], "extension/star_index: missing"),
        (["classify", "--config", pattern(2, {"gamma": ["abc"]})],
         "extension/generator/tails/0/gamma"),
        (["classify", "--config", pattern(2, {"gamma": ["-1"], "coeff": "1"})],
         "extension/generator/tails/0/coeff"),
        (["classify", "--config", pattern(2, {"gamma": ["-1"], "start": "x"})],
         "extension/generator/tails/0/start"),
        (["classify", "--config", {"kind": "as_defect", "degree": 2,
                                   "generator": {"type": "pattern", "finite": "t^(1/0)",
                                                 "tails": [{"gamma": ["-1"]}]}}],
         "extension/generator/finite"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b=v:abc"], "--bind"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b=v:1/0"], "--bind"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b=t^(1/0)"], "--bind"),
        # a value-only binding has one coordinate per rank
        (["eval", "--scenario", "example-e1", "--formula", "v(b) >= 0", "--bind", "b=v:1"],
         "--bind: coordinate count does not match the rank"),
        (["eval", "--scenario", "example-e2", "--formula", "v(b) >= 0",
          "--bind", "b=v:1,0,0"], "--bind: coordinate count does not match the rank"),
        (["eval", "--scenario", "example-e1", "--formula", "v(b) >= 0",
          "--bind", "b=v:1/2,x"], "--bind: ['1/2', 'x'] is not a list of exact rationals"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b=v:1,"], "--bind"),
        (["prescribe", "--rank", "3", "--select", "1,x"], "--select"),
        (["classify", "--config", dict(pattern(2, {"gamma": ["-1"]}), declared_sigma={
            "direction": "final", "kind": "element", "gamma": ["5"], "closed": True})],
         "extension/declared_sigma: unknown field"),
        (["classify", "--config", pattern(2, {"gamma": ["-1"], "strat": 3})],
         "extension/generator/tails/0/strat: unknown field"),
        (["eval", "--formula", "v(b) <"], "expected a rational constant"),
        (["classify", "--config", pattern(2, {"gamma": [float("inf")]})],
         "extension/generator/tails/0/gamma"),
        (["classify", "--config", pattern(2, {"gamma": ["-1/6"]})],  # not a power of p
         "extension/generator/tails/0/gamma: coordinate -1/6 not allowed"),
        (["classify", "--config", lambda tmp: str(tmp / "missing.json")],
         "--config"),
        (["classify", "--config", lambda tmp: str(tmp)], "--config"),  # a directory
        (["kaehler", "--config", lambda tmp: write_text(tmp, '{"schema": 1,')],
         "--config"),
        (["abhyankar", "--p", "4"], "--p"),
        (["prescribe", "--rank", "3", "--select", "1", "--p", "6"], "--p"),
        (["prescribe", "--rank", "0"], "--rank"),
        (["prescribe", "--rank", "3", "--select", "0"], "--select"),
        (["prescribe", "--rank", "3", "--select", "4"], "--select"),
        (["abhyankar", "--p", "3317044064679887385961981"], "--p"),
        (["classify", "--config", lambda tmp: write_extension(tmp, pattern(2, {
            "gamma": ["-1"]}), p=4)], "group/p"),
        (["classify", "--config", lambda tmp: write_extension(tmp, pattern(2, {
            "gamma": ["-1"]}), p=3317044064679887385961981)], "group/p"),
        (["classify", "--config", dict(pattern(2, {"gamma": ["-1"]}), degree=4)],
         "extension/degree"),
        (["classify", "--config", dict(pattern(2, {"gamma": ["-1"]}), degree=5)],
         "extension/degree"),  # a defect extension has degree p
        (["kaehler", "--config", dict(pattern(2, {"gamma": ["-1"]}), char=4)],
         "extension/char"),
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "subgroup", "level": 0}, ("pdiv", "pdiv"))],
         "level"),
        (["kaehler", "--config", {"kind": "defectless_value", "degree": 2, "star_index": 1,
                                  "x0_value": ["1"]}],
         "extension/star_index: star_index outside the value group"),
        (["eval", "--formula", "not " * 1200 + "v(t) > 0"], "nested deeper than"),
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "element", "gamma": ["1", "0"],
            "closed": "false"}, ("pdiv", "pdiv"))],
         "extension/generator/segment/closed: expected a boolean, got a string"),
        # v(p)/(q - 1) = 1/2 in the pdiv class of p = 3
        (["classify", "--config", lambda tmp: write_extension(tmp, dict(
            WILD_KUMMER, subkind="kummer_value"), ("int", "pdiv"), 3)],
         "extension/vp: v(zeta_q - 1)"),
        (["kaehler", "--config", lambda tmp: write_extension(tmp, dict(
            WILD_KUMMER, subkind="kummer_one_unit", v_eta_minus_1=["1", "0"]),
            ("int", "pdiv"), 3)],
         "extension/vp: v(zeta_q - 1)"),
        # a binding without a name or without "=" names the form it needs
        (["eval", "--formula", "v(b) >= 0", "--bind", "=t"], "--bind: '=t' is not of the form"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "=3"], "--bind: '=3' is not of the form"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b"], "--bind: 'b' is not of the form"),
        (["eval", "--formula", "v(b) >= 0", "--bind", ""], "--bind: '' is not of the form"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b"], "NAME=TERM"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "b="], "--bind: empty term"),
        (["eval", "--formula", "v(b) >= 0", "--bind", "1b=t"], "--bind: the formula reads no"),
        (["eval", "--formula", "v(t) > 0", "--bind", "c=t"], "--bind: the formula reads no"),
        # a tail or a schedule is checked when it is built
        (["classify", "--config", lambda tmp: write_extension(tmp, pattern(
            3, {"gamma": ["-1", "1"]}), ("pdiv", "int"), 3)],
         "extension/generator/tails/0: tail base exponent (-1, 1) over 3^i leaves component 1"),
        (["classify", "--config", lambda tmp: write_extension(tmp, pattern(
            3, {"gamma": ["-1"], "coeff": 3}), p=3)],
         "extension/generator/tails/0: tail coefficient must be nonzero"),
        (["classify", "--config", pattern(2, {"gamma": ["0"]})],
         "extension/generator/tails/0: tail base exponent must be nonzero"),
        (["classify", "--config", lambda tmp: write_extension(tmp, {
            "kind": "kummer_defect", "degree": 3,
            "generator": {"type": "schedule", "limit": ["0"], "scale": ["1"]}}, ("int",), 3)],
         "extension/generator/scale: schedule scale 1 over 3^i leaves component 0 (int)"),
        (["classify", "--config", lambda tmp: write_extension(tmp, dict(
            pattern(3, {"gamma": ["-1"]}), residue_char=5), p=3)],
         "extension/residue_char: equal characteristic requires residue_char == char"),
        # residue_char defaults to char, so the tail's 1/2 meets a pdiv class of 3
        (["classify", "--config", lambda tmp: write_extension(tmp, pattern(
            2, {"gamma": ["-1"]}), p=3)],
         "extension/generator/tails/0: tail base exponent -1 over 2^i leaves component 0"),
        # a characteristic-0 model has no series for a pattern generator
        (["classify", "--config", lambda tmp: write_extension(tmp, {
            "kind": "kummer_defect", "degree": 3,
            "generator": {"type": "pattern", "tails": [{"gamma": ["-1"]}]}}, p=3)],
         "extension/generator/type: a pattern generator needs series arithmetic"),
        (["classify", "--config", dict(pattern(2, {"gamma": ["-1"]}), char=0)],
         "extension/generator/type: a pattern generator needs series arithmetic"),
        # a seq segment whose first member leaves the group is an error in its scale
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "seq", "limit": ["1"], "scale": ["-1"],
            "start": 1}, ("int",))],
         "extension/generator/segment/scale: coordinate -1/2 not allowed in component 0 (int)"),
        (["kaehler", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "seq", "limit": ["1", "0"], "scale": ["0", "-1"],
            "start": 1}, ("pdiv", "int"))],
         "extension/generator/segment/scale: coordinate -1/2 not allowed in component 1 (int)"),
        # a declared segment is final and its values are positive
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "element", "gamma": ["-1"]})],
         "extension/generator/segment: the value segment must consist of positive values"),
        (["kaehler", "--config", lambda tmp: write_config(tmp, {
            "direction": "initial", "kind": "element", "gamma": ["1"], "closed": True})],
         "extension/generator/segment: the value segment of the extension must be final"),
        # a defect extension without a generator names the missing field
        (["classify", "--config", {"kind": "as_defect", "degree": 2, "char": 2}],
         "extension/generator: a defect extension needs a generator"),
        (["classify", "--config", {"kind": "kummer_defect", "degree": 2}],
         "extension/generator: a defect extension needs a generator"),
        # a misspelt key, or one another kind of generator or extension reads,
        # is named; read as absent, "strat" moved the schedule's start
        (["classify", "--config", edited("mixed-schedule-start-p3.json", lambda ext: ext[
            "generator"].update(strat=ext["generator"].pop("start")))],
         "extension/generator/strat: unknown field"),
        (["classify", "--config", edited("mixed-schedule-start-p3.json", lambda ext: ext[
            "generator"].update(tails=[{"gamma": ["-1", "0"]}]))],
         "extension/generator/tails: unknown field"),
        (["classify", "--config", edited("mixed-schedule-start-p3.json", lambda ext: ext.update(
            star_index=0, x0_value=["1", "0"]))],
         "extension/star_index: unknown field; extension/x0_value: unknown field"),
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "element", "gamma": ["1"], "closd": False})],
         "extension/generator/segment/closd: unknown field"),
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "seq", "limit": ["1"], "scale": ["-1"], "strat": 3})],
         "extension/generator/segment/strat: unknown field"),
        # a JSON number with a fraction is no exact rational
        (["classify", "--config", pattern(2, {"gamma": [-0.1]})],
         "extension/generator/tails/0/gamma: expected an array of strings and integers"),
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "element", "gamma": [0.1]})],
         "extension/generator/segment/gamma: expected an array of strings and integers"),
        # a segment field is named by its path in the document
        (["classify", "--config", lambda tmp: write_config(tmp, {
            "direction": "final", "kind": "subgroup", "level": 3}, ("pdiv", "pdiv"))],
         "extension/generator/segment/level: level must lie in 0..2"),
        # nested deeper than the JSON decoder recurses
        (["classify", "--config", lambda tmp: write_text(tmp, "[" * 100_000)], "--config"),
        # p lies in the maximal ideal: v(p) = 0 and v(p) < 0 put I_E outside the ring
        (["kaehler", "--config", lambda tmp: write_extension(tmp, dict(
            WILD_KUMMER, subkind="kummer_value", vp=["0", "0"]), ("int", "pdiv"), 3)],
         "extension/vp: v(p) = (0, 0) is not positive"),
        (["classify", "--config", lambda tmp: write_extension(tmp, dict(
            WILD_KUMMER, subkind="kummer_one_unit", vp=["0", "-2"],
            v_eta_minus_1=["1", "0"]), ("int", "pdiv"), 3)],
         "extension/vp: v(p) = (0, -2) is not positive"),
        (["kaehler", "--config", {"kind": "defectless_value", "degree": 3, "star_index": 0,
                                  "x0_value": ["1"], "vp": ["-2"]}],
         "extension/vp: v(p) = -2 is not positive"),
    ])
    def test_bad_value_exits_2_naming_it(self, tmp_path, capsys, args, named):
        args = [write_extension(tmp_path, a) if isinstance(a, dict)
                else a(tmp_path) if callable(a) else a for a in args]
        try:
            code = main(args)
        except SystemExit as exit:  # argparse rejects the flag value itself
            code = exit.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err

    @pytest.mark.parametrize("command", ["classify", "kaehler"])
    def test_seq_segment_with_a_negative_start(self, tmp_path, capsys, command):
        # a negative scale makes the union its first member, 5 - 1 * 2^1 here
        segment = {"direction": "final", "kind": "seq", "limit": ["5"], "scale": ["-1"],
                   "start": -1}
        code, report = run([command, "--config", write_config(tmp_path, segment)], tmp_path)
        assert code == 0
        assert report["certificate"]["sigma_segment"] == {
            "direction": "final", "kind": "element", "gamma": ["3"], "closed": True}
        # a first member at 1 - 2 is no positive value: a config error naming the segment
        segment["limit"] = ["1"]
        assert main([command, "--config", write_config(tmp_path, segment)]) == 2
        assert capsys.readouterr().err == (
            "error: extension/generator/segment: the value segment must consist of "
            "positive values\n")

    @staticmethod
    def residue_char_4(tmp_path, capsys, config_name):
        config = json.loads((CONFIGS / config_name).read_text())
        config["extension"]["residue_char"] = 4
        path = write_text(tmp_path, json.dumps(config))
        assert main(["classify", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "error: extension/residue_char: 4 is neither 0 nor prime" in err
        return err

    def test_residue_char_not_prime_on_a_defectless_config(self, tmp_path, capsys):
        # read as tame before, because 4 never equals the prime degree
        self.residue_char_4(tmp_path, capsys, "defectless-dense.json")

    def test_residue_char_checked_before_the_degree(self, tmp_path, capsys):
        err = self.residue_char_4(tmp_path, capsys, "mixed-schedule-p5.json")
        assert "extension/degree" not in err

    @pytest.mark.parametrize("args", [
        ["classify", "--config", str(CONFIGS / "abhyankar-p3.json"), "--p", "7"],
        ["kaehler", "--config", str(CONFIGS / "abhyankar-p3.json"), "--seed", "9"],
        ["prescribe", "--rank", "3", "--select", "1", "--seed", "9"],
        ["eval", "--formula", "v(t) > 0", "--seed", "4"],
        ["abhyankar", "--format", "json"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err


# Generated configs: a well-formed extension of each kind, then up to two
# fields replaced by any value of their JSON type, or by loose coordinates.
@st.composite
def _element(draw, components, p, sign=0):
    """Coordinates of a group element; with a sign, its leading one has it."""
    def coord(kind, lo, hi):
        d = draw(st.sampled_from({"int": (1,), "pdiv": (1, p, p * p),
                                  "rat": (1, 2, 3, p)}[kind]))
        return f"{draw(st.integers(lo, hi))}/{d}"

    coords = [coord(kind, -4, 4) for kind in components]
    if sign:
        i = draw(st.integers(0, len(components) - 1))
        coords[:i + 1] = ["0"] * i + [coord(components[i], 1, 4)]
        if sign < 0:
            coords[i] = "-" + coords[i]
    return coords


def _loose_coords(p):
    item = st.one_of(st.builds(lambda n, d: f"{n}/{d}", st.integers(-8, 8),
                               st.sampled_from([1, 2, 3, p, p * p])),
                     st.integers(-3, 3), st.floats(), st.none(), st.text(max_size=3))
    return st.lists(item, max_size=4)


@st.composite
def _well_formed(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["as_defect", "as_defect", "kummer_defect",
                                 "defectless_value"]))
    dense = st.lists(st.sampled_from(["pdiv", "rat"]), min_size=1, max_size=3)
    components = draw(dense if kind == "as_defect" else
                      st.lists(st.sampled_from(["int", "pdiv", "rat"]),
                               min_size=1, max_size=3))

    def elem(sign=0):
        return draw(_element(components, p, sign))

    if kind == "as_defect" and draw(st.booleans()):
        tails = [{"gamma": elem(-1), "start": draw(st.integers(1, 3)),
                  "coeff": draw(st.integers(1, p - 1))}
                 for _ in range(draw(st.integers(1, 2)))]
        ext = {"kind": kind, "degree": p, "char": p,
               "generator": {"type": "pattern", "tails": tails}}
    elif kind == "as_defect":
        segment = draw(st.sampled_from([
            {"direction": "final", "kind": "element", "gamma": elem(1)},
            {"direction": "final", "kind": "subgroup", "level": len(components),
             "shift": elem(1), "closed": draw(st.booleans())}]))
        ext = {"kind": kind, "degree": p, "generator": {"type": "sigma", "segment": segment}}
    elif kind == "kummer_defect":
        ext = {"kind": kind, "degree": p, "char": 0, "residue_char": p, "vp": elem(1),
               "generator": {"type": "schedule", "limit": elem(-1), "scale": elem(1)}}
    else:
        star = draw(st.integers(0, len(components) - 1))
        ext = {"kind": kind, "degree": draw(st.sampled_from([2, 3, 5])),
               "star_index": star, "x0_value": elem(draw(st.sampled_from([-1, 1]))),
               "subkind": draw(st.sampled_from(["value_only", "artin_schreier",
                                                "kummer_value", "kummer_one_unit"])),
               "residue_char": draw(st.sampled_from([0, p])), "vp": elem(1),
               "v_eta_minus_1": elem(1)}
    if kind != "defectless_value" and draw(st.booleans()):
        ext["sigma_shift"] = elem()
    return {"schema": 1, "depth": draw(st.integers(1, 6)),
            "group": {"components": components, "p": p}, "extension": ext}


def _mutations(p):
    """(path, strategy) for every field a mutation may replace."""
    loose = _loose_coords(p)
    gen = ("extension", "generator")
    return [
        (("depth",), st.integers(1, 6)),
        (("group", "p"), st.sampled_from([2, 3, 4, 5])),
        (("group", "rank"), st.integers(1, 4)),
        (("group", "components"), st.lists(st.sampled_from(["int", "pdiv", "rat"]),
                                          min_size=1, max_size=3)),
        (("extension", "degree"), st.sampled_from([2, 3, 4, 5])),
        (("extension", "char"), st.sampled_from([0, 2, 3, 4, 5])),
        (("extension", "residue_char"), st.sampled_from([0, 2, 3, 5])),
        (("extension", "star_index"), st.integers(0, 4)),
        (("extension", "synthetic"), st.booleans()),
        (("extension", "vp"), loose),
        (("extension", "sigma_shift"), loose),
        (("extension", "x0_value"), loose),
        (("extension", "v_eta_minus_1"), loose),
        (gen + ("limit",), loose),
        (gen + ("scale",), loose),
        (gen + ("start",), st.integers(-2, 6)),
        (gen + ("finite",), st.sampled_from(["", "t^-1", "1 + t^(1/2)", "2*t^(1,0)", "x"])),
        (gen + ("tails",), st.lists(st.fixed_dictionaries(
            {"gamma": loose},
            optional={"coeff": st.integers(-3, 3), "start": st.integers(-2, 6)}),
            max_size=3)),
        (gen + ("segment",), st.fixed_dictionaries({}, optional={
            "direction": st.sampled_from(["final", "initial", "up"]),
            "kind": st.sampled_from(["element", "subgroup", "seq", "cut"]),
            "gamma": loose, "shift": loose, "limit": loose, "scale": loose,
            "level": st.integers(-1, 4), "closed": st.booleans(),
            "start": st.integers(-2, 4)})),
    ]


@st.composite
def _configs(draw):
    config = draw(_well_formed())
    mutations = _mutations(config["group"]["p"])
    for index in draw(st.lists(st.integers(0, len(mutations) - 1), max_size=2)):
        path, values = mutations[index]
        target = config
        for key in path[:-1]:
            target = target.setdefault(key, {"type": "pattern", "tails": []})
        target[path[-1]] = draw(values)
    return config


class TestConfigProperty:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=_configs())
    def test_report_or_documented_failure(self, report_validator, config):
        for command in ("classify", "kaehler"):
            code, out, err = self.run(command, config)
            if code == 0:
                report_validator.validate(json.loads(out))
            else:
                assert code in (1, 2) and err.startswith("error:")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_missing_or_mistyped_field_named(self, data):
        config = data.draw(_well_formed())
        path, value = data.draw(st.sampled_from(list(_fields(config))))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        if path[-1] in _REQUIRED and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(
                [v for v in (7, 1.5, "x", True, None, [], {}) if type(v) is not type(value)]))
        code, _, err = self.run("classify", config)
        assert code == 2 and "/".join(map(str, path)) in err

    @staticmethod
    def run(command, config):
        """The exit code, stdout and stderr of `command` on `config`."""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
        return code, out.getvalue(), err.getvalue()


# the keys each config reader requires where it reads them
_REQUIRED = {"schema", "group", "extension", "components", "p", "kind", "degree", "star_index",
             "x0_value", "generator", "type", "tails", "gamma", "limit", "scale", "segment",
             "direction", "level"}


def _fields(node, path=()):
    """(path, value) of every field of a config, and of the objects in its arrays."""
    for key, value in node.items():
        yield path + (key,), value
        if type(value) is dict:
            yield from _fields(value, path + (key,))
        elif type(value) is list:
            for n, item in enumerate(value):
                if type(item) is dict:
                    yield from _fields(item, path + (key, n))


class TestApproachComputedOnce:
    @pytest.mark.parametrize("args,calls", [
        (["abhyankar"], 1),
        (["example-e1"], 2),
        (["example-e2"], 1),
        (["kaehler", "--config", str(CONFIGS / "abhyankar-p3.json")], 1),
    ])
    def test_approach_segment_calls(self, tmp_path, monkeypatch, args, calls):
        count = []
        original = gpsfield.approach_segment

        def counting(*a, **kw):
            count.append(1)
            return original(*a, **kw)

        for name, mod in list(sys.modules.items()):
            if name.startswith("valcuts") and hasattr(mod, "approach_segment"):
                monkeypatch.setattr(mod, "approach_segment", counting)
        code, _ = run(args, tmp_path)
        assert code == 0
        assert len(count) == calls


GOLDEN_RUNS = [
    (["abhyankar", "--p", "3", "--depth", "15"], "abhyankar_p3_d15.json"),
    (["example-e1", "--p", "2", "--depth", "12"], "example_e1_p2_d12.json"),
    (["example-e2", "--p", "2", "--depth", "12"], "example_e2_p2_d12.json"),
    (["kummer-mixed", "--p", "3", "--depth", "12"], "kummer_mixed_p3_d12.json"),
    # sampled checks and the rank-2 series order at primes the runs above miss
    (["abhyankar", "--p", "5", "--depth", "14", "--seed", "7"], "abhyankar_p5_d14_s7.json"),
    (["example-e1", "--p", "3", "--depth", "10", "--seed", "5"],
     "example_e1_p3_d10_s5.json"),
]


def _run_id(args):
    """The command, and its sample seed where one is given."""
    if "--seed" not in args:
        return args[0]
    return f"{args[0]}-seed{args[args.index('--seed') + 1]}"


# the classify, kaehler and prescribe reports, which write certificates and
# schedules, and two bounded eval answers
REPORT_GOLDEN_RUNS = [
    ([command, "--config", str(CONFIGS / f"{config}.json")],
     f"{command}_{config.replace('-', '_')}.json")
    for config in ("abhyankar-p3", "defectless-dense", "mixed-schedule-p5",
                   "mixed-schedule-start-p3", "pattern-tails-p3", "synthetic-dependent",
                   # the Kaehler forms and flags the configs above never reach
                   "defectless-as-wild-p3", "defectless-kummer-zero-p5",
                   "defectless-tame-discrete-p5", "synthetic-dependent-int")
    for command in ("classify", "kaehler")
] + [
    (["prescribe", "--rank", "8", "--select", "1,2,3,4,5,6,7,8", "--p", "7",
      "--depth", "12"], "prescribe_r8_p7_d12.json"),
    (["prescribe", "--rank", "4", "--select", "1,2,3,4", "--char", "mixed", "--p", "3",
      "--depth", "10"], "prescribe_r4_mixed_p3_d10.json"),
    # at p = 2 the coefficients +1 and -1 of theta^p - theta coincide
    (["prescribe", "--rank", "3", "--select", "1,2,3", "--p", "2", "--depth", "12"],
     "prescribe_r3_p2_d12.json"),
] + [
    # two K quantifiers answered from their candidates' values
    (["eval", "--scenario", "example-e1", "--p", "2", "--bind", "b=t^(-1,0)", "--formula",
      "forall c in K : v(theta - c*c) < v(b*t)"], "eval_example_e1_p2_sq_lt.json"),
    (["eval", "--scenario", "example-e1", "--p", "2", "--bind", "b=t^(0,1)", "--formula",
      "exists c in K : v(theta - c*c) >= -v(t*b)"], "eval_example_e1_p2_sq_ge.json"),
] + [
    # a compiled value set read at a declared value, and b = 0, which the walk answers
    (["eval", "--scenario", "abhyankar", "--p", "3", "--bind", bind, "--formula",
      "forall c in K : v(theta^p - theta - c^p + c) < v(b)"], golden)
    for bind, golden in (("b=v:-1/3", "eval_abhyankar_p3_coarse_declared.json"),
                         ("b=0", "eval_abhyankar_p3_coarse_zero.json"))
] + [
    # compiled answers at each cut's own point: an open subgroup cut, a closed
    # element cut, a value inside H, and a declared value over a rat class
    (["eval", "--scenario", scenario, "--p", p, "--bind", bind, "--formula",
      DEFINITIONS[name]], golden)
    for scenario, p, bind, name, golden in (
        ("abhyankar", "3", "b=v:0", "ram-ideal-as", "eval_abhyankar_p3_ram_subgroup_cut.json"),
        ("abhyankar", "3", "b=v:0", "coarse-ring-as",
         "eval_abhyankar_p3_coarse_element_cut.json"),
        ("example-e1", "2", "b=v:0,5", "ram-ideal-as", "eval_example_e1_p2_ram_inside_h.json"),
        ("kummer-mixed", "3", "b=v:0", "ram-ideal-kummer",
         "eval_kummer_mixed_p3_ram_declared_rat.json"))
]


# each (definition, scenario) pair a scenario report checks
CHECKED_PAIRS = [("ram-ideal-as", "abhyankar"), ("max-ideal", "abhyankar"),
                 ("coarse-ring-as", "abhyankar"), ("ram-ideal-as", "example-e1"),
                 ("max-ideal", "example-e1"), ("ram-ideal-kummer", "kummer-mixed"),
                 ("coarse-ring-kummer", "kummer-mixed")]


class TestSamplesDrawnOnlyWhenRead:
    """Every check of the reports is settled exactly, so no sample is drawn."""

    @pytest.mark.parametrize("args,golden", GOLDEN_RUNS, ids=[_run_id(a) for a, _ in GOLDEN_RUNS])
    def test_samples_for_calls(self, tmp_path, monkeypatch, args, golden):
        # each report asks samples_for once and never reads what it returns
        draws = counted_draws(monkeypatch)
        out = tmp_path / "out.json"
        assert main(args + ["--out", str(out)]) == 0
        assert draws == []
        assert out.read_bytes() == (GOLDENS / golden).read_bytes()

    @pytest.mark.parametrize("name,scenario", CHECKED_PAIRS)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_check_def_draws_nothing_and_is_exact(self, tmp_path, monkeypatch, name,
                                                  scenario, p):
        draws = counted_draws(monkeypatch)
        code, report = run(["check-def", "--name", name, "--scenario", scenario,
                            "--p", str(p), "--samples", "77", "--seed", "9"], tmp_path)
        assert (code, draws, report["exact"]) == (0, [], True)
        assert report["report"] == {"definition": name, "samples": 77, "agreements": 77,
                                    "disagreements": [], "unknowns": 0,
                                    "unknown_rate": 0.0, "passed": True}

    def test_a_failed_check_def_exits_1(self, tmp_path, monkeypatch):
        # the example-e1 max-ideal target, shifted by one coset of its cut class
        targets = cli._definability_targets

        def shifted(command, sc):
            return [(name, IdealDescriptor(shift(direct.values, sc.model.value_group.unit(
                direct.values.level - 1))) if name == "max-ideal" else direct)
                for name, direct in targets(command, sc)]

        monkeypatch.setattr(cli, "_definability_targets", shifted)
        code, report = run(["check-def", "--name", "max-ideal", "--scenario", "example-e1",
                            "--p", "2"], tmp_path)
        assert (code, report["exact"], report["report"]["passed"]) == (1, False, False)
        assert report["report"]["disagreements"]
        code, report = run(["check-def", "--name", "ram-ideal-as", "--scenario", "example-e1",
                            "--p", "2"], tmp_path)
        assert (code, report["exact"], report["report"]["passed"]) == (0, True, True)
        # the scenario command fails on the same target
        assert run(["example-e1", "--p", "2"], tmp_path)[0] == 1

    @pytest.mark.parametrize("args,golden", GOLDEN_RUNS, ids=[_run_id(a) for a, _ in GOLDEN_RUNS])
    def test_the_seed_shows_only_in_its_echo(self, tmp_path, args, golden):
        lines = (GOLDENS / golden).read_text().splitlines()
        at = next(n for n, line in enumerate(lines) if line.startswith('  "seed": '))
        if "--seed" in args:
            args = args[:args.index("--seed")] + args[args.index("--seed") + 2:]
        out = tmp_path / "out.json"
        for seed in (0, 7, 12345):
            assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
            got = out.read_text().splitlines()
            assert got[at] == f'  "seed": {seed}'
            assert got[:at] + got[at + 1:] == lines[:at] + lines[at + 1:]


class TestRepeatedMain:
    """main may be called many times in one process; it builds its parser once."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_one_process_matches_fresh_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
        out = tmp_path / "out.json"
        golden = ["abhyankar", "--p", "3", "--depth", "15"]
        sequence = [
            golden,
            ["prescribe", "--rank", "4", "--select", "1,3", "--p", "5"],
            ["abhyankar", "--p", "4"],                 # argparse error: SystemExit 2
            ["prescribe", "--rank", "4", "--p", "5"],  # the --select default
            ["example-e1", "--out", str(out)],
            golden,                                    # --out must not carry over
        ]
        fresh = []
        for args in sequence:
            proc = subprocess.run([sys.executable, "-m", "valcuts.cli", *args],
                                  capture_output=True, text=True, env=src_env())
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr, written))
        for args, want in zip(sequence, fresh):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            assert (code, stdout.getvalue(), stderr.getvalue(), written) == want, args
        assert [w[0] for w in fresh] == [0, 0, 2, 0, 0, 0]
        assert fresh[0][1] == fresh[-1][1] == (GOLDENS / "abhyankar_p3_d15.json").read_text()
        assert fresh[4][1] == "" and fresh[4][3]


# cli._emit as defined, before the autouse fixture wraps it in a schema check
EMIT = cli._emit


def written(x) -> str:
    pieces = []
    cli._write(x, pieces, "\n")
    return "".join(pieces)


class Kind(str, Enum):
    # names equal to values, so that a member and its value are one dict key
    alpha = "alpha"
    é = "é"


# subclasses of the classes the writer tells apart by class: json tests them
# with isinstance, so they must go through the same tests
class ListOf(list):
    pass


class TupleOf(tuple):
    pass


class DictOf(dict):
    pass


class StrOf(str):
    pass


class IntOf(int):
    def __repr__(self):   # json writes int.__repr__, not the subclass's
        return "IntOf"


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**40),
    st.integers(max_value=-10**40), st.floats(allow_nan=False, allow_infinity=False),
    st.text(), st.text(st.characters(max_codepoint=0x3f)),   # controls, quotes, digits
    st.sampled_from(Kind))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda sub: st.one_of(
        st.lists(sub, max_size=4), st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(Kind)), sub, max_size=4)),
    max_leaves=24)


class TestWriter:
    """cli._write gives the bytes of json.dumps(x, sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    def test_same_text_as_json(self, x):
        assert written(x) == json.dumps(x, sort_keys=True, indent=2)

    @pytest.mark.parametrize("x", [
        [], {}, [[], {}, ()], {"": {"": []}}, "\u2028\x00\"\\/\ud800", -0.0, 1e300, 5e-324,
        10**400, {2: "b", 10: "a"}, {1.5: 0, -2.0: 1}, {None: 0}, {True: 0, False: 1},
        {Kind.alpha: Kind.é, "b": [Kind.alpha]}, float("nan"), [float("inf"), -float("inf")],
        ListOf(), ListOf([StrOf("a"), 1, ListOf(["b"])]), TupleOf(), TupleOf(("a", TupleOf())),
        DictOf(), DictOf(b=StrOf("x\n"), a=IntOf(3)), {StrOf("k"): StrOf("v"), "j": DictOf()},
        StrOf("\u00e9\""), IntOf(-7), [IntOf(0), {"n": IntOf(10**30)}], {IntOf(2): "two"},
        OrderedDict(), OrderedDict([("b", [1, "c"]), ("a", OrderedDict(z="y"))])])
    def test_same_text_at_the_edges(self, x):
        assert written(x) == json.dumps(x, sort_keys=True, indent=2)

    @pytest.mark.parametrize("x", [
        {(1,): 0}, {1: 0, "a": 1}, [object()], {"a": {1, 2}}, ListOf([object()]),
        TupleOf(({1},)), DictOf({(1,): 0}), DictOf(a=object()), OrderedDict(a=1, b=b"x"),
        {StrOf("a"): 1, 2: 0}])
    def test_same_error(self, x):
        with pytest.raises(TypeError) as want:
            json.dumps(x, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            written(x)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("golden", sorted(p.name for p in GOLDENS.glob("*.json")))
    def test_goldens(self, golden):
        data = json.loads((GOLDENS / golden).read_text())
        assert written(data) == json.dumps(data, sort_keys=True, indent=2)

    def test_emit_makes_no_reference_cycle(self):
        report = cli.prescribe_report(8, list(range(1, 9)), 7, "equal", 12)
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                EMIT(report, None)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert out.getvalue() == (GOLDENS / "prescribe_r8_p7_d12.json").read_text()


class TestDeterminismAndGoldens:
    @pytest.mark.parametrize("args,golden", GOLDEN_RUNS)
    def test_golden_semantic_match(self, tmp_path, args, golden):
        code, report = run(args, tmp_path)
        assert code == 0
        want = json.loads((GOLDENS / golden).read_text())
        assert report == want

    @pytest.mark.parametrize("args,golden", REPORT_GOLDEN_RUNS,
                             ids=[golden for _, golden in REPORT_GOLDEN_RUNS])
    def test_report_golden_bytes(self, tmp_path, args, golden):
        out = tmp_path / "out.json"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDENS / golden).read_bytes()

    def test_byte_stability(self, tmp_path):
        blobs = set()
        for i in range(3):
            out = tmp_path / f"run{i}.json"
            assert main(["abhyankar", "--p", "2", "--out", str(out)]) == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1

    def test_parser_covers_documented_surface(self):
        parser = build_parser()
        commands = {a.dest: a for a in parser._subparsers._group_actions}["command"]
        assert set(commands.choices) == {
            "abhyankar", "example-e1", "example-e2", "prescribe", "kummer-mixed",
            "classify", "kaehler", "eval", "check-def"}

    def test_schema_is_valid_jsonschema(self):
        jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)

    def test_all_reports_validate_against_published_schema(self, tmp_path,
                                                             report_validator):
        runs = [
            ["abhyankar", "--p", "2"],
            ["kummer-mixed", "--p", "3"],
            ["prescribe", "--rank", "2", "--select", "1", "--p", "3"],
            ["classify", "--config", str(CONFIGS / "synthetic-dependent.json")],
            ["kaehler", "--config", str(CONFIGS / "defectless-dense.json")],
            ["eval", "--formula", "v(0) = v(0)"],
            ["check-def", "--name", "ram-ideal-as"],
        ]
        for i, args in enumerate(runs):
            _, report = run(args, tmp_path, name=f"r{i}.json")
            report_validator.validate(report)
        for golden in GOLDENS.glob("*.json"):
            report_validator.validate(json.loads(golden.read_text()))
