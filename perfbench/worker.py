"""One fresh interpreter running one workload in a closed loop.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N \
        --seconds S --mode setup|run|trace --out PATH --stop-after T

A single caller issues the next operation only after the previous one has
returned.  Only the library call is timed, traced and profiled; inputs are built before
the clock starts, and outputs are converted and checked by oracles.py after
it stops.  Between operations, about every speed.SAMPLE_EVERY_S, the worker
times the reference kernel of speed.py so that run.py can scale op times to
a reference speed.
The worker prints READY once the workload's first operation can start.

The run executes ops.round_count(W, S) rounds after round 0, so its
operation count is fixed; it stops early only if it is still running T
seconds after READY.  mode=trace executes a third as many rounds untraced, then
replays the same operations with spans and counters (layers.Tracer) and once
more under cProfile, and compares the output bytes of the traced and
untraced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import resource
import sys
import time
from array import array
from itertools import islice
from fractions import Fraction

import ops as opgen
import oracles
import speed

import valcuts.cli as cli
from valcuts import extension, formlang, gpsfield, kaehler, scenarios
from valcuts import segment as sg
from valcuts.ogroup import Component, ConvexSubgroup, GroupDescriptor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "goldens")
CLASS_IDS = {}


class Workload:
    """Builds library inputs from op data and runs one op at a time."""

    def __init__(self, name: str):
        self.groups: dict = {}
        self.goldens: dict = {}
        self.thetas: dict = {}
        self.models: dict = {}
        if name == "deep-schedule":
            for _argv, golden in opgen.GOLDEN_RUNS:
                with open(os.path.join(GOLDEN_DIR, golden), encoding="utf-8") as fh:
                    self.goldens[golden] = json.load(fh)
            for p in (2, 3, 5):
                model = scenarios.perfect_series_model(p)
                self.thetas[p] = scenarios.wild_root(model)
        elif name == "definability":
            builders = {"abhyankar": scenarios.abhyankar,
                        "example-e1": scenarios.example_e1,
                        "kummer-mixed": scenarios.kummer_mixed}
            result_of = {"abhyankar": "theta", "example-e1": "theta_x",
                         "kummer-mixed": "eta"}
            for sc_name, p in opgen.DEF_SCENARIOS.items():
                sc = builders[sc_name](p, depth=opgen.DEF_DEPTH)
                res = sc.result(result_of[sc_name])
                direct = {"ram-ideal-as": res.ram_ideal, "max-ideal": res.max_ideal,
                          "coarse-ring-as": res.H_E, "ram-ideal-kummer": res.ram_ideal,
                          "coarse-ring-kummer": res.H_E}
                self.models[sc_name] = (sc, direct)

    # -- input builders ----------------------------------------------------

    def group(self, data):
        key = (tuple(data["comps"]), data["p"])
        if key not in self.groups:
            self.groups[key] = GroupDescriptor(tuple(Component(c) for c in key[0]), key[1])
        return self.groups[key]

    @staticmethod
    def element(G, coords):
        return G.element(*[Fraction(c) for c in coords])

    def cut(self, G, data):
        direction = sg.Direction(data["dir"])
        if data["t"] == "el":
            return sg.element_cut(self.element(G, data["g"]), closed=data["closed"],
                                  direction=direction)
        return sg.subgroup_cut(ConvexSubgroup(G, data["level"]),
                               shift=self.element(G, data["d"]),
                               closed=data["closed"], direction=direction)

    def sample(self, sc, coords):
        G = sc.model.value_group
        v = self.element(G, coords)
        if sc.model.series_capable:
            return sc.model.monomial(1, v), v
        return formlang.DeclaredValue(v), v

    def ext_datum(self, op):
        G = self.group(op["group"])
        p = op["group"]["p"]
        if op["ext"] == "schedule":
            model = gpsfield.FieldModel(name="declared", char=0, residue_char=p,
                                        value_group=G)
            sched = extension.DeclaredSchedule(G, self.element(G, op["limit"]),
                                               self.element(G, op["scale"]))
            return extension.DefectDatum(
                name="declared_schedule", kind=extension.ExtensionKind.KUMMER_DEFECT,
                base=model, degree=p, generator=sched,
                sigma_shift=self.element(G, op["sigma_shift"]))
        if op["ext"] == "sigma":
            model = gpsfield.FieldModel(name="declared", char=p, value_group=G)
            return extension.DefectDatum(
                name="declared_sigma", kind=extension.ExtensionKind.AS_DEFECT,
                base=model, degree=p, declared_sigma=self.cut(G, op["cut"]),
                synthetic=True)
        opt = {}
        if "vp" in op:
            opt["vp"] = self.element(G, op["vp"])
        if "v_eta_minus_1" in op:
            opt["v_eta_minus_1"] = self.element(G, op["v_eta_minus_1"])
        return extension.DefectlessDatum(
            name="defectless", group=G, q=op["q"], star_index=op["star"],
            x0_value=self.element(G, op["x0"]),
            subkind=extension.DefectlessKind(op["subkind"]),
            residue_char=op["residue_char"], **opt)

    # -- execution -----------------------------------------------------------

    def prepare(self, op):
        """(call, finish): call() is the timed library call; finish(result)
        returns (output bytes, check error or None)."""
        kind = op["kind"]
        if kind == "cli":
            buf = io.StringIO()

            def call():
                with contextlib.redirect_stdout(buf):
                    return cli.main(op["argv"])

            def finish(rc):
                text = buf.getvalue()
                return (f"{rc}\n{text}".encode(),
                        oracles.check_report(op, rc, json.loads(text), self.goldens))

            return call, finish
        if kind == "probe":
            theta = self.thetas[op["p"]]

            def finish(v):
                value = [str(c) for c in v.coords]
                return json.dumps(value).encode(), oracles.check_probe(op, value)

            return lambda: gpsfield.val_diff(theta, theta.partial_sum(op["k"])), finish
        if kind in ("evaluate", "check_definition"):
            return self._definability(op)
        if kind == "ext":
            return self._ext(op)
        return self._cut(op)

    def _cut(self, op):
        G = self.group(op["group"])
        kind = op["kind"]
        if kind == "contains":
            s, x = self.cut(G, op["cut"]), self.element(G, op["x"])
            call = lambda: sg.contains(s, x)  # noqa: E731
        elif kind == "normalize":
            s = self.cut(G, op["cut"])
            call = lambda: sg.normalize(s)  # noqa: E731
        elif kind == "is_subset":
            a, b = self.cut(G, op["a"]), self.cut(G, op["b"])
            call = lambda: sg.is_subset(a, b)  # noqa: E731
        elif kind == "sum":
            a, b = self.cut(G, op["a"]), self.cut(G, op["b"])
            call = lambda: sg.sum(a, b)  # noqa: E731
        elif kind == "scale_int":
            s = self.cut(G, op["cut"])
            call = lambda: sg.scale_int(s, op["m"])  # noqa: E731
        elif kind == "shift":
            s, g = self.cut(G, op["cut"]), self.element(G, op["g"])
            call = lambda: sg.shift(s, g)  # noqa: E731
        elif kind == "invariance_ring":
            ideal = sg.IdealDescriptor(self.cut(G, op["cut"]))
            call = lambda: sg.invariance_ring(ideal)  # noqa: E731
        else:
            raise ValueError(kind)

        def finish(out):
            if kind == "invariance_ring":
                out = {"H_level": out[0].level, "M": sg.to_json(out[1].values)}
            elif isinstance(out, sg.Segment):
                out = sg.to_json(out)
            return opgen.canonical(out), oracles.check_cut_op(op, out)

        return call, finish

    def _ext(self, op):
        datum = self.ext_datum(op)

        def call():
            if op["ext"] == "defectless":
                res = extension.defectless_analyze(datum)
            else:
                res = extension.classify(datum, depth=op.get("depth", 12))
            pres = kaehler.annihilate(kaehler.present(res), res)
            return res, pres, kaehler.containment_holds(pres)

        def finish(result):
            res, pres, holds = result
            out = {"H_E_level": res.H_E.level, "containment_holds": holds,
                   "omega": pres.to_json()}
            if op["ext"] == "defectless":
                out["case"] = res.case.value
            else:
                out["classification"] = res.kind.value
                out["schedule"] = res.certificate.get("schedule")
            return opgen.canonical(out), oracles.check_ext_op(op, out)

        return call, finish

    def _definability(self, op):
        sc, direct = self.models[op["scenario"]]
        if op["kind"] == "evaluate":
            formula = op["formula"] or formlang.DEFINITIONS[op["name"]]
            carrier, _v = self.sample(sc, op["b"])

            def finish(res):
                out = res.to_json()
                return opgen.canonical(out), oracles.check_eval(op, out["value"])

            return (lambda: formlang.evaluate(formula, sc.fmodel, bindings={"b": carrier}),
                    finish)
        samples = []
        for coords in op["samples"]:
            carrier, v = self.sample(sc, coords)
            samples.append((",".join(coords), carrier, v))

        def finish(rep):
            out = rep.to_json()
            err = None
            if (out["disagreements"] or out["unknowns"]
                    or out["agreements"] != len(op["samples"])):
                err = (f"check_definition {op['name']}: {out['agreements']} agree, "
                       f"{out['disagreements']}, {out['unknowns']} unknown")
            return opgen.canonical(out), err

        return (lambda: formlang.check_definition(
            formlang.DEFINITIONS[op["name"]], direct[op["name"]], sc.fmodel, samples,
            name=op["name"]), finish)


def op_stream(workload: str, seed: int, count: int):
    for round_ops in opgen.rounds(workload, seed, count):
        yield from round_ops


class Pass:
    """Outcome of running a sequence of ops."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self.classes = array("b")
        self.kernel_starts = array("d")
        self.kernel_times = array("d")
        self.digests: list[bytes] = []
        self.failures: list[dict] = []
        self.ladder: dict[int, list[int]] = {}  # depth -> op indices
        self.reference_unknowns: dict[str, int] = {}
        self.known_defects: list[dict] = []
        self.stopped_early = False

    def sample_speed(self):
        self.kernel_starts.append(time.perf_counter())
        self.kernel_times.append(speed.sample())

    def to_json(self) -> dict:
        return {"starts": list(self.starts), "times": list(self.times),
                "classes": list(self.classes),
                "kernel_starts": list(self.kernel_starts),
                "kernel_times": list(self.kernel_times),
                "failures": self.failures, "ladder": self.ladder,
                "reference_unknowns": self.reference_unknowns,
                "known_defects": self.known_defects,
                "stopped_early": self.stopped_early}


def class_id(name: str) -> int:
    if name not in CLASS_IDS:
        CLASS_IDS[name] = len(CLASS_IDS)
    return CLASS_IDS[name]


def execute(wl: Workload, stream, stop_at: float, tracer=None, profiler=None,
            keep_digests=False) -> Pass:
    """Run every op of the stream, unless perf_counter() passes stop_at.

    keep_digests stores a hash of every output so that passes can be compared.
    """
    res = Pass()
    res.sample_speed()
    i = 0
    for op in stream:
        if time.perf_counter() >= stop_at:
            res.stopped_early = True
            break
        call, finish = wl.prepare(op)
        if tracer is not None:
            tracer.op_id = i
            tracer.recording = True
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        try:
            result = call()
            dt = time.perf_counter() - t0
            raised = None
        except Exception as exc:  # an op that raises is counted, not fatal
            dt = time.perf_counter() - t0
            raised = f"raised {type(exc).__name__}: {exc}"
        finally:
            if profiler is not None:
                profiler.disable()
            if tracer is not None:
                tracer.recording = False
        if raised is None:
            out, err = finish(result)
        else:
            out, err = raised.encode(), None
        res.starts.append(t0)
        res.times.append(dt)
        res.classes.append(class_id(op["cls"]))
        if keep_digests:
            res.digests.append(hashlib.sha1(out).digest())
        if op.get("known_defect"):
            res.known_defects.append({"op": i, "op_data": op, "outcome": raised or "ok",
                                      "seconds": dt})
        if raised is not None or err is not None:
            res.failures.append({"op": i, "cls": op["cls"], "raised": raised,
                                 "wrong": err, "known_defect": bool(op.get("known_defect")),
                                 "op_data": op})
        if op["cls"] == "ladder":
            res.ladder.setdefault(op["depth"], []).append(i)
        if op["cls"] == "reference" and raised is None:
            key = f"{op['scenario']}:{op['name']}"
            unknown = json.loads(out)["value"] == "UNKNOWN"
            res.reference_unknowns[key] = res.reference_unknowns.get(key, 0) + unknown
        i += 1
        if time.perf_counter() - res.kernel_starts[-1] >= speed.SAMPLE_EVERY_S:
            res.sample_speed()
    res.sample_speed()
    return res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=opgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--stop-after", type=float, default=float("inf"))
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        from layers import Tracer, profile_self_times

        tracer = Tracer()
        tracer.install()  # so the set-up work (scenario builds) is traced too
        tracer.recording = True
    wl = Workload(args.workload)
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    count = opgen.round_count(args.workload, args.seconds)
    if args.mode == "trace":
        count = max(1, count // 3)
    stream = op_stream(args.workload, args.seed, count)
    first = next(stream)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    def fresh():
        return op_stream(args.workload, args.seed, count)

    start = time.perf_counter()
    stop_at = start + args.stop_after
    timed = execute(wl, _chain(first, stream), stop_at, keep_digests=tracer is not None)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": wall, "rss_mb": rss_mb,
           "timed": timed.to_json(), "class_ids": CLASS_IDS}
    if tracer is not None:
        n = len(timed.times)
        tracer.install()
        traced = execute(wl, islice(fresh(), n), stop_at, tracer=tracer,
                         keep_digests=True)
        tracer.uninstall()
        profiler = cProfile.Profile()
        profiled = execute(wl, islice(fresh(), n), stop_at, profiler=profiler,
                           keep_digests=True)
        out["traced"] = traced.to_json()
        out["trace_mismatches"] = sum(a != b for a, b in zip(timed.digests, traced.digests))
        out["profile_mismatches"] = sum(a != b for a, b in
                                        zip(timed.digests, profiled.digests))
        out["trace"] = tracer.summary()
        out["profile_self_s"] = profile_self_times(profiler)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _chain(first, rest):
    yield first
    yield from rest


if __name__ == "__main__":
    sys.exit(main())
