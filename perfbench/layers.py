"""Per-layer observation from outside the library.

Spans are recorded at the public entry points of each valcuts module (every
public module-level function, PatternSeries.partial_sum and cli._emit).
Names that `from .x import f` re-bound inside other modules, and functions
held in module-level dicts such as scenarios.SCENARIOS, are patched too.
Hot arithmetic methods (GroupElement, SeriesElement.__add__, FqElement) get
counters only, because a span around each would dwarf the call.

Spans and counts are recorded only while `recording` is set, which the
worker does around the timed library call of each operation and around the
set-up builds.  Spans live in flat arrays and are written out once at the
end.  A span's self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import cProfile
import gzip
import importlib
import inspect
import os
import pstats
from array import array
from time import perf_counter

LAYERS = ("ogroup", "residue", "segment", "gpsfield", "extension", "kaehler",
          "prescribe", "formlang", "scenarios", "cli")
SCENARIO_BUILDERS = ("abhyankar", "example_e1", "example_e2", "kummer_mixed")


class Tracer:
    def __init__(self):
        self.mods = {name: importlib.import_module(f"valcuts.{name}") for name in LAYERS}
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_nested = array("b")
        self.s_t0 = array("d")
        self.s_t1 = array("d")
        self.stack = [-1]
        self.active: list[int] = []
        self.op_id = -1
        self.recording = False
        self.in_val_diff = 0
        self.counts: dict[str, int] = {}
        self.eval_spans = {"oracle": [], "bounded": []}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    # -- patching ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_id[name]

    def _span(self, name: str, fn):
        nid = self._id(name)
        post = {"segment.normalize": self._post_normalize,
                "formlang.evaluate": self._post_evaluate}.get(name)
        is_val_diff = name == "gpsfield.val_diff"
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_nested, s_t0, s_t1 = self.s_nested, self.s_t0, self.s_t1
        stack, active = self.stack, self.active

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(self.op_id)
            s_nested.append(1 if active[nid] else 0)
            s_t0.append(0.0)
            s_t1.append(0.0)
            stack.append(idx)
            active[nid] += 1
            if is_val_diff:
                self.in_val_diff += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                if is_val_diff:
                    self.in_val_diff -= 1
                s_t0[idx] = t0
                s_t1[idx] = t1
            if post is not None:
                post(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn, in_val_diff_key: str | None = None):
        counts = self.counts
        counts[key] = 0
        if in_val_diff_key:
            counts[in_val_diff_key] = 0

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            counts[key] += 1
            if in_val_diff_key and self.in_val_diff:
                counts[in_val_diff_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _post_normalize(self, idx, args, result):
        if result is args[0]:
            self.counts["segment.normalize_noop"] = self.counts.get("segment.normalize_noop", 0) + 1

    def _post_evaluate(self, idx, args, result):
        self.eval_spans[result.mode].append(idx)
        c = self.counts
        c["formlang.candidates"] = c.get("formlang.candidates", 0) + result.candidates_used
        if result.value.value == "UNKNOWN":
            c["formlang.unknowns"] = c.get("formlang.unknowns", 0) + 1

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        mods = self.mods
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[fn] = self._span(f"{layer}.{name}", fn)
        self._wrappers[mods["cli"]._emit] = self._span("cli._emit", mods["cli"]._emit)
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if callable(value) and not isinstance(value, type) and value in self._wrappers:
                    self._set(mod, name, self._wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and item in self._wrappers:
                            self._patches.append((value, key, item))
                            value[key] = self._wrappers[item]
        gps = mods["gpsfield"]
        self._set(gps.PatternSeries, "partial_sum",
                  self._span("gpsfield.PatternSeries.partial_sum",
                             gps.PatternSeries.partial_sum))
        self._set(gps.SeriesElement, "__add__",
                  self._counter("gpsfield.series_add", gps.SeriesElement.__add__,
                                "gpsfield.series_add_in_val_diff"))
        ge = mods["ogroup"].GroupElement
        self._set(ge, "__post_init__", self._counter("ogroup.elements_built",
                                                     ge.__post_init__))
        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
            self._set(ge, attr, self._counter("ogroup.arith", getattr(ge, attr)))
        for attr in ("__lt__", "__le__", "__gt__", "__ge__"):
            self._set(ge, attr, self._counter("ogroup.compare", getattr(ge, attr)))
        fq = mods["residue"].FqElement
        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "inverse"):
            self._set(fq, attr, self._counter("residue.arith", getattr(fq, attr)))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.s_name)):
                fh.write(f"{self.s_op[i]}\t{names[self.s_name[i]]}\t{self.s_t0[i]:.9f}\t"
                         f"{self.s_t1[i]:.9f}\t{self.s_parent[i]}\n")

    def summary(self) -> dict:
        n = len(self.s_name)
        dur = [self.s_t1[i] - self.s_t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.s_parent[i]
            if par >= 0:
                child[par] += dur[i]
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        outer: dict[str, float] = {}
        outer_calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.s_name[i]]
            self_by_layer[name.split(".", 1)[0]] += dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if not self.s_nested[i]:
                outer[name] = outer.get(name, 0.0) + dur[i]
                outer_calls[name] = outer_calls.get(name, 0) + 1
        return {
            "spans": n,
            "self_s": self_by_layer,
            "calls": calls,
            "outer_s": outer,
            "outer_calls": outer_calls,
            "counts": dict(self.counts),
            "evaluate_s": {mode: sum((dur[i] for i in idx), 0.0)
                           for mode, idx in self.eval_spans.items()},
            "evaluate_calls": {mode: len(idx) for mode, idx in self.eval_spans.items()},
        }


def profile_self_times(profiler: cProfile.Profile) -> dict:
    """Total own time per valcuts source module from a cProfile pass."""
    stats = pstats.Stats(profiler)
    out = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.stats.items():
        base = os.path.basename(filename)
        if base.endswith(".py") and base[:-3] in out and f"valcuts{os.sep}" in filename:
            out[base[:-3]] += tt
    return out
