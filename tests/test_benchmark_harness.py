"""The benchmark's tracer patches library names by string; keep them patchable.

`perfbench/layers.py` wraps the public functions of every module and the
arithmetic methods of GroupElement, SeriesElement, PatternSeries.partial_sum
and FqElement for `--trace 1`.  A rename of one of those methods fails here
instead of in a traced benchmark run.
"""

from __future__ import annotations

import hashlib
import importlib
import pathlib
from fractions import Fraction

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def _state(tracer):
    mods = tracer.mods
    owners = list(mods.values()) + [
        mods["residue"].FqElement, mods["ogroup"].GroupElement,
        mods["gpsfield"].SeriesElement, mods["gpsfield"].PatternSeries]
    state = {}
    for owner in owners:
        for name, value in vars(owner).items():
            state[owner.__name__, name] = value
            if isinstance(value, dict):
                state[owner.__name__, name, "items"] = dict(value)
    return state


def test_tracer_install_and_uninstall_restore_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("layers").Tracer()
    before = _state(tracer)
    fq = tracer.mods["residue"].FqElement
    try:
        tracer.install()
        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "inverse"):
            assert vars(fq)[attr] is not before["FqElement", attr]
        assert _state(tracer) != before
    finally:
        tracer.uninstall()
    assert _state(tracer) == before


def test_each_workload_op_class_runs_against_the_library(monkeypatch):
    """The first op of every (kind, class) pair runs without raising and checks out.

    The benchmark builds its inputs through library names and keywords that
    nothing else in the suite calls the same way, so deleting one fails here.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ops = importlib.import_module("ops")
    worker = importlib.import_module("worker")
    ran = 0
    for name in ops.WORKLOADS:
        workload = worker.Workload(name)
        seen = set()
        for round_ops in ops.rounds(name, 1, 2):
            for op in round_ops:
                if (op["kind"], op["cls"]) in seen:
                    continue
                seen.add((op["kind"], op["cls"]))
                call, finish = workload.prepare(op)
                _, err = finish(call())
                assert err is None, (name, op["kind"], op["cls"], err)
                ran += 1
    assert ran == 18


def test_tracer_counts_closed_and_checked_element_builds(monkeypatch):
    """Every GroupElement passes __post_init__, so the per-layer counters see
    the sums that skip the class check as well as the checked builds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("layers").Tracer()
    g = tracer.mods["ogroup"].GroupDescriptor(("pdiv", "pdiv"), 3)
    a, b = g.element(Fraction(1, 3), 2), g.element(-1, Fraction(4, 9))
    try:
        tracer.install()
        tracer.recording = True
        a + b
        a * Fraction(1, g.prime)
        g.element(Fraction(2, 9), 0)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert tracer.counts["ogroup.elements_built"] == 3
    assert tracer.counts["ogroup.arith"] == 2


# sha1 over the sha1 of each op output of round 0 and the first rounds of
# seed 1, as the worker's `finish` writes it; generated before slot setters
# replaced `object.__setattr__` in the value classes.  A change that means to
# move an op output regenerates them with
#     PYTHONPATH=src python tests/test_benchmark_harness.py
OUTPUT_DIGESTS = {
    "cut-algebra": (200, 3015, "3a1a8979bd4d1dbb941486fc55ee0c34ecca6424"),
    "deep-schedule": (1, 44, "8c542584e20d2bc9f4538d144ee5d34897511ced"),
    "definability": (20, 550, "09875265a9d5f7ff97291e1476ad2625f8ef80e4"),
}


def output_digests(ops, worker) -> dict:
    """(rounds, ops run, digest) of each workload: an op that raises is
    hashed as the worker records it."""
    found = {}
    for name, (count, _, _) in OUTPUT_DIGESTS.items():
        workload = worker.Workload(name)
        total, ran = hashlib.sha1(), 0
        for round_ops in ops.rounds(name, 1, count):
            for op in round_ops:
                call, finish = workload.prepare(op)
                try:
                    out, _ = finish(call())
                except Exception as exc:
                    out = f"raised {type(exc).__name__}: {exc}".encode()
                total.update(hashlib.sha1(out).digest())
                ran += 1
        found[name] = (count, ran, total.hexdigest())
    return found


def test_op_outputs_match_the_recorded_digests(monkeypatch):
    """No op output of the benchmark moves: a refactor of the library keeps
    every byte each workload's ops write."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ops = importlib.import_module("ops")
    worker = importlib.import_module("worker")
    assert output_digests(ops, worker) == OUTPUT_DIGESTS


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(PERFBENCH))
    for name, value in output_digests(importlib.import_module("ops"),
                                      importlib.import_module("worker")).items():
        print(f"    {name!r}: {value!r},")
