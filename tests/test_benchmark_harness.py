"""The benchmark's tracer patches library names by string; keep them patchable.

`perfbench/layers.py` wraps the public functions of every module and the
arithmetic methods of GroupElement, SeriesElement, PatternSeries.partial_sum
and FqElement for `--trace 1`.  A rename of one of those methods fails here
instead of in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import pathlib

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
