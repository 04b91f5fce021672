"""Pinned `evaluate` answers over the named definitions and the bounded formulas.

The golden `goldens/eval_grid.json` holds, for each scenario below, each
formula and each of six seeded samples bound to b, the `EvalResult` JSON or
the error text.  Regenerate it (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_eval_grid.py
"""

from __future__ import annotations

import json
import pathlib

from test_formlang import SQUARE_FORMULAS
from valcuts.errors import ValcutsError
from valcuts.formlang import DEFINITIONS, evaluate
from valcuts.scenarios import SCENARIOS, samples_for

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "eval_grid.json"
# the benchmark's names for the bounded formulas
FORMULAS = {**DEFINITIONS, **dict(zip(
    ("sq-forall", "sq-exists", "sq-forall-t", "sq-exists-t"), SQUARE_FORMULAS))}
# kummer-mixed answers ram-ideal-as with an UNKNOWN guard: eta has no carrier
GRID_SCENARIOS = (("abhyankar", 2), ("abhyankar", 3), ("example-e1", 2),
                  ("example-e2", 2), ("kummer-mixed", 3))
SAMPLES = 6


def eval_grid() -> dict:
    cells = []
    for scenario, p in GRID_SCENARIOS:
        sc = SCENARIOS[scenario](p)
        samples = samples_for(sc, SAMPLES, 0)
        for name, text in FORMULAS.items():
            for label, b, _ in samples:
                cell = {"scenario": scenario, "p": p, "formula": name, "sample": label}
                try:
                    cell["result"] = evaluate(text, sc.fmodel, bindings={"b": b}).to_json()
                except ValcutsError as err:
                    cell["error"] = f"{type(err).__name__}: {err}"
                cells.append(cell)
    # shaped as a report so the golden-directory schema check accepts it
    return {"schema_version": 1, "command": "eval-grid", "cells": cells}


def test_eval_answers_match_the_golden():
    want = json.loads(GOLDEN.read_text())
    got = eval_grid()
    assert len(got["cells"]) == len(want["cells"])
    for g, w in zip(got["cells"], want["cells"]):
        assert g == w


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(eval_grid(), sort_keys=True, indent=2) + "\n")
