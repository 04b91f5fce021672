"""valcuts benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload deep-schedule|cut-algebra|definability \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Each run spawns fresh interpreters with
PYTHONPATH=src: SETUP_SPAWNS set-up-only children (for setup_s) and one
worker that runs the workload as a single caller in a closed loop.  The
workload seed stays here and in the generated operations; valcuts only sees
those inputs.  Every operation time is scaled to a reference interpreter
speed with the kernel of speed.py (see there); raw figures go to the
results file.  setup_s is raw wall time.  --trace 0 prints the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones (spans, counters, a cProfile pass and an
importtime pass).  Details (per-class counts, the depth curve, failures)
go to .perfbench/results/, spans to .perfbench/spans/.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}.  Without src/valcuts the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import ops as opgen
import speed
from layers import SCENARIO_BUILDERS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 6
IMPORTTIME_RUNS = 3
RUN_BUDGET_S = 170.0  # the whole invocation must end within 180 s


class BenchError(Exception):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_worker(root, args, mode, deadline, out=None, spans=None):
    """Start a worker; return it and its set-up time."""
    # the worker stops starting operations 10 s before the run budget ends
    stop_after = max(1.0, deadline - time.monotonic() - 10.0)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--stop-after", f"{stop_after:.1f}"]
    if out:
        cmd += ["--out", out]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise BenchError(f"worker ({mode}) did not reach READY")
    return proc, ready


def _wait(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run budget") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def setup_times(root, args, deadline, count) -> list[float]:
    """Set-up times of `count` set-up-only workers run one after another."""
    times = []
    for _ in range(count):
        proc, ready = _spawn_worker(root, args, "setup", deadline)
        _wait(proc, deadline)
        times.append(ready)
    return times


def import_times(root: str, deadline: float) -> dict:
    """Median cumulative import times from `python -X importtime`."""
    samples: dict[str, list[float]] = {"valcuts.cli": [], "jsonschema": []}
    for _ in range(IMPORTTIME_RUNS):
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import valcuts.cli"], cwd=root, env=_env(root),
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("the importtime pass exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError("importing valcuts.cli failed")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}


def scaled_times(ps: dict) -> list[float]:
    """Op times of one pass, scaled to the kernel's reference speed."""
    return [t * f for t, f in zip(ps["times"], speed.factors(
        ps["starts"], ps["times"], ps["kernel_starts"], ps["kernel_times"]))]


def depth_curve(ladder: dict, times) -> dict:
    """Least-squares slope of log(median time) against log(depth)."""
    points = sorted((int(d), statistics.median(times[i] for i in ops))
                    for d, ops in ladder.items())
    if len(points) < 2:
        return {"medians_s": dict(points), "exponent": 0.0, "residual": 0.0}
    xs = [math.log(d) for d, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    resid = [y - (my + slope * (x - mx)) for x, y in zip(xs, ys)]
    return {"medians_s": {str(d): t for d, t in points}, "exponent": slope,
            "residual": math.sqrt(statistics.fmean(r * r for r in resid))}


def _pct(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup, worker) -> tuple[dict, dict]:
    timed = worker["timed"]
    times = scaled_times(timed)
    raw = timed["times"]
    failed = len(timed["failures"])
    ok = len(times) - failed
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": _pct(times, 90),
        "peak_rss_mb": worker["rss_mb"],
        "success_rate": ok / len(times),
    }
    names = {v: k for k, v in worker["class_ids"].items()}
    by_class: dict[str, list[float]] = {}
    for t, c in zip(times, timed["classes"]):
        by_class.setdefault(names[c], []).append(t)
    n = len(times)
    detail = {
        "ops": n,
        "ops_beyond_p90": sum(t > metrics["op_p90_s"] for t in times),
        "error_rate": failed / n,
        "classes": {k: {"ops": len(v), "median_s": statistics.median(v),
                        "share": len(v) / n} for k, v in sorted(by_class.items())},
        "class_at_p50": _class_at(times, timed["classes"], names, 0.5),
        "class_at_p90": _class_at(times, timed["classes"], names, 0.9),
        "depth_curve": depth_curve(timed["ladder"], times),
        "busy_s": sum(times),
        "window_s": worker["wall_s"],
        "stopped_early": timed["stopped_early"],
        "raw": {"ops_per_s": ok / sum(raw),
                "op_p50_s": statistics.median(raw), "op_p90_s": _pct(raw, 90),
                "busy_s": sum(raw), "depth_curve": depth_curve(timed["ladder"], raw),
                "kernel_median_s": statistics.median(timed["kernel_times"]),
                "kernel_samples": len(timed["kernel_times"])},
    }
    return metrics, detail


def _class_at(times, classes, names, q):
    """Classes of the ops just below and above a quantile of the sorted times."""
    order = sorted(range(len(times)), key=times.__getitem__)
    k = min(len(order) - 1, int(q * (len(order) - 1)))
    lo, hi = max(0, k - 2), min(len(order), k + 3)
    return [names[classes[i]] for i in order[lo:hi]]


def per_layer(worker, imports) -> dict:
    tr = worker["trace"]
    calls, counts, outer, outer_calls = (tr["calls"], tr["counts"], tr["outer_s"],
                                         tr["outer_calls"])
    timed = worker["timed"]
    classes = {v: k for k, v in worker["class_ids"].items()}
    times = scaled_times(timed)
    traced_times = scaled_times(worker["traced"])
    n = len(traced_times)
    reports = sum(1 for c in timed["classes"][:n] if classes[c] in
                  ("ladder", "report", "golden", "rank8"))

    def per(x, base):
        return x / base if base else 0.0

    val_diffs = calls.get("gpsfield.val_diff", 0)
    evals = tr["evaluate_calls"]
    untraced = sum(times[:n])
    traced = sum(traced_times)
    curve = depth_curve(timed["ladder"], times)
    return {
        "ogroup.elements_built": counts.get("ogroup.elements_built", 0),
        "ogroup.arith_calls": counts.get("ogroup.arith", 0),
        "ogroup.compare_calls": counts.get("ogroup.compare", 0)
        + calls.get("ogroup.compare", 0),
        "ogroup.self_s": worker["profile_self_s"]["ogroup"],
        "residue.arith_calls": counts.get("residue.arith", 0),
        "residue.self_s": worker["profile_self_s"]["residue"],
        "segment.normalize_calls": calls.get("segment.normalize", 0),
        "segment.normalize_noop_ratio": per(counts.get("segment.normalize_noop", 0),
                                            calls.get("segment.normalize", 0)),
        "segment.contains_calls": calls.get("segment.contains", 0),
        "segment.contains_us": 1e6 * per(outer.get("segment.contains", 0.0),
                                         outer_calls.get("segment.contains", 0)),
        "segment.is_subset_calls": calls.get("segment.is_subset", 0),
        "segment.self_s": tr["self_s"]["segment"],
        "gpsfield.val_diff_calls": val_diffs,
        "gpsfield.val_diff_s": outer.get("gpsfield.val_diff", 0.0),
        "gpsfield.series_add_calls": counts.get("gpsfield.series_add", 0),
        "gpsfield.series_adds_per_val_diff": per(
            counts.get("gpsfield.series_add_in_val_diff", 0), val_diffs),
        "gpsfield.approach_calls_per_report": per(
            calls.get("gpsfield.approach_segment", 0), reports),
        "gpsfield.depth_exponent": curve["exponent"],
        "gpsfield.self_s": tr["self_s"]["gpsfield"],
        "extension.classify_calls_per_report": per(calls.get("extension.classify", 0),
                                                   reports),
        "extension.classify_s": outer.get("extension.classify", 0.0),
        "extension.self_s": tr["self_s"]["extension"],
        "kaehler.present_calls": calls.get("kaehler.present", 0),
        "kaehler.annihilate_calls": calls.get("kaehler.annihilate", 0),
        "kaehler.self_s": tr["self_s"]["kaehler"],
        "prescribe.verify_s": outer.get("prescribe.verify", 0.0),
        "prescribe.self_s": tr["self_s"]["prescribe"],
        "formlang.parse_s": outer.get("formlang.parse", 0.0),
        "formlang.evaluate_s.oracle": tr["evaluate_s"]["oracle"],
        "formlang.evaluate_s.bounded": tr["evaluate_s"]["bounded"],
        "formlang.oracle_ratio": per(evals["oracle"], evals["oracle"] + evals["bounded"]),
        "formlang.candidates_tried": counts.get("formlang.candidates", 0),
        "formlang.unknowns": counts.get("formlang.unknowns", 0),
        "formlang.self_s": tr["self_s"]["formlang"],
        "scenarios.build_s": sum(outer.get(f"scenarios.{b}", 0.0)
                                 for b in SCENARIO_BUILDERS),
        "cli.import_s": imports["valcuts.cli"],
        "cli.jsonschema_import_s": imports["jsonschema"],
        "cli.emit_s": outer.get("cli._emit", 0.0),
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
        "trace.spans": tr["spans"],
    }


def verdict(args, worker) -> tuple[bool, list[str]]:
    """Correctness: no wrong answers, no failures except declared known
    defects, the reference UNKNOWN counts, and trace passes that only observe."""
    problems = []
    timed = worker["timed"]
    for f in timed["failures"]:
        if f["wrong"]:
            problems.append(f"op {f['op']} ({f['cls']}): wrong answer: {f['wrong']}")
        elif not f["known_defect"]:
            problems.append(f"op {f['op']} ({f['cls']}): {f['raised']}")
    if args.workload == "definability":
        with open(os.path.join(HERE, "expected", "definability_unknowns.json"),
                  encoding="utf-8") as fh:
            expected = json.load(fh)
        if timed["reference_unknowns"] != expected:
            problems.append(f"reference UNKNOWN counts {timed['reference_unknowns']} "
                            f"differ from expected/definability_unknowns.json")
    if worker.get("trace_mismatches") or worker.get("profile_mismatches"):
        problems.append(f"outputs changed under tracing: {worker['trace_mismatches']} "
                        f"traced, {worker['profile_mismatches']} profiled ops differ")
    return not problems, problems


def declared(section: str) -> dict:
    """Declared units of one BENCHMARK.json section; every metric needs a direction."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    for m in bench[section]:
        if m.get("better") not in ("higher", "lower"):
            raise BenchError(f"{m['name']} declares no direction in BENCHMARK.json")
    return {m["name"]: m["unit"] for m in bench[section]}


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
         "peak_rss_mb": "MB", "success_rate": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or ".evaluate_s." in name:
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_per_val_diff", "_per_report", "_exponent")):
        return "ratio"
    return "count"


def self_check_ops(workload: str, seed: int) -> None:
    """One seed must give the same operation bytes every time."""
    def first_rounds():
        return b"".join(opgen.canonical(r) for r in opgen.rounds(workload, seed, 2))

    if first_rounds() != first_rounds():
        raise BenchError("the operation list is not a function of the seed")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=opgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    root = os.getcwd()
    try:
        for needed in ("BENCHMARK.json", os.path.join("src", "valcuts", "cli.py"),
                       os.path.join("tests", "goldens")):
            if not os.path.exists(os.path.join(root, needed)):
                raise BenchError(f"{needed} not found; run from the repository root")
        self_check_ops(args.workload, args.seed)
        out_dir = os.path.join(root, ".perfbench")
        for sub in ("results", "spans", "tmp"):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        # half the set-up spawns go before the measuring worker and half after
        # it, so that setup_s samples two moments of the host's speed phases
        setup = setup_times(root, args, deadline, SETUP_SPAWNS // 2)
        raw = os.path.join(out_dir, "tmp", f"{tag}.json")
        spans = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.tsv.gz")
        proc, ready = _spawn_worker(root, args, "trace" if args.trace else "run",
                                    deadline, out=raw, spans=spans if args.trace else None)
        setup.append(ready)
        _wait(proc, deadline)
        with open(raw, encoding="utf-8") as fh:
            worker = json.load(fh)
        os.remove(raw)
        setup += setup_times(root, args, deadline, SETUP_SPAWNS - SETUP_SPAWNS // 2)
        metrics, detail = end_to_end(setup, worker)
        correct, problems = verdict(args, worker)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "python": sys.version.split()[0],
                  "nproc": os.cpu_count(), "end_to_end": metrics, "detail": detail,
                  "setup_samples_s": setup, "problems": problems,
                  "known_defects": worker["timed"]["known_defects"],
                  "failures": worker["timed"]["failures"][:20]}
        if args.trace:
            imports = import_times(root, deadline)
            layer = per_layer(worker, imports)
            result["per_layer"] = layer
            result["profile_self_s"] = worker["profile_self_s"]
            result["trace"] = {k: worker["trace"][k] for k in
                               ("calls", "counts", "self_s", "outer_s")}
            result["spans_file"] = os.path.relpath(spans, root)
            printed = {k: (v, layer_unit(k)) for k, v in layer.items()}
            section = "per_layer"
        else:
            printed = {k: (v, UNITS[k]) for k, v in metrics.items()}
            section = "end_to_end"
        with open(os.path.join(out_dir, "results", f"{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        want = declared(section)
        got = {k: u for k, (_v, u) in printed.items()}
        if got != want:
            raise BenchError(f"printed metrics differ from BENCHMARK.json {section}: "
                             f"{sorted(set(got.items()) ^ set(want.items()))}")
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    for name, (value, unit) in printed.items():
        print(f"{name} = {value!r} {unit}")
    timed = worker["timed"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(timed["times"]),
        "failed": len(timed["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
