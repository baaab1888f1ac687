"""Benchmark for twistss: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is analyze-wide, analyze-deep, massey-query or selftest.  One workload
runs in this process on one thread.  Untraced, it sets up, then makes as
many whole passes over its items as fit in ``--seconds`` (at least one), and
prints the end-to-end metrics, scaled to a reference speed (speed.py).  Traced (``--trace 1``), it sets up once
and makes exactly one pass, so its counts do not depend on speed, and prints
the per-layer metrics.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own process, untraced and then
traced, and prints a summary with the tracing overhead and the torus6 stage
table.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS_PATH = HERE / "pins.json"
WORKLOADS = ("analyze-wide", "analyze-deep", "massey-query", "selftest")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# torus6 as a generator document: six degree-1 generators, d = 0, dimension 64.
TORUS6_NAMES = [f"e{i}" for i in range(1, 7)]
TORUS6_TWIST = "e1^e2^e3"

# cascade3 x su3: a, x, y in degree 3 and v, z in degree 5 with d v = a^x;
# dimension 32, top degree 19.
CASCADE3_SU3 = {
    "name": "cascade3xsu3",
    "top_degree": 19,
    "generators": [
        {"name": "a", "degree": 3},
        {"name": "x", "degree": 3},
        {"name": "y", "degree": 3},
        {"name": "v", "degree": 5},
        {"name": "z", "degree": 5},
    ],
    "differentials": {"v": "a^x"},
}
DEEP_PAIRS = [("cascade3xsu3", "a + z"), ("cascade7", "a"), ("cascade5", "a"), ("mixed5", "a + b")]

# Valid `twistss massey` queries on the small bundled models.  Three of the
# twenty are on mixed5 (about 80 ms against about 23 ms for the rest), so the
# 95th percentile falls inside the mixed5 group and not on its edge.  torus5
# is left out: its query costs about a second, nearly all model validation.
QUERY_MENU = [
    "heisenberg --triple a b b",
    "heisenberg --triple a a b",
    "heisenberg --twist a^b^c --thm41 --class a --t 1",
    "heisenberg --twist a^b^c --thm41 --class b --t 1",
    "torus3 --twist e1^e2^e3 --thm41 --class e1 --t 1",
    "torus3 --twist e1^e2^e3 --thm41 --class e2 --t 1",
    "torus3 --twist e1^e2^e3 --thm41 --class e3 --t 1",
    "torus3 --twist e1^e2^e3 --thm42 --class e1 --t 1 --s 1",
    "cascade3 --twist a --thm41 --class x --t 1",
    "cascade3 --twist a --thm41 --class a --t 1",
    "cascade3 --twist a --thm42 --class x --t 1 --s 1",
    "cascade5 --twist a --thm42 --class x --t 3 --s 2",
    "cascade5 --twist a --thm41 --class x --t 3",
    "cascade5 --twist a --thm41 --class a --t 3",
    "cascade7 --twist a --thm41 --class x --t 5",
    "cascade7 --twist a --thm42 --class x --t 5 --s 3",
    "cascade7 --twist a --thm41 --class x --t 2",
    "mixed5 --twist 'a + b' --thm41 --class x --t 1",
    "mixed5 --twist 'a + b' --thm41 --class a --t 1",
    "mixed5 --twist b --thm41 --class x --t 1",
]
QUERY_REPEATS = 10  # each menu entry appears this often in one pass: 200 queries


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def import_twistss(fresh: bool):
    """Import twistss from this checkout's src/, re-executing it when fresh."""
    if not (SRC / "twistss" / "__init__.py").is_file():
        raise SystemExit(f"twistss sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "twistss" or n.startswith("twistss.")]:
            del sys.modules[name]
    import twistss
    import twistss.cdga
    import twistss.cli
    import twistss.models
    import twistss.report
    import twistss.selftest
    import twistss.twist

    if Path(twistss.__file__).resolve().parent != SRC / "twistss":
        raise SystemExit(f"imported twistss from {twistss.__file__}, not from {SRC}")
    return twistss


# ---------------------------------------------------------------------------
# workloads
#
# Each workload has set_up(tw, seed) -> inputs and items(tw, inputs, pins) ->
# a list of (label, call, check).  One pass runs every item: call() is the
# timed call into twistss, and check(result) -> (attempted, failed, note)
# compares its output with the pinned correct one, untimed.


def report_digests(report) -> tuple[str, str]:
    """Digest of to_json(), and of the report with the twist expression removed."""
    doc = report.to_dict()
    del doc["twist"]["expression"]
    return sha256(report.to_json()), sha256(json.dumps(doc, sort_keys=True))


def torus6_doc(seed: int) -> dict:
    """torus6 with its generators listed in an order drawn from the seed.

    The default seed keeps e1..e6 in order.  Every order gives an isomorphic
    model and the twist is always e1^e2^e3, so the report is the same apart
    from how the twist expression is written.
    """
    names = list(TORUS6_NAMES)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(names)
    return {
        "name": "torus6",
        "top_degree": 6,
        "generators": [{"name": n, "degree": 1} for n in names],
        "differentials": {},
    }


def set_up_wide(tw, seed: int) -> list:
    """[(name, model, twist, whether the full to_json() digest applies)]"""
    doc = torus6_doc(seed)
    model = tw.cdga.model_from_dict(doc)
    H = tw.twist.parse_twist(model, TORUS6_TWIST)
    in_order = [g["name"] for g in doc["generators"]] == TORUS6_NAMES
    return [("torus6", model, H, in_order)]


def set_up_deep(tw, seed: int) -> list:
    models = {"cascade3xsu3": tw.cdga.model_from_dict(CASCADE3_SU3)}
    for name in ("cascade7", "cascade5", "mixed5"):
        models[name] = tw.cdga.load_model(tw.models.model_path(name))
    pairs = [(m, models[m], tw.twist.parse_twist(models[m], t), True) for m, t in DEEP_PAIRS]
    random.Random(seed).shuffle(pairs)
    return pairs


def check_analysis(pin: dict, full_digest_applies: bool, report) -> tuple[int, int, str]:
    full, stripped = report_digests(report)
    if not report.all_pass:
        return 1, 1, "a verdict failed"
    if full_digest_applies and full != pin["json_sha256"]:
        return 1, 1, "to_json() digest differs from the pinned one"
    if stripped != pin["without_twist_expression_sha256"]:
        return 1, 1, "digest without the twist expression differs from the pinned one"
    return 1, 0, ""


def analysis_items(tw, pairs, pins) -> list:
    return [
        (
            name,
            functools.partial(tw.report.run_analysis, model, H),
            functools.partial(check_analysis, pins["analyze"][name], full),
        )
        for name, model, H, full in pairs
    ]


def set_up_query(tw, seed: int) -> list[str]:
    """One pass: every menu entry QUERY_REPEATS times, in an order drawn from the seed."""
    schedule = QUERY_MENU * QUERY_REPEATS
    random.Random(seed).shuffle(schedule)
    return schedule


def run_query(tw, query: str) -> tuple[int, str]:
    """One in-process `twistss massey` call: its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tw.cli.main(["massey"] + shlex.split(query))
    return code, out.getvalue()


def verdict_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1].strip() if lines else ""


def check_query(pin: dict, result: tuple[int, str]) -> tuple[int, int, str]:
    code, stdout = result
    if code != pin["exit_code"]:
        return 1, 1, f"exit code {code}, expected {pin['exit_code']}"
    if verdict_line(stdout) != pin["verdict"]:
        return 1, 1, f"verdict {verdict_line(stdout)!r}"
    if sha256(stdout) != pin["stdout_sha256"]:
        return 1, 1, "output digest differs from the pinned one"
    return 1, 0, ""


def query_items(tw, schedule, pins) -> list:
    return [
        (
            query,
            functools.partial(run_query, tw, query),
            functools.partial(check_query, pins["massey-query"][query]),
        )
        for query in schedule
    ]


def set_up_selftest(tw, seed: int) -> None:
    return None


def run_battery(tw) -> tuple[bool, list[str]]:
    lines: list[str] = []
    ok = tw.selftest.run_selftest(seed=SELFTEST_SEED, emit=lines.append)
    return ok, lines


def check_battery(pin: dict, criteria: int, result: tuple[bool, list[str]]) -> tuple[int, int, str]:
    ok, lines = result
    failing = [ln for ln in lines if "criterion" in ln and not ln.startswith("PASS")]
    failed = len(failing)
    if ok and not failing and sha256("\n".join(lines)) != pin["output_sha256"]:
        failing.append("output digest differs from the pinned one")
    if failing or not ok:
        failed = max(failed, 1)
    return criteria, failed, "; ".join(failing)


def selftest_items(tw, _inputs, pins) -> list:
    check = functools.partial(check_battery, pins["selftest"], len(tw.selftest.CRITERIA))
    return [("selftest", functools.partial(run_battery, tw), check)]


# The battery's random sweep costs 31 to 37 s depending on its seed, more than
# the bounds allow between runs, so the selftest workload always runs the
# battery with its default seed, as `twistss selftest` does.
SELFTEST_SEED = 0

WORKLOAD_FNS = {
    "analyze-wide": (set_up_wide, analysis_items),
    "analyze-deep": (set_up_deep, analysis_items),
    "massey-query": (set_up_query, query_items),
    "selftest": (set_up_selftest, selftest_items),
}
# torus6 validation alone takes seconds, so analyze-wide sets up once a run;
# the other workloads set up this many times and report the median.
SETUP_REPEATS = {"analyze-wide": 1, "analyze-deep": 3, "massey-query": 3, "selftest": 3}


# ---------------------------------------------------------------------------
# measuring


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_pass(items) -> tuple[list[tuple[float, float]], int, int, list[str]]:
    """Run every item once: (start, end) of each call, attempted, failed, notes."""
    spans, notes = [], []
    attempted = failed = 0
    for label, call, check in items:
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # an item that raises is a failed item; go on with the rest
            spans.append((t0, time.perf_counter()))
            traceback.print_exc()
            att, fail, note = 1, 1, "raised an exception"
        else:
            spans.append((t0, time.perf_counter()))
            att, fail, note = check(result)
        attempted += att
        failed += fail
        if note:
            notes.append(f"{label}: {note}")
    return spans, attempted, failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run one workload; times are raw when traced, else scaled."""
    set_up, make_items = WORKLOAD_FNS[name]
    pins = load_pins()
    tracer = probe = None
    setups = []  # (start, end) of each set-up
    if trace:
        from tracer import Tracer

        t0 = time.perf_counter()
        tw = import_twistss(fresh=True)
        tracer = Tracer()
        tracer.install()
        inputs = set_up(tw, seed)
        setups.append((t0, time.perf_counter()))
    else:
        probe = SpeedProbe()
        probe.start()
        for _ in range(SETUP_REPEATS[name]):
            t0 = time.perf_counter()
            tw = import_twistss(fresh=True)
            inputs = set_up(tw, seed)
            setups.append((t0, time.perf_counter()))
    items = make_items(tw, inputs, pins)

    passes, notes = [], []  # passes: the (start, end) of each call, per pass
    attempted = failed = 0
    t_measure = time.perf_counter()
    while True:
        spans, att, fail, pass_notes = run_pass(items)
        passes.append(spans)
        attempted += att
        failed += fail
        notes += pass_notes
        # Start another pass only if one more of the same length still fits.
        now = time.perf_counter()
        if trace or now - t_measure + (now - spans[0][0]) > seconds:
            break
    if probe is not None:
        probe.stop()

    for note in notes[:20]:
        print(f"FAILED {note}")

    def unscaled(t0, t1):
        return t1 - t0 - (probe.probe_time(t0, t1) if probe else 0.0)

    raw_setup_s = statistics.median(unscaled(t0, t1) for t0, t1 in setups)
    raw_work_s = statistics.median(sum(unscaled(t0, t1) for t0, t1 in spans) for spans in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "calls": sum(len(spans) for spans in passes),
        "setups": len(setups),
        "raw_wall_s": raw_setup_s + raw_work_s,
    }
    if trace:
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = {"value": raw_setup_s + raw_work_s, "unit": "s"}
        tracer.uninstall()
    else:
        setup_s = statistics.median(probe.scaled(t0, t1) for t0, t1 in setups)
        calls, pass_times = [], []
        for spans in passes:
            window = (spans[0][0], spans[-1][1])
            scaled = [probe.scaled(t0, t1, window) for t0, t1 in spans]
            calls += scaled
            pass_times.append(sum(scaled))
        calls.sort()
        work_s = statistics.median(pass_times)
        values = {
            "wall_s": setup_s + work_s,
            "setup_s": setup_s,
            "work_s": work_s,
            "call_p50_ms": statistics.median(calls) * 1000,
            "call_p95_ms": nearest_rank(calls, 0.95) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        result["speed_factor"] = probe.factor()
        result["probes"] = len(probe.durations)
    result["metrics"] = metrics
    return result


# The names the generic metrics go by on the workloads where they apply.
ALIASES = {
    "analyze-wide": {"work_s": "analyze_s"},
    "analyze-deep": {"work_s": "analyze_s"},
    "massey-query": {"call_p50_ms": "query_p50_ms", "call_p95_ms": "query_p95_ms"},
}


def print_result(name: str, seed: int, result: dict, trace: bool) -> None:
    kind = "traced" if trace else "untraced"
    print(
        f"{name} ({kind}, seed {seed}{'' if seed == DEFAULT_SEED else ', not the default'}): "
        f"{result['setups']} set-up(s), {result['passes']} pass(es), {result['calls']} timed call(s)"
    )
    print(f"  raw wall_s {result['raw_wall_s']:.6f} s (unscaled, speed probes excluded)")
    if not trace:
        print(
            f"  times below are scaled to the reference speed by {result['speed_factor']:.4f} "
            f"(median of {result['probes']} speed probes)"
        )
    aliases = ALIASES.get(name, {})
    for key, m in result["metrics"].items():
        label = f"{key} ({aliases[key]})" if key in aliases else key
        print(f"  {label:32s} {m['value']:>16.6f} {m['unit']}")
    if not trace:
        frac = result["failed"] / result["attempted"]
        print(f"  {'fail_frac':32s} {frac:>16.6f} ratio ({result['failed']} of {result['attempted']} failed)")


def single(args) -> int:
    os.environ.pop("TWISTSS_THREADS", None)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ---------------------------------------------------------------------------
# --workload all


# (row, traced per-layer metric, untraced end-to-end metric or None)
TORUS6_ROWS = [
    ("load+validate", "cdga.load_s", "setup_s"),
    ("twisted", "twist.cohomology_s", None),
    ("all pages", "spectral.precompute_s", None),
    ("full analyze", "report.analysis_s", "work_s"),
    ("  page_agreement", "indet.page_agreement_s", None),
    ("  indeterminacy_subgroup", "indet.subgroup_s", None),
    ("  verify_main_theorems", "massey.verify_s", None),
]


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    """Run one workload in its own process: its final JSON object and raw wall_s."""
    env = {k: v for k, v in os.environ.items() if k != "TWISTSS_THREADS"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    raw_wall = None
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(f"{workload}: {line}")
        elif line.strip().startswith("raw wall_s "):
            raw_wall = float(line.split()[2])
    return json.loads(lines[-1]), raw_wall


def run_all(args) -> int:
    results = {}
    for w in WORKLOADS:
        plain, plain_raw_wall = run_child(w, args.seed, args.seconds, 0)
        traced, _ = run_child(w, args.seed, args.seconds, 1)
        results[w] = {"untraced": plain, "traced": traced}
        aliases = ALIASES.get(w, {})
        print(f"{w} (seed {args.seed}):")
        for key, m in plain["metrics"].items():
            label = aliases.get(key, key)
            print(f"  {label:14s} {m['value']:>12.4f} {m['unit']}")
        frac = plain["failed"] / plain["attempted"]
        print(f"  {'fail_frac':14s} {frac:>12.4f} ratio ({plain['failed']} of {plain['attempted']})")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain_raw_wall
        print(f"  tracing overhead {overhead:.4f} s (traced wall_s minus untraced raw wall_s)")

    traced = results["analyze-wide"]["traced"]["metrics"]
    plain = results["analyze-wide"]["untraced"]["metrics"]
    print("torus6 (64) stages of analyze-wide: untraced (scaled), traced (raw, with tracing overhead)")
    for label, key, untraced_key in TORUS6_ROWS:
        untraced = f"{plain[untraced_key]['value']:8.2f} s" if untraced_key else " " * 10
        print(f"  {label:26s} {untraced} {traced[key]['value']:8.2f} s")
    print(f"  {'Fraction.__new__ calls':26s} {'':10s} {traced['linalg.fraction_new']['value']:8d}")
    ok = all(r[k]["correct"] for r in results.values() for k in r)
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
