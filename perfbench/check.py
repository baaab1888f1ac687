"""Checks on the benchmark itself.

    python3 perfbench/check.py [--workload NAME ...] [--seed N]

For each workload (all four by default):

* determinism: two traced runs, each in its own process, must give exactly
  the same counts (every per-layer metric whose unit is not ``s``);
* coverage of the wrapping: the traced ``linalg.rref_calls`` and
  ``linalg.fraction_new`` must equal the call counts cProfile records for
  ``rref`` and ``Fraction.__new__`` over the same set-up and pass, made
  without the tracer;
* the untraced, traced and profiled runs must all pass their output checks.
  They compare every report and query output with the same pinned digests,
  so tracing and profiling leave the outputs unchanged;
* tracing overhead: traced ``trace.wall_s`` minus untraced ``wall_s``.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

import run


def profiled_counts(workload: str, seed: int) -> tuple[int, int, int]:
    """cProfile call counts of rref and Fraction.__new__ over set-up and one pass."""
    set_up, make_items = run.WORKLOAD_FNS[workload]
    pins = run.load_pins()
    tw = run.import_twistss(fresh=True)
    prof = cProfile.Profile()
    prof.enable()
    inputs = set_up(tw, seed)
    _latencies, _attempted, failed, notes = run.run_pass(make_items(tw, inputs, pins))
    prof.disable()
    for note in notes:
        print(f"  FAILED under cProfile: {note}")
    rref = fraction_new = 0
    for (filename, _line, func), (_cc, nc, _tt, _ct, _callers) in pstats.Stats(prof).stats.items():
        path = filename.replace("\\", "/")
        if func == "rref" and path.endswith("twistss/linalg.py"):
            rref += nc
        elif func == "__new__" and path.endswith("/fractions.py"):
            fraction_new += nc
    return rref, fraction_new, failed


def check_workload(workload: str, seed: int) -> bool:
    ok = True
    plain, plain_raw_wall = run.run_child(workload, seed, run.DEFAULT_SECONDS, 0)
    first, _ = run.run_child(workload, seed, run.DEFAULT_SECONDS, 1)
    second, _ = run.run_child(workload, seed, run.DEFAULT_SECONDS, 1)
    for label, result in (("untraced", plain), ("traced", first), ("traced again", second)):
        if not result["correct"]:
            print(f"  FAIL {label} run: {result['failed']} of {result['attempted']} items failed")
            ok = False

    counts = [k for k, m in first["metrics"].items() if m["unit"] != "s"]
    differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
    if differ:
        ok = False
        for k in differ:
            print(f"  FAIL {k}: {first['metrics'][k]['value']} then {second['metrics'][k]['value']}")
    else:
        print(f"  ok   {len(counts)} counts repeat exactly between two traced runs")

    rref, fraction_new, failed = profiled_counts(workload, seed)
    if failed:
        ok = False
    for name, profiled in (("linalg.rref_calls", rref), ("linalg.fraction_new", fraction_new)):
        traced = first["metrics"][name]["value"]
        status = "ok  " if traced == profiled else "FAIL"
        ok = ok and traced == profiled
        print(f"  {status} {name}: traced {traced}, cProfile {profiled}")

    traced_wall = first["metrics"]["trace.wall_s"]["value"]
    print(
        f"  tracing overhead {traced_wall - plain_raw_wall:.3f} s "
        f"(traced {traced_wall:.3f} s, untraced {plain_raw_wall:.3f} s, both unscaled)"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or run.WORKLOADS:
        print(f"{workload}:", flush=True)
        ok = check_workload(workload, args.seed) and ok
    print("all checks pass" if ok else "some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
