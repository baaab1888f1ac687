"""Regenerate pins.json, the correct outputs the benchmark checks against.

    python3 perfbench/pin.py

Run it only on a tree whose outputs are known to be right: every later run
of perfbench/run.py fails an item whose output differs from these pins.  It
takes about a minute, most of it the torus6 analysis.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    tw = run.import_twistss(fresh=False)
    analyze = {}
    wide = run.set_up_wide(tw, run.DEFAULT_SEED)
    deep = run.set_up_deep(tw, run.DEFAULT_SEED)
    for name, model, H, _ in wide + deep:
        report = tw.report.run_analysis(model, H)
        if not report.all_pass:
            raise SystemExit(f"{name}: a verdict fails; refusing to pin")
        full, stripped = run.report_digests(report)
        analyze[name] = {"json_sha256": full, "without_twist_expression_sha256": stripped}

    queries = {}
    for query in run.QUERY_MENU:
        code, stdout = run.run_query(tw, query)
        if code != 0:
            raise SystemExit(f"{query}: exit code {code}; refusing to pin")
        queries[query] = {
            "exit_code": code,
            "verdict": run.verdict_line(stdout),
            "stdout_sha256": run.sha256(stdout),
        }

    ok, lines = run.run_battery(tw)
    if not ok:
        raise SystemExit("selftest fails; refusing to pin")
    pins = {
        "analyze": analyze,
        "massey-query": queries,
        "selftest": {"seed": run.SELFTEST_SEED, "output_sha256": run.sha256("\n".join(lines))},
    }
    with open(run.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
