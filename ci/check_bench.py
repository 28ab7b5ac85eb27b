#!/usr/bin/env python3
"""Check `BENCH JSON` lines captured from cargo bench output.

CI greps `^BENCH JSON ` lines out of the bench logs into a JSON-lines
file and runs this script over it. `CHECKS` is the one place that names
each gated bench, its metric and its bound: a floor a speedup must
clear, or a ceiling an overhead must stay under. `inject_regression.py`
imports it to show that every bound fires.

Usage:
    check_bench.py bench.json --require pdes_columbia_10240 [more...]

Exits nonzero if a required bench is missing from the file or any
present known bench violates its bound. Unknown benches are reported
but not gated.
"""

import argparse
import json
import sys

# bench name -> (metric, comparison, bound). ">=" is a floor the metric
# must clear; "<" is a ceiling it must stay under.
CHECKS = {
    # Disabled host-telemetry hooks vs. a bare loop over the same jobs.
    "host_obs_overhead": ("overhead_pct", "<", 2.0),
    # Conservative PDES loop at 4 threads vs. one thread on the
    # full-Columbia 10,240-rank run (bit-identical results). The floor
    # is 20% under the 2.4x recorded for this run: 2.4 x 0.8 = 1.92.
    "pdes_columbia_10240": ("speedup4", ">=", 1.92),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="JSON-lines file of BENCH JSON records")
    parser.add_argument(
        "--require",
        nargs="+",
        default=[],
        metavar="BENCH",
        help="bench names that must be present in the file",
    )
    args = parser.parse_args()

    with open(args.bench_json, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    if not rows:
        print("no BENCH JSON lines captured", file=sys.stderr)
        return 1

    by_name = {}
    for row in rows:
        by_name[row["bench"]] = row  # last sample of a bench wins

    failures = []
    for name in args.require:
        if name not in by_name:
            failures.append(f"required bench {name!r} missing from {args.bench_json}")

    for name, row in by_name.items():
        check = CHECKS.get(name)
        if check is None:
            print(f"note   {name}: no absolute bound registered (not gated here)")
            continue
        metric, op, bound = check
        value = row.get(metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{name}: metric {metric!r} missing or non-numeric")
            continue
        ok = value >= bound if op == ">=" else value < bound
        detail = ", ".join(
            f"{k} {v}" for k, v in row.items() if k not in ("bench", metric)
        )
        verdict = "ok" if ok else "FAIL"
        print(f"{verdict:6} {name}: {metric} {value} (need {op} {bound}; {detail})")
        if not ok:
            failures.append(f"{name}: {metric} {value} violates {op} {bound}")

    for failure in failures:
        print(f"BENCH CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
