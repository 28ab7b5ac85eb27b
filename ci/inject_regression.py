#!/usr/bin/env python3
"""Write one copy of a `BENCH JSON` lines file per bound in `check_bench.CHECKS`.

In the copy for bench B, B's gated metric sits just past its bound on
every line of B: just below a `>=` floor, or on a `<` ceiling. Every
other line is copied unchanged. CI asserts that `check_bench.py` exits 1
on each copy, which shows that every bound fires, not just one.

The injected value comes from the bound, not from the measured value:
a measured overhead near or below zero stays under its ceiling however
it is scaled.

Usage:
    inject_regression.py bench.json <dst_dir>

Writes `<dst_dir>/<bench>.json` for each gated bench. Exits 1, writing
nothing, if a gated bench is missing from the input: its copy would
check nothing.
"""

import argparse
import json
import math
import pathlib
import sys

from check_bench import CHECKS


def past(op: str, bound: float) -> float:
    """The value nearest `bound` that fails `value <op> bound`."""
    return math.nextafter(bound, -math.inf) if op == ">=" else bound


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "bench_json", type=pathlib.Path, help="JSON-lines file of BENCH JSON records"
    )
    parser.add_argument(
        "dst_dir", type=pathlib.Path, help="directory for the injected copies"
    )
    args = parser.parse_args()

    lines = [
        line
        for line in args.bench_json.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    rows = [json.loads(line) for line in lines]
    missing = sorted(set(CHECKS) - {row["bench"] for row in rows})
    if missing:
        print(
            f"gated bench(es) missing from {args.bench_json}: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1

    args.dst_dir.mkdir(parents=True, exist_ok=True)
    for bench, (metric, op, bound) in CHECKS.items():
        value = past(op, bound)
        copy = [
            json.dumps({**row, metric: value}, separators=(",", ":"))
            if row["bench"] == bench
            else line
            for line, row in zip(lines, rows)
        ]
        path = args.dst_dir / f"{bench}.json"
        path.write_text("\n".join(copy) + "\n", encoding="utf-8")
        print(f"{path}: {bench} {metric} = {value!r} (bound {op} {bound})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
