"""Compare two sets of benchmark records written by run.py.

    python3 perfbench/compare.py --base out/a/*.json --new out/b/*.json

Records are grouped by workload and traced flag.  For every metric the script
prints each side's median and quartile spread and the change of the new
median, and marks an end-to-end metric REGRESSED when it is worse than the
base by more than its bound in BENCHMARK.json.  Work counts of traced records
are compared exactly.  Runs made with different engines (numba vs python)
are not comparable: the script refuses them and exits with code 2.  It exits
with code 1 when a metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    groups = defaultdict(list)
    for path in paths:
        rec = json.loads(Path(path).read_text())
        groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    engines = {rec["engine"] for side in (base, new) for recs in side.values() for rec in recs}
    if len(engines) != 1:
        print(f"refusing to compare runs of different engines: {sorted(engines)}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    for key in sorted(base.keys() & new.keys()):
        workload, traced = key
        print(f"== {workload} ({'traced' if traced else 'untraced'}; "
              f"{len(base[key])} base, {len(new[key])} new runs)")
        names = sorted(base[key][0]["metrics"])
        for name in names:
            b_med, b_spread = summary([r["metrics"][name]["value"] for r in base[key]])
            n_med, n_spread = summary([r["metrics"][name]["value"] for r in new[key]])
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            worse = change if better.get(name, "lower") == "lower" else -change
            verdict = ""
            if name in bounds and worse > bounds[name]["bound"]:
                verdict, regressed = "REGRESSED", True
            print(f"  {name:24s} {b_med:14.6g} (spread {b_spread:6.1%}) -> {n_med:14.6g} "
                  f"(spread {n_spread:6.1%})  {change:+7.1%} {verdict}")
        if traced:
            for b_rec, n_rec in zip(base[key], new[key]):
                if b_rec["seed"] == n_rec["seed"] and b_rec["counts"]["A"] != n_rec["counts"]["A"]:
                    diff = {k: (b_rec["counts"]["A"].get(k), n_rec["counts"]["A"].get(k))
                            for k in b_rec["counts"]["A"].keys() | n_rec["counts"]["A"].keys()
                            if b_rec["counts"]["A"].get(k) != n_rec["counts"]["A"].get(k)}
                    print(f"  counts differ at seed {b_rec['seed']}: {diff}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
