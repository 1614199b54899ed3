"""Compare sets of suite runs, one row per (metric, workload).

    python benchmarks/suite/compare.py PARENT.json CHANGE.json [...]
    python benchmarks/suite/compare.py BASELINE.json

Each file is a run set: ``{"stamp", "runs": [...]}``, which
``run.py --append FILE`` builds one run at a time, or ``{"stamp",
"sets": [{"runs": [...]}, ...]}``, whose sets are joined.  Given one
file with two sets (a committed baseline), the first set is compared
with the second.  Runs pair up by position: run i of the parent with
run i of the change, made one after the other with the same seed,
alternating which side went first.

For every end-to-end metric in ``BENCHMARK.json`` and every workload,
where a side is *noisy* when its spread (quartile distance over the
median) exceeds the metric's bound:

* ``REGRESSED`` when the change's median is worse than the parent's by
  more than the bound, and neither side is noisy or every change run
  reads worse than every parent run;
* ``unresolved`` when a side is noisy, unless every change run reads
  better than every parent run;
* ``improved`` when, over at least ten pairs, the change wins at least
  nine tenths (ties count for neither) and the medians differ by more
  than the parent's quartile distance;
* ``no change`` otherwise.

Each row shows its base, the parent's median, and the number of
unresolved rows is printed: "no regression" holds only for the rows
that are not.  Any increase of a workload's ``ops_failed_ratio`` is
flagged.  All runs must have measured for the same seconds.  Exits 1
when anything regressed or failed more often, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_sets(path) -> list:
    with open(path) as handle:
        data = json.load(handle)
    if "sets" in data:
        return [s["runs"] for s in data["sets"]]
    return [data["runs"]]


def values(runs: list, workload: str, metric: str) -> list:
    found = []
    for run in runs:
        metrics = run["workloads"].get(workload, {}).get("metrics", {})
        if metric in metrics:
            found.append(metrics[metric]["value"])
    return found


def failed_ratio(runs: list, workload: str):
    """(failed, attempted) summed over the runs of one workload."""
    rows = [run["workloads"][workload] for run in runs
            if workload in run["workloads"]]
    return (sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows))


def spread(sample: list) -> float:
    """Quartile distance (``statistics.quantiles``) over the median."""
    if len(sample) < 2:
        return 0.0
    low, _, high = statistics.quantiles(sample, n=4)
    return (high - low) / abs(statistics.median(sample))


def verdict(parent: list, change: list, spec: dict) -> tuple:
    """(verdict, worse share, wins, pairs) for one metric and workload."""
    lower = spec["better"] == "lower"
    base = statistics.median(parent)
    median = statistics.median(change)
    worse = (median - base) / abs(base) * (1 if lower else -1)
    pairs = list(zip(parent, change))
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    every_better = (max(change) < min(parent) if lower
                    else min(change) > max(parent))
    every_worse = (min(change) > max(parent) if lower
                   else max(change) < min(parent))
    noisy = max(spread(parent), spread(change)) > spec["bound"]
    parent_iqr = spread(parent) * abs(base)
    if worse > spec["bound"] and (every_worse or not noisy):
        return "REGRESSED", worse, wins, len(pairs)
    if noisy and not every_better:
        return "unresolved", worse, wins, len(pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and worse < 0 and abs(median - base) > parent_iqr:
        return "improved", worse, wins, len(pairs)
    return "no change", worse, wins, len(pairs)


def compare(parent: list, change: list, bench: dict) -> bool:
    """Print the table; True when nothing regressed or failed more."""
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'metric':<13} {'workload':<12} {'base':>12} {'change':>12} "
          f"{'worse':>8} {'wins':>7} {'spread':>7}  verdict")
    clean = True
    rows, unresolved = 0, 0
    for spec in bench["end_to_end"]:
        for workload in workloads:
            old = values(parent, workload, spec["name"])
            new = values(change, workload, spec["name"])
            if not old or not new:
                continue
            word, worse, wins, pairs = verdict(old, new, spec)
            clean &= word != "REGRESSED"
            rows += 1
            unresolved += word == "unresolved"
            print(f"{spec['name']:<13} {workload:<12} "
                  f"{statistics.median(old):>12.5g} "
                  f"{statistics.median(new):>12.5g} {worse:>+8.1%} "
                  f"{wins:>3}/{pairs:<3} "
                  f"{max(spread(old), spread(new)):>7.1%}  {word} "
                  f"({spec['unit']}, bound {spec['bound']:.0%})")
    print(f"{unresolved} of {rows} rows unresolved: their spread exceeds "
          f"the bound, so they show neither a regression nor its absence")
    for workload in workloads:
        (old_failed, old_tried), (new_failed, new_tried) = (
            failed_ratio(parent, workload), failed_ratio(change, workload))
        if not old_tried or not new_tried:
            continue
        old_ratio, new_ratio = old_failed / old_tried, new_failed / new_tried
        if new_ratio > old_ratio:
            clean = False
            print(f"ops_failed_ratio {workload}: {old_ratio:.4g} "
                  f"({old_failed}/{old_tried}) -> {new_ratio:.4g} "
                  f"({new_failed}/{new_tried})  FAILED MORE")
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        print(f"only {pairs} pairs: no gain can be claimed "
              f"(at least {MIN_PAIRS} are needed)")
    return clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("changes", type=Path, nargs="*")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    sets = load_sets(args.parent)
    if args.changes:
        parent = [run for runs in sets for run in runs]
        changes = [[run for runs in load_sets(path) for run in runs]
                   for path in args.changes]
    elif len(sets) == 2:
        parent, changes = sets[0], [sets[1]]
    else:
        parser.error("one file must hold exactly two sets")
    lengths = {run["seconds"] for runs in [parent, *changes] for run in runs}
    if len(lengths) > 1:
        parser.error(f"runs measured for different seconds: {sorted(lengths)}")
    clean = True
    for index, change in enumerate(changes):
        if len(changes) > 1:
            print(f"\n== change {index + 1}: {args.changes[index]}")
        clean &= compare(parent, change, bench)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
