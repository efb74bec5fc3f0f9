"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE.json [BASE.json ...] -- CAND.json [CAND.json ...]

Each file is a report written by ``run.py --out`` (one seed, any number of
workloads). For every (end-to-end metric, workload) pair the script prints
both sides' medians and quartiles and one verdict:

``regressed``   the candidate's median is worse by more than the metric's
                bound in BENCHMARK.json;
``improved``    it is better by more than the base's own interquartile
                distance and wins at least nine in ten seed-paired runs;
``unresolved``  either side's spread exceeds the bound, unless every
                candidate run beats every base run (``improved``) or
                every base run beats every candidate run (``regressed``);
``unchanged``   otherwise.

``ios_per_op`` is an exact count for a given seed: runs of one side that
share a seed but differ are flagged ``nondeterministic``, and the verdict
compares the two sides seed by seed. The script exits 1 on any regression
or any rise in a workload's failed share of attempted operations.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Sequence, Tuple

import stats

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Metrics that repeat exactly for a given seed.
EXACT = frozenset({"ios_per_op"})

Runs = Dict[Tuple[str, str], List[Tuple[int, float]]]  # (workload, metric) -> [(seed, value)]


def load(paths: Sequence[pathlib.Path]) -> Tuple[Runs, Dict[str, List[int]]]:
    """Metric values by (workload, metric), and [attempted, failed] by workload."""
    runs: Runs = {}
    outcomes: Dict[str, List[int]] = {}
    for path in paths:
        report = json.loads(pathlib.Path(path).read_text())
        for workload, result in report["workloads"].items():
            totals = outcomes.setdefault(workload, [0, 0])
            totals[0] += result["attempted"]
            totals[1] += result["failed"]
            for metric, entry in result["metrics"].items():
                runs.setdefault((workload, metric), []).append((report["seed"], entry["value"]))
    return runs, outcomes


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def _nondeterministic(side: List[Tuple[int, float]]) -> bool:
    by_seed: Dict[int, set] = {}
    for seed, value in side:
        by_seed.setdefault(seed, set()).add(value)
    return any(len(values) > 1 for values in by_seed.values())


def verdict(
    base: List[Tuple[int, float]],
    cand: List[Tuple[int, float]],
    bound: float,
    lower: bool,
    exact: bool = False,
) -> str:
    """One comparison row's verdict (see the module docstring)."""
    base_values = [value for _seed, value in base]
    cand_values = [value for _seed, value in cand]
    paired = [
        (b, c) for (seed_b, b) in base for (seed_c, c) in cand if seed_b == seed_c
    ]
    if exact and paired:
        if any(_better(b, c, lower) for b, c in paired):
            return "regressed"
        if any(_better(c, b, lower) for b, c in paired):
            return "improved"
        return "unchanged"
    base_median = stats.median(base_values)
    cand_median = stats.median(cand_values)
    if stats.spread(base_values) > bound or stats.spread(cand_values) > bound:
        # Too noisy for the medians; only runs that do not overlap decide.
        if all(_better(c, b, lower) for c in cand_values for b in base_values):
            return "improved"
        if all(_better(b, c, lower) for c in cand_values for b in base_values):
            return "regressed"
        return "unresolved"
    worse_by = (cand_median - base_median) if lower else (base_median - cand_median)
    if worse_by > bound * abs(base_median):
        return "regressed"
    q1, _median, q3 = stats.quartiles(base_values)
    wins = sum(_better(c, b, lower) for b, c in paired)
    if -worse_by > q3 - q1 and (not paired or wins >= 0.9 * len(paired)):
        return "improved"
    return "unchanged"


def _fmt(values: List[float]) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_paths, cand_paths) -> int:
    spec = json.loads(BENCHMARK.read_text())
    base, base_outcomes = load(base_paths)
    cand, cand_outcomes = load(cand_paths)
    status = 0
    print(f"{'workload':22} {'metric':18} {'base median [q1, q3]':34} "
          f"{'candidate median [q1, q3]':34} verdict")
    for workload in sorted({w for w, _metric in base} & {w for w, _metric in cand}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in cand:
                continue
            exact = metric["name"] in EXACT
            row = verdict(
                base[key], cand[key], metric["bound"], metric["better"] == "lower", exact
            )
            if exact and (_nondeterministic(base[key]) or _nondeterministic(cand[key])):
                row += " nondeterministic"
            if row.startswith("regressed"):
                status = 1
            print(f"{workload:22} {metric['name']:18} "
                  f"{_fmt([v for _s, v in base[key]]):34} "
                  f"{_fmt([v for _s, v in cand[key]]):34} {row}")
    for workload, (attempted, failed) in sorted(cand_outcomes.items()):
        base_attempted, base_failed = base_outcomes.get(workload, [0, 0])
        base_rate = base_failed / base_attempted if base_attempted else 0.0
        rate = failed / attempted if attempted else 1.0
        if rate > base_rate:
            status = 1
            print(f"{workload}: failed share rose from {base_rate:.4g} to {rate:.4g}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", type=pathlib.Path)
    base = parser.parse_args(argv[:split]).reports
    cand = parser.parse_args(argv[split + 1:]).reports
    return compare(base, cand)


if __name__ == "__main__":
    raise SystemExit(main())
