"""Summaries and comparisons of benchmark records (the JSON files that
`run.py --out` writes, one per run).

    python3 perfbench/run.py --compare perfbench/out/before perfbench/out/after

For each workload and end-to-end metric it prints both sides' median,
quartiles and spread (interquartile range over median) over their runs and
the ratio of the medians, and marks a metric "unresolved" when either side's
spread exceeds the metric's bound. Per-layer medians and ratios come from traced
records, and fingerprints are compared seed by seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

# Metrics under the names users know -> the BENCHMARK.json metric whose bound applies.
NAMED_BOUND = {
    "setup_s": "setup_s",
    "train_s": "step_s_p50",
    "gen_s_p50": "step_s_p50",
    "gen_s_tail": "step_s_p50",
    "predict_gasa_lines_per_s": "step_s_p50",
    "predict_cagasa_lines_per_s": "step_s_p50",
    "peak_rss_mb": "peak_rss_mb",
}


def load(directory) -> dict:
    """(workload, trace) -> records, from every *.json file in `directory`."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values) -> tuple:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def _metric_rows(records, key) -> dict:
    values = defaultdict(list)
    for record in records:
        for name, value in record.get(key, {}).items():
            values[name].append(value)
    return values


def _bounds(spec) -> dict:
    return {m["name"]: m for m in spec["end_to_end"]}


def _check_fingerprints(records) -> None:
    """Runs of one workload with the same seed, traced or not and from either
    side of a comparison, must have the same fingerprints."""
    by_run = defaultdict(list)
    for record in records:
        by_run[(record["workload"], record["seed"])].append(record["fingerprints"])
    repeated = {key: prints for key, prints in by_run.items() if len(prints) > 1}
    differ = 0
    for (workload, seed), prints in sorted(repeated.items()):
        changed = sorted({k for p in prints for k in p if p.get(k) != prints[0].get(k)})
        if changed:
            differ += 1
            print(f"  FINGERPRINTS DIFFER {workload} seed {seed}: {', '.join(changed)}")
    print(f"  fingerprints compared on {len(repeated)} repeated (workload, seed) pair(s), "
          f"{differ} differ")


def _verdict(a, b, bound, better) -> str:
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    ratio = statistics.median(b) / statistics.median(a)
    worse = ratio > 1 + bound if better == "lower" else ratio < 1 - bound
    improved = ratio < 1 - bound if better == "lower" else ratio > 1 + bound
    return "worse" if worse else "better" if improved else "within bound"


def _compare_rows(side_a, side_b, section, bounds) -> None:
    rows_a, rows_b = _metric_rows(side_a, section), _metric_rows(side_b, section)
    print("  calibrated (BENCHMARK.json):" if section == "end_to_end" else "  raw wall time:")
    for name in rows_a:
        if name not in rows_b:
            continue
        limit = bounds.get(name if section == "end_to_end" else NAMED_BOUND.get(name, ""))
        qa, qb = quartiles(rows_a[name]), quartiles(rows_b[name])
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        verdict = ""
        if limit:
            better = limit["better"] if section == "end_to_end" else (
                "higher" if name.endswith("_per_s") else "lower"
            )
            verdict = _verdict(rows_a[name], rows_b[name], limit["bound"], better)
        print(f"    {name:<26} A {qa[1]:<11.6g} [{qa[0]:.6g}, {qa[2]:.6g}] spread "
              f"{spread(rows_a[name]):.4f}  B {qb[1]:<11.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
              f"spread {spread(rows_b[name]):.4f}  B/A {ratio:.4f}  {verdict}")


def main(dir_a, dir_b, spec) -> int:
    a, b = load(dir_a), load(dir_b)
    bounds = _bounds(spec)
    for label, side in (("A", a), ("B", b)):
        envs = {json.dumps(r["env"], sort_keys=True) for rs in side.values() for r in rs}
        for env in sorted(envs):
            print(f"env {label}: {env}")
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"{workload}  trace {trace}  runs A {len(a[key])}  B {len(b[key])}")
        for label, records in (("A", a[key]), ("B", b[key])):
            print(f"  failed operations {label}: {sum(r['failed'] for r in records)} "
                  f"of {sum(r['attempted'] for r in records)}")
        if trace == 0:
            for section in ("end_to_end", "named"):
                _compare_rows(a[key], b[key], section, bounds)
        else:
            rows_a = _metric_rows(a[key], "layers")
            rows_b = _metric_rows(b[key], "layers")
            for name in rows_a:
                if name in rows_b:
                    ma, mb = statistics.median(rows_a[name]), statistics.median(rows_b[name])
                    ratio = mb / ma if ma else float("nan")
                    print(f"  {name:<36} A {ma:<12.6g} B {mb:<12.6g} B/A {ratio:.4f}")
            for side, records in (("A", a[key]), ("B", b[key])):
                for name, values in _metric_rows(records, "overhead").items():
                    print(f"  tracing overhead {side} {name}: traced/untraced median "
                          f"{statistics.median(values):.4f}")
        _check_fingerprints(a[key] + b[key])
    return 0
