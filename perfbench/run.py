#!/usr/bin/env python3
"""Run one evosent benchmark workload, or compare two sets of results.

    python3 perfbench/run.py --workload gasa-c5k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare perfbench/out/before perfbench/out/after

A run prints a report, then, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json when untraced, its `per_layer` metrics when traced. `--out`
also writes the full record (environment, fingerprints, every metric) that
the compare mode reads. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One single-threaded process per run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program() -> None:
    """Put the checkout's own `src` first on the path, and refuse to run
    against any other copy of evosent."""
    src = ROOT / "src"
    if not (src / "evosent" / "__init__.py").is_file():
        raise SystemExit(f"error: no evosent sources under {src}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise SystemExit(f"error: no reference oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path.insert(0, str(src))
    import evosent

    if Path(evosent.__file__).resolve().parent != (src / "evosent").resolve():
        raise SystemExit(f"error: imported evosent from {evosent.__file__}, not {src}")


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '')}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "platform": platform.platform(),
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    import_program()
    import checks
    import layers
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    oracles = checks.load_oracles(ROOT)
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result, tracer = workloads.run(spec, args.seed, args.seconds, trace, work, oracles)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, named, tail = workloads.end_to_end(spec, result)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "env": environment(),
        "correct": result.ops.failed == 0,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "failures": result.ops.failures,
        "setups": len(result.setups),
        "units": len(result.units),
        "end_to_end": e2e,
        "named": {k: v for k, (v, _) in named.items()},
        "tail": tail,
        "fingerprints": result.fingerprints,
        "samples": {
            "setup_s": result.setups,
            "setup_ratio": result.setup_ratios,
            "unit_s": [u.seconds for u in result.units if not u.traced],
            "step_s": [s for u in result.units if not u.traced for s in u.steps],
            "step_ratio": [r for u in result.units if not u.traced for r in u.ratios],
            "calibration_s": result.calibrations,
        },
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {int(trace)}")
    env = record["env"]
    print(
        f"env python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"cpu {env['cpu']!r}  caches {env['caches']}"
    )
    print(f"units {len(result.units)}  set-ups {len(result.setups)}")
    print(f"calibrated to a {workloads.CAL_REF_S} s calibration loop:")
    gated = {m["name"] for m in benchmark_spec()["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<28} {value:.6g}{'' if name in gated else '  (not gated)'}")
    print("raw wall time:")
    for name, (value, unit) in named.items():
        note = ""
        if name == "gen_s_tail":
            note = f"  ({tail['percentile']} of {tail['samples']} generations)"
        elif name == "failed_ops_ratio":
            note = f"  ({result.ops.failed} of {result.ops.attempted} operations)"
        print(f"  {name:<28} {value:.6g} {unit}{note}")
    for failure in result.ops.failures:
        print(f"  FAILED {failure}")
    for name, digest in sorted(result.fingerprints.items()):
        print(f"fingerprint {name} {digest}")

    if trace:
        layer = layers.layer_metrics(tracer, result.corpus_counts)
        overhead = workloads.tracing_overhead(spec, result)
        record["layers"] = layer
        record["overhead"] = overhead
        print("per layer (median per unit of work):")
        for name, value in layer.items():
            print(f"  {name:<36} {value:.6g}")
        for name, ratio in overhead.items():
            print(f"tracing overhead {name}: traced/untraced {ratio:.4f}")
        spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path}")

    values = record["layers"] if trace else e2e
    wanted = benchmark_spec()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    line = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="write the full record here")
    parser.add_argument("--compare", nargs=2, metavar="DIR", help="compare two result dirs")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
