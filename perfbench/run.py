"""emoforge benchmark: one workload per invocation, in-process through the
public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an emoforge checkout: it imports the package from
``src/`` and keeps its inputs, outputs, artifact digests and spans under
``.bench_work/``.
With ``--trace 0`` it prints the end-to-end metrics that BENCHMARK.json
lists, with ``--trace 1`` the per-layer ones. The last line of standard
output is one JSON object. The exit code is 1 when a correctness check
failed and 2 when the working directory holds no emoforge sources. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def environment(threads: int) -> dict:
    import numpy

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "feature_threads": threads,
        "commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emoforge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the predict workload trains its served bundle in a child started this way
    parser.add_argument("--train-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "emoforge" / "__init__.py").is_file():
        print(f"error: no emoforge sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    from bench import Bench
    from emoforge.pipeline import thread_count
    from spans import FIELDS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), SRC, WORK)
    if args.train_only:
        print(json.dumps(bench.train_served()))
        return 0
    metrics = bench.run()
    threads = thread_count()
    spans_dump = []
    if bench.trace:
        metrics, spans_dump = bench.layer_metrics(threads)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["success_frac"] = 1.0 - bench.failed / max(1, bench.attempted)
    missing = sorted(set(units) - set(metrics))
    if missing:
        bench.fail(f"metrics not produced: {missing}")
    result = {
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        # a metric a failed run could not measure is null, so the line stays JSON
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics.get(name, math.nan))
                           else None, "unit": unit}
                    for name, unit in units.items()},
    }

    env = environment(threads)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{bench.tag}.json").write_text(
        json.dumps({**result, "env": env, "samples": bench.notes}, indent=2) + "\n", "utf-8")
    if spans_dump:
        with (results / f"{bench.tag}-spans.json").open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["unit", list(FIELDS)], "spans": spans_dump}, fh)
    shutil.rmtree(bench.out, ignore_errors=True)

    print(f"workload {bench.w.name} seed {bench.seed} trace {int(bench.trace)}")
    print("env " + json.dumps(env))
    for key, note in bench.notes.items():
        print(f"samples {key}: {note}")
    for name, entry in result["metrics"].items():
        print(f"  {name:38s} {entry['value']!s:>18} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
