"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 47 --seconds 35 --trace 0

``--trace 0`` measures untraced for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once under the layer tracer and reports the per-layer metrics. Every run
checks its outputs (see ``checks.py``).

Output: human-readable lines, one JSON detail line (run context, every
metric by its own name with its unit, sample counts, check problems),
and as the last line the result object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for datasets and span files, inside the checkout.
OUT_DIR = ROOT / ".bench_out"


def run_context(seed: int) -> dict:
    """Machine and software facts needed to read a result."""
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = list(range(os.cpu_count() or 1))
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def render(result, traced: bool) -> tuple[dict, dict]:
    """(every metric by its own name, the BENCHMARK.json metrics).

    Each entry is ``{"value": ..., "unit": ...}``. A traced run reports
    every per-layer metric, 0 for layers the workload does not run.
    """
    from perfbench import metrics as spec

    if traced:
        named = {
            name: {"value": result.layers.get(name, 0.0), "unit": unit}
            for name, unit, _ in spec.PER_LAYER
        }
        return named, named
    named = {
        name: {"value": value, "unit": spec.END_TO_END[name][0]}
        for name, value in result.metrics.items()
    }
    # Throughput with every worker the workload uses: on `serve` that is
    # the 2-worker batch rate; the one-client inline rate and latencies
    # are reported by name.
    values = {
        "setup_s": result.metrics["setup_s"],
        "ops_per_s": result.metrics.get("pairs_per_s", result.metrics.get("batch_qps")),
        "peak_rss_mb": result.metrics["peak_rss_mb"],
    }
    gated = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _) in spec.GATED.items()
    }
    return named, gated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "refresh", "serve"))
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            result = workload.trace(args.seconds)
        else:
            result = workload.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named, gated = render(result, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    for name, entry in named.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "workload": args.workload,
        "context": run_context(args.seed),
        "metrics": named,
        "info": result.info,
        "problems": result.problems,
    }, default=str))
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result.attempted)),
        "failed": int(result.failed),
        "metrics": gated,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
