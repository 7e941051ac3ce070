"""Benchmark for comreg: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run sets up SETUP_REPEATS times, then performs the workload's
operations one after another (a closed loop with one client) until
--seconds have passed, and checks every output.  It prints a report and,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A traced run spends its --seconds performing
the workload's quota of operations untraced, then the same operations
and more traced, so that it can report the tracing overhead and check
that tracing changes no output.  ``--workload all`` runs every workload untraced and traced, one
subprocess at a time.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
PIPELINE_STAGES = ("fit", "test", "diagnose", "compare")


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_op(wl, k, tracer):
    if tracer is not None:
        tracer.op = k
    try:
        return wl.run(k)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        if tracer is not None:
            tracer.op = -1


def _failed(op, label) -> bool:
    if op is None:
        return True
    for description, passed in op.checks:
        if not passed:
            print(f"check failed ({label}): {description}", file=sys.stderr)
    return not op.ok


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict for the JSON line, report lines).

    Times are the wall times of the timed stages of each operation, so the
    benchmark's own output checks are not counted.
    """
    import layers
    from tracer import Tracer
    from workloads import CLI_SUBCOMMANDS, WORKLOADS

    wl = WORKLOADS[name](ROOT, seed)
    tracer = Tracer() if trace else None
    untraced, ops = [], []
    try:
        if tracer is not None:
            layers.install(tracer)
        setups = [wl.setup() for _ in range(SETUP_REPEATS)]
        deadline = time.perf_counter() + seconds
        if tracer is not None:
            tracer.unwrap_all()
            untraced = [_run_op(wl, k, None) for k in range(wl.quota)]
            layers.install(tracer)
        while not ops or (trace and len(ops) < wl.quota) or time.perf_counter() < deadline:
            ops.append(_run_op(wl, len(ops), tracer))
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        wl.close()

    failed = sum(_failed(op, f"setup {i}") for i, op in enumerate(setups))
    failed += sum(_failed(op, f"untraced op {k}") for k, op in enumerate(untraced))
    for k, op in enumerate(ops):
        if k < len(untraced) and op is not None and untraced[k] is not None:
            op.check("traced output identical to untraced", op.digest == untraced[k].digest)
        failed += _failed(op, f"op {k}")
    attempted = len(setups) + len(untraced) + len(ops)

    done = [op for op in ops if op is not None]
    items = sum(op.items for op in done)
    wall = sum(op.wall for op in done)
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"operations {len(ops)}  {wl.item}s {items}  in {wall:.2f} s"]

    def stage_ms(stage, source):
        return 1000.0 * _median([op.stages[stage] for op in source
                                 if op is not None and stage in op.stages])

    for stage in sorted({s for op in done for s in op.stages}):
        n = sum(stage in op.stages for op in done)
        lines.append(f"  stage {stage:<16} {stage_ms(stage, done):10.2f} ms  (median of {n})")
    lines.append(f"  {wl.item}s_per_s {items / wall if wall else 0.0:12.3f} 1/s")

    if not trace:
        usage = resource.RUSAGE_CHILDREN if wl.in_subprocess else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (_median([op.wall for op in setups]), "s", len(setups)),
            "op_ms": (_median([1000.0 * op.wall / op.items for op in done]), "ms", len(done)),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB", 1),
        }
        for key, (value, unit, n) in metrics.items():
            lines.append(f"  {key:<22} {value:12.4f} {unit:<5} (samples {n})")
        metrics = {k: (v, u) for k, (v, u, _) in metrics.items()}
    else:
        metrics, causes = layers.span_metrics(tracer, wl.quota)
        metrics["diag.deviance_missing"] = (sum(
            op.deviance_missing for op in ops[:wl.quota] if op is not None), "count")
        metrics["data.load_csv_ms"] = (stage_ms("data.load_csv", setups), "ms")
        metrics["cli.import_ms"] = (stage_ms("cli.import", setups), "ms")
        for sub in CLI_SUBCOMMANDS:
            metrics[f"cli.{sub}_ms"] = (stage_ms(f"cli.{sub}", ops), "ms")
        for stage in PIPELINE_STAGES:
            metrics[f"pipeline.{stage}_ms"] = (stage_ms(stage, ops), "ms")
        plain = sum(op.wall for op in untraced if op is not None)
        traced = sum(op.wall for op in ops[:len(untraced)] if op is not None)
        metrics["trace.overhead_frac"] = ((traced - plain) / plain if plain else 0.0, "ratio")
        lines.append(f"  spans {len(tracer.spans)}; replicate failures by cause {causes}")
        for key, (value, unit) in metrics.items():
            lines.append(f"  {key:<34} {value:14.4f} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own subprocess."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]), flush=True)
            if proc.returncode != 0 or not out:
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            summary.setdefault(name, {})["per_layer" if trace else "end_to_end"] = json.loads(out[-1])
    correct = all(r["correct"] for w in summary.values() for r in w.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Measure the checkout this file sits in, never an installed comreg.
    if not (ROOT / "src" / "comreg" / "__init__.py").is_file():
        print(f"bench: no comreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
