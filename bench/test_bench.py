"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

Tracing must change no statistical output, the count metrics must repeat
exactly for a seed, and the JSON line must carry exactly the metrics that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

COUNT_METRICS = (
    "dist.table_calls", "dist.table_cells", "dist.table_max_terms",
    "fit.loglik_calls", "fit.score_calls", "fit.info_calls", "fit.iterations",
    "data.dataset_calls", "diag.saturated_evals", "infer.useful_frac",
    *(f"infer.rep_failed.{c}" for c in layers.FAILURE_CAUSES),
)
SEED = 7


def _traced(wl, k):
    tracer = Tracer()
    layers.install(tracer)
    tracer.op = k
    try:
        op = wl.run(k)
    finally:
        tracer.unwrap_all()
    tracer.op = -1
    metrics, _ = layers.span_metrics(tracer, quota=k + 1)
    return op, metrics


@pytest.fixture(scope="module", params=["airfreight-bootstrap", "overdispersed-n868"])
def three_runs(request):
    """Operation 0 of a workload run untraced, then traced twice."""
    wl = WORKLOADS[request.param](ROOT, SEED)
    wl.prepare(Op(items=0))
    plain = wl.run(0)
    return plain, _traced(wl, 0), _traced(wl, 0)


def test_tracing_changes_no_output(three_runs):
    # The digest covers every statistical output of the operation: for the
    # bootstrap, the repr of each interval bound (exact for floats), the
    # failure count and the bytes of every kept replicate.
    plain, (traced, _), _ = three_runs
    assert plain.ok and traced.ok
    assert traced.digest == plain.digest


def test_counts_repeat_for_a_seed(three_runs):
    _, (_, first), (_, second) = three_runs
    assert first["dist.table_calls"][0] > 0
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_self_time_excludes_children():
    ns = types.SimpleNamespace(inner=lambda: sum(range(10_000)))
    ns.outer = lambda: [ns.inner() for _ in range(3)]
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    tracer.unwrap_all()
    outer, *inner = tracer.spans
    assert [s.parent for s in inner] == [0, 0, 0]
    own = tracer.self_ns()[0]
    assert own == (outer.end - outer.start) - sum(s.end - s.start for s in inner)
    assert ns.inner.__name__ == "<lambda>"   # unwrapped


def _json_line(args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_json_line_matches_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _json_line(["--workload", "cli-airfreight", "--seed", str(SEED),
                         "--seconds", "0", "--trace", trace], ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared[section]}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-airfreight",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
