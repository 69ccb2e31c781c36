"""Self-tests of the benchmark, on the tiny variant of each workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metric -> the workloads on which it must be nonzero
ARROWS = {
    "combinat.binomial.calls": ["profile_artifacts"],
    "combinat.binomial.self_s": ["profile_artifacts"],
    "linalg.det_bareiss.calls": ["exact_verify"],
    "linalg.det_bareiss.self_s": ["exact_verify"],
    "linalg.bareiss_cells": ["exact_verify"],
    "linalg.det_bits_max": ["exact_verify"],
    "linalg.lu_exact.self_s": ["exact_verify"],
    "linalg.matmul.calls": ["exact_verify"],
    "linalg.matmul.self_s": ["exact_verify"],
    "linalg.det_ratio_last_column.self_s": ["exact_verify"],
    "models.log_escape_profile.calls": ["saddle_scan"],
    "models.log_escape_profile.self_s": ["saddle_scan"],
    "models.log_one_point_profile.calls": ["saddle_scan"],
    "models.log_one_point_profile.self_s": ["saddle_scan"],
    "models.profile_reuse_ratio": ["saddle_scan"],
    "models.one_point.calls": ["profile_artifacts", "exact_verify"],
    "models.one_point.self_s": ["profile_artifacts", "exact_verify"],
    "models.one_point_profile.self_s": ["profile_artifacts"],
    "models.vsasm_refined.self_s": ["profile_artifacts", "exact_verify"],
    "models.matrix.self_s": ["exact_verify"],
    "models.closed_l_inv.self_s": ["exact_verify"],
    "models.b_column.self_s": ["exact_verify"],
    "oracle.count_nilp.calls": ["exact_verify"],
    "oracle.count_nilp.self_s": ["exact_verify"],
    "oracle.enumerate.self_s": ["exact_verify"],
    "tangent.finite_n_saddle.self_s": ["saddle_scan"],
    "tangent.analytic_saddle.calls": ["saddle_scan"],
    "tangent.analytic_saddle.self_s": ["saddle_scan"],
    "tangent.tangent_family.self_s": ["profile_artifacts"],
    "tangent.envelope.self_s": ["profile_artifacts"],
    "curves.residual.calls": ["profile_artifacts"],
    "curves.residual.self_s": ["profile_artifacts"],
    "cli.main.self_s": ["saddle_scan", "exact_verify", "profile_artifacts"],
    "cli.artifact_bytes": ["profile_artifacts"],
    "cli.report_bytes": ["saddle_scan", "exact_verify", "profile_artifacts"],
}
WORKLOADS = ("saddle_scan", "exact_verify", "profile_artifacts")


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict, float]:
    """Run the tiny variant; returns (summary line, result line, seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), elapsed


@pytest.fixture(scope="module")
def traced() -> dict[str, tuple[dict, dict]]:
    return {w: bench(w, trace=1)[:2] for w in WORKLOADS}


def test_arrows_cover_every_per_layer_metric():
    sys.path.insert(0, str(HERE))
    import tracing

    assert set(ARROWS) == set(tracing.UNITS) - {"trace.overhead_s"}


@pytest.mark.parametrize("metric", sorted(ARROWS))
def test_per_layer_metric_nonzero_on_its_workload(traced, metric):
    for workload in ARROWS[metric]:
        summary, result = traced[workload]
        assert result["correct"] and result["failed"] == 0, summary
        assert result["metrics"][metric]["value"] > 0, (workload, metric)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_child_span_outlasts_its_parent(traced, workload):
    spans = traced[workload][0]["spans"]
    assert spans["spans"] > 0
    assert spans["outlasting_children"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_finishes_in_seconds(workload):
    summary, result, elapsed = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "max_op_s", "peak_rss_mb"}
    assert elapsed < 30, summary


def test_missing_binding_reports_metric_absent():
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "import tracing;"
        "b = dict(tracing.BINDINGS, **{'linalg.det_bareiss': ['arctic.cli:gone'],"
        " 'models.one_point': ['arctic.models:GONE[*].one_point']});"
        "t = tracing.Tracer(b); missing = t.install();"
        "print(json.dumps([sorted(missing), sorted(t.metrics(missing))]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    missing, names = json.loads(proc.stdout)
    assert missing == ["linalg.det_bareiss", "models.one_point"]
    for gone in ("linalg.det_bareiss.calls", "linalg.bareiss_cells", "models.one_point.calls"):
        assert gone not in names
    assert "linalg.lu_exact.self_s" in names


def test_seed_moves_only_free_inputs():
    sys.path.insert(0, str(HERE))
    import workloads

    for name in WORKLOADS:
        assert [o.key for o in workloads.build(name, 5)] == [o.key for o in workloads.build(name, 5)]
    assert [o.key for o in workloads.build("exact_verify", 1)] == [
        o.key for o in workloads.build("exact_verify", 2)]
    one, two = workloads.build("saddle_scan", 1), workloads.build("saddle_scan", 2)
    assert one != two and len(one) == 96
    assert one[15] == two[15]  # the last grid point of each model is fixed
