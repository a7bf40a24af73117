"""Tests of the benchmark itself: smoke run, output gate, tracer, BENCHMARK.json."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run  # dataclasses resolves annotations through sys.modules
_spec.loader.exec_module(run)


def _env(**extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=170)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return proc, {d["workload"]: d for d in lines[:-2]}, lines[-1]


def test_smoke_run_passes_the_output_gate(smoke):
    proc, per_workload, result = smoke
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2 * len(run.WORKLOADS), 0)
    assert set(per_workload) == set(run.WORKLOADS)


def test_smoke_run_reports_every_layer_metric(smoke):
    _, per_workload, _ = smoke
    for name, d in per_workload.items():
        assert d["correct"], name
        assert set(d["metrics"]) == set(run.LAYER_METRICS)
        for metric, entry in d["metrics"].items():
            assert "missing" not in entry, (name, metric, entry)
            assert isinstance(entry["value"], (int, float)), (name, metric)


def test_smoke_workloads_isolate_their_layers(smoke):
    _, per_workload, _ = smoke

    def value(workload, metric):
        return per_workload[workload]["metrics"][metric]["value"]

    for w in run.WORKLOADS:
        twisted = value(w, "twist.verify_twisting_s") > 0
        assert twisted == (w == "twist-jones"), w
        oracle = value(w, "verify.trace_form_semisimple_s") > 0
        assert oracle == (w in ("oracle-q", "twist-jones")), w
        assert (value(w, "verify.verify_cell_axioms_s") > 0) == (w != "datum-q"), w
        assert (value(w, "cli.self_s") > 0) == (w != "datum-q"), w
        assert value(w, "kernel.products") >= value(w, "cellbasis.coordinates_calls") > 0
        assert value(w, "exactalg.mat_rank_cells") >= value(w, "exactalg.mat_rank_calls") > 0


def _report_digest(argv, tmp_path, hash_seed):
    report = tmp_path / f"report-{hash_seed}.json"
    proc = subprocess.run(argv + ["--report", str(report)], cwd=ROOT, capture_output=True,
                          env=_env(PYTHONHASHSEED=str(hash_seed)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_report_hash_does_not_depend_on_hash_seed(name, tmp_path):
    w = run.WORKLOADS[name]
    if w.kind == "cli":
        argv = [sys.executable, "-m", "cellmonoid.cli", *w.smoke_args]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "library", *w.smoke_args]
    digests = {_report_digest(argv, tmp_path, seed) for seed in (1, 2)}
    assert digests == {w.smoke_sha256}


TRACER_PROBE = """
import json
import tracer
from cellmonoid import cellbasis, exactalg, monoid, pipeline, verify
from cellmonoid.exactalg import RATIONALS
original = exactalg.mat_inverse
del exactalg.mat_inverse  # a name that no longer exists must not break tracing
t = tracer.Tracer()
tracer.install(t)
assert cellbasis.mat_rank is verify.mat_rank is exactalg.mat_rank
assert cellbasis.mat_inverse is original
M, _ = monoid.family("tfull", 2)
d = pipeline.standard_datum(M, RATIONALS)
verify.trace_form_semisimple(d.mult, d.dim, d.field)
cellbasis.analyze(d)
print(json.dumps(t.to_dict()))
"""


def test_tracer_rebinds_aliases_and_survives_a_missing_name():
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE], cwd=HERE, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout)
    spans = trace["spans"]
    # Calls through both aliases record under the defining module.
    assert spans["exactalg.mat_rank"]["calls"] >= 2
    assert trace["counters"]["kernel.products"] >= 4 ** 2  # the oracle's pairs over |T_2| = 4
    assert "exactalg.mat_inverse" not in spans
    metrics = run.layer_metrics({"exactalg.mat_inverse_s": "s", "exactalg.mat_rank_s": "s"},
                                [trace], [1.0], [1.1])
    assert metrics["exactalg.mat_inverse_s"]["value"] is None
    assert "mat_inverse" in metrics["exactalg.mat_inverse_s"]["missing"]
    assert metrics["exactalg.mat_rank_s"]["value"] > 0


def test_benchmark_json_matches_run_py():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(run.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert set(bounds) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_ratio"}
    assert all(0 < b <= 0.25 for b in bounds.values())
    # ok_ratio is exactly 1 unless a child fails; a run has at most about 100
    # children, so one failure anywhere in a run must break the bound.
    assert bounds["ok_ratio"] <= 0.01
    assert bounds["setup_s"] == max(bounds.values())
    assert set(run.SCALED) <= set(bounds)


def test_reference_task_prints_the_recorded_total():
    proc = subprocess.run([sys.executable, str(run.REFERENCE)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == run.REFERENCE_TOTAL
