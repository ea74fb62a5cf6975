"""Fast self-tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def pkg():
    return run.import_package(run.ROOT)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "30", "--trace", "0", "--limit", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("failed_ratio: 0 ratio") for line in lines)


def test_every_per_layer_metric_has_its_unit():
    child = {"ops": 4, "op_s": 2.0, "totals": {"fans.Fan.validate": [3, 0.5]}, "counts": {}}
    repeat = run.layer_counts(child)
    metrics = run.per_layer(child, repeat, 0.9)
    metrics["trace.counts_unstable"] = {"value": 0, "unit": "count"}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["fans.validate.calls"]["value"] == 3
    assert metrics["fans.validate.self_s"]["value"] == 0.5


def test_traced_run_reports_every_per_layer_metric_and_repeats_its_counts():
    proc = bench("--workload", "random-fans", "--seed", "3", "--seconds", "30", "--trace", "1", "--limit", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 3
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.counts_unstable"]["value"] == 0
    assert metrics["trace.ops"]["value"] == 3
    assert metrics["fanifold.validate.calls"]["value"] > 0


def test_cold_set_up_imports_nothing_before_the_package():
    code = (
        "import sys; before = set(sys.modules); import package; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # gc is built into the interpreter and not imported by the package
    assert set(proc.stdout.split()) <= {"__future__", "gc", "package", "timing"}


def test_a_run_past_its_limit_is_cut_and_failed(pkg):
    ops = workloads.build("census-ladder", pkg, 5, run.ROOT)[:3]
    result = run.run_ops(ops, 0)
    assert not result.latencies
    assert len(result.failures) == 1 and result.failures[0].startswith("incomplete")


def test_hd_quantile_matches_order_statistics_on_an_even_spread():
    values = [float(v) for v in range(1, 102)]
    assert timing.hd_quantile([7.0], 0.9) == 7.0
    assert abs(timing.hd_quantile([3.0] * 20, 0.9) - 3.0) < 1e-9
    assert abs(timing.hd_quantile(values, 0.5) - 51.0) < 0.5
    assert abs(timing.hd_quantile(values, 0.9) - 91.0) < 1.0


def test_tracer_spans_nest_and_rebind_package_names(pkg):
    tracer = tracing.Tracer()
    tracer.install(pkg, run.LAYERS)
    try:
        code, out = tracer.run_op(
            "validate", lambda: workloads.cli_call(pkg.cli, ["validate", "--file", "unigon.json"])
        )
        assert code == 0 and "valid: true" in out
        totals = tracer.totals()
        assert totals["cli.run"][0] == 1
        assert totals["fanifold.Fanifold.validate"][0] == 1
        assert totals["fans.Fan.validate"][0] == 3  # one per stratum
        assert tracer.counts["cones.built"] > 0
        op_time = tracer.span_end[0] - tracer.span_start[0]
        assert abs(sum(s for _, s in totals.values()) - op_time) < 1e-6
        assert all(tracer.span_op[i] == 0 for i in range(len(tracer.span_op)))
    finally:
        run.import_package(run.ROOT)  # drop the wrapped modules


def test_wrong_expected_output_is_counted_as_failed(pkg):
    ops = [op for op in workloads.build("cli-sweep", pkg, 5, run.ROOT) if "unigon" in op.label]
    result = run.run_ops(ops, None)
    assert result.latencies and not result.failures

    wrong = ops[0]
    good_check = wrong.check
    wrong.check = lambda out: good_check((out[0], out[1] + "tampered\n"))
    result = run.run_ops(ops, None)
    assert len(result.failures) == 1 and result.failures[0].startswith(wrong.label)
    metrics = run.end_to_end(result, 0.1)
    assert metrics["ops_per_s"]["value"] > 0
    assert run.report(len(result.latencies), result.failures, metrics, []) == 1


def test_census_oracle_rejects_a_wrong_dimension(pkg, monkeypatch):
    monkeypatch.setitem(workloads.CENSUS_FORMS, "3a1", lambda d: 3 * d + 2)
    ops = [op for op in workloads.build("census-ladder", pkg, 5, run.ROOT) if op.label.startswith("3a1 D=1")]
    failures = run.run_ops(ops, None).failures
    assert failures and all("expected" in f for f in failures)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(run.ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = bench("--workload", "cli-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
