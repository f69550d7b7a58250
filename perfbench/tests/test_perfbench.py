"""Tests of the benchmark itself, on tiny inputs.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from primekit import bigrecipes, detprime64, kernel
from primekit.verdicts import Stage, Verdict

RUN_PY = os.path.join(run.ROOT, "perfbench", "run.py")


def _cli(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, RUN_PY, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _in_process(workload, trace=0, seed=7):
    args = run._parse(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.2", "--trace", str(trace), "--tiny"])
    return run.run_workload(args)


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    done = _cli("--workload", "all", "--seed", "3", "--seconds", "0.2", "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for name in run.WORKLOAD_NAMES:
        for metric, unit in run.END_TO_END.items():
            assert any(line.startswith(f"{name}  {metric} = ") and line.endswith(f" {unit}")
                       for line in lines), (name, metric)
        assert any(line.startswith(f"{name}  failed_ratio = 0 ratio") for line in lines)
    results = json.loads(lines[-1])["workloads"]
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


def _wrong_verdict(n, *args, **kwargs):
    return Verdict(not kernel.oracle_is_prime(n), Stage.small_prime_screen())


@pytest.mark.parametrize("workload, module, attr, fake", [
    ("kernel64", kernel, "ge_is_prime", lambda n: False),
    ("rich64", detprime64, "gauss_euler", _wrong_verdict),
    ("wide", bigrecipes, "recipe256",
     lambda n, **kw: Verdict(True, Stage.small_prime_screen())),
])
def test_a_wrong_verdict_raises_failed_ratio(monkeypatch, workload, module, attr, fake):
    monkeypatch.setattr(module, attr, fake)
    result = _in_process(workload)
    assert not result["correct"]
    assert result["summary"]["failed_ratio"] > 0


def test_a_wrong_kernel_verdict_fails_the_sweep(monkeypatch):
    monkeypatch.setitem(kernel.ALGORITHMS, "ge", lambda n: n == 2)
    result = _in_process("sweep")
    assert result["summary"]["failed_ratio"] > 0


EXACT = ("verdicts.trace_steps", "verification.checkpoint.lines")


@pytest.mark.parametrize("workload", ["rich64", "sweep"])
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = (_in_process(workload, trace=1)["metrics"] for _ in range(2))
    exact = [m for m in run.PER_LAYER
             if m.endswith(".calls") or m.startswith("detprime64.stage.") or m in EXACT]
    assert {m: first[m]["value"] for m in exact} == {m: second[m]["value"] for m in exact}
    if workload == "rich64":
        assert first["verdicts.trace_steps"]["value"] > 0
        assert first["detprime64.stage.reciprocity"]["value"] > 0
    else:
        assert first["verification.checkpoint.lines"]["value"] == 16


def test_traced_run_prints_every_per_layer_metric():
    result = _in_process("rich64", trace=1)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.PER_LAYER
    assert result["correct"]
    with open(os.path.join(run.OUT, "spans-rich64-seed7.jsonl"), encoding="utf-8") as f:
        assert sum(1 for _ in f) == result["metrics"]["trace.spans"]["value"] > 0


def test_a_p99_on_too_few_samples_is_not_correct(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_TIMED_CALLS", 1)
    result = _in_process("wide")
    assert result["failed"] == 0
    assert result["summary"]["p99_samples_beyond"] < 10
    assert not result["correct"]


@pytest.fixture
def steady_host(monkeypatch):
    """Calibrations that always read the nominal speed, so times are unscaled."""
    monkeypatch.setattr(workloads, "calibration_ns", lambda: workloads.CAL_NOMINAL_NS)


def _timed(windows):
    """What a loop records whose calls in its i-th one-second sub-window
    took windows[i] ns each; the rest of each sub-window is idle."""
    rec = workloads.Recorder(seconds=workloads.WINDOWS)
    t = calls = 0
    for i, latencies in enumerate(windows):
        for ns in latencies:
            rec.add(ns)
            t += ns
            calls += 1
            rec.tick(1, t)
        t = (i + 1) * 10**9
        rec.tick(0, t)
    rec.finish(t)
    return workloads.Timed(rec, calls, t / 1e9, 0, calls)


def test_rate_and_p50_are_taken_over_the_whole_loop(steady_host):
    timed = _timed([[10, 30], [20], [1000], [40]])
    assert len(timed.recorder.windows) == 4
    assert timed.ops_per_s == 5 / 4
    assert timed.latency_p50_us == 30 / 1e3
    assert timed.latency_p99_us == 1000 / 1e3  # five calls: one group, the whole loop


def test_p99_is_a_median_over_groups_with_ten_samples_beyond_it(steady_host):
    ramp = list(range(1, 1001))
    timed = _timed([[k] * 1000 for k in (1, 2, 3, 4)])
    assert len(timed.recorder.windows) == 4
    assert timed.latency_p99_us == 2.5 / 1e3
    assert timed.p99_samples_beyond == 10
    timed = _timed([ramp[:600], ramp[:600]])
    assert len(timed.recorder.p99_groups()) == 1
    assert timed.p99_samples_beyond == 12


def test_times_are_scaled_by_the_calibrations_around_their_segment(monkeypatch):
    readings = iter([40_000, 60_000])  # mean 50 us: half as fast as nominal
    monkeypatch.setattr(workloads, "calibration_ns", lambda: 2 * next(readings))
    rec = workloads.Recorder(seconds=1)
    rec.add(300)
    rec.tick(3, 300)
    rec.finish(300)
    assert list(rec.latencies()) == [150]
    assert rec.units == 3 and rec.scaled_ns == 150


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
