"""Self-test of the benchmark: every workload at its smallest size.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402
from wealthca import analysis, ca, ga  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(name):
    """The workload of that name at its smallest size."""
    if name == "ga-n6":
        return workloads.GaWorkload(n=3, target=91.0)
    if name == "ca-rule8-n10":
        return workloads.CaWorkload(rule=8, n=6, t_limit=5000, target=387.0)
    if name == "ca-rule52-n99":
        return workloads.CaWorkload(rule=52, n=9, t_limit=2)
    return workloads.ExactWorkload(bench.OUT / "test-render", max_n=9,
                                   oracle_ns=(3,))


def check_schema(line, trace):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    json.dumps(line)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smallest_workload_is_correct_and_reports_every_metric(name, trace):
    values, records, _ = bench.measure(small(name), seed=7, seconds=0.2,
                                       trace=trace, setup_s=0.1)
    line = bench.result_line(values, records, trace)
    check_schema(line, trace)
    assert line["correct"] and line["failed"] == 0, [
        r.outcome for r in records if r.outcome.status != "ok"]
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])
    else:
        assert values["trace.spans"] > 0
        assert ga.tps_of_bits.__module__ == "wealthca.payoff"
        assert ca.generation.__name__ == "generation"


def test_layers_are_attributed_to_their_workloads():
    values, _, _ = bench.measure(small("ga-n6"), 3, 0.2, True, 0.1)
    assert values["ga.ga_step.calls"] > 0
    assert 0 < values["ga.accept_ratio"] <= 1
    assert values["ca.generation.calls"] == 0
    values, _, _ = bench.measure(small("ca-rule8-n10"), 3, 0.2, True, 0.1)
    assert values["ca.generation.calls"] > 0
    assert 0 < values["ca.eval_share"] < 1
    assert values["ga.ga_step.calls"] == 0
    values, _, _ = bench.measure(small("exact"), 3, 0.2, True, 0.1)
    assert values["analysis.brute_force_oracle.n3_s"] > 0
    assert values["render.write_ppm.bytes"] > 0


def test_corrupted_results_count_as_failed(monkeypatch):
    run_ga = ga.run_ga

    def off_by_one(cfg, n, *args):
        res = run_ga(cfg, n, *args)
        return dataclasses.replace(res, best_fitness=res.best_fitness + 1)

    monkeypatch.setattr(ga, "run_ga", off_by_one)
    values, records, _ = bench.measure(small("ga-n6"), 1, 0.2, False, 0.1)
    line = bench.result_line(values, records, False)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]
    assert values["ok_share"] == 0.0

    report = analysis.structure_report
    monkeypatch.setattr(analysis, "structure_report", lambda p: dataclasses
                        .replace(report(p), points=report(p).points + 1))
    values, records, _ = bench.measure(small("exact"), 1, 0.2, False, 0.1)
    statuses = {r.outcome.status for r in records}
    assert statuses == {"ok", "wrong"}  # the oracle operations stay right
    assert 0 < values["ok_share"] < 1


def test_stable_run_that_still_changes_is_wrong(monkeypatch):
    run_ca = ca.run_ca

    def claims_stable(cfg, n=None, **kwargs):
        return dataclasses.replace(run_ca(cfg, n=n, **kwargs), stable=True)

    monkeypatch.setattr(ca, "run_ca", claims_stable)
    wl = small("ca-rule52-n99")
    records = bench.run_ops(wl, 1, count=3)
    assert [r.outcome.status for r in records] == ["wrong"] * 3
    assert "stable" in records[0].outcome.detail


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_cli_result_and_bare_directory():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ga-n6",
           "--seed", "5", "--seconds", "0.5", "--trace", "0"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    check_schema(json.loads(done.stdout.splitlines()[-1]), False)
    for name in bench.UNGATED:  # printed for people, not in the result
        assert f"# {name} = " in done.stdout

    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=170)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
