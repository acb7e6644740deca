"""Self-test of the benchmark (tier-1 collects it; also
``python -m pytest perfbench -q``): the quick profile runs all five
workloads through the real command line at ~1/20 size and checks that
what is printed is what ``BENCHMARK.json`` promises."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from perfbench import run as cli
from perfbench.harness import (
    WORKLOADS, highest_supported_percentile, percentile,
)
from perfbench.trace import self_times

BENCHMARK = cli.load_benchmark()
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
QUICK_SCALE = 0.05

needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="the sharded workloads drive 2 client threads and refuse to "
           "start on fewer cores",
)


def _quick(workload: str, trace: bool, tmp_path) -> dict:
    report = str(tmp_path / f"{workload}-{int(trace)}.json")
    code, stdout = cli.supervise(workload, seed=7, seconds=0.1, trace=trace,
                                 scale=QUICK_SCALE, report=report)
    assert code == 0, f"{workload} trace={trace} exited {code}"
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(report, encoding="utf-8") as handle:
        return {**json.load(handle), "stdout": stdout}


def test_benchmark_json_names_the_frozen_workloads():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s"} <= {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@needs_two_cores
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_profile_prints_every_promised_metric(workload, tmp_path):
    untraced = _quick(workload, False, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == expected
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    for name, metric in untraced["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert f" {name} " in untraced["stdout"]
    stamp = untraced["provenance"]
    assert stamp["seed"] == 7 and stamp["PYTHONHASHSEED"] == "0"
    assert stamp["round_ops"] == list(WORKLOADS[workload].round_ops)
    assert {"host_cores", "loadavg_1min", "python", "commit"} <= set(stamp)

    traced = _quick(workload, True, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == expected
    assert traced["correct"] and traced["failed"] == 0
    assert all(math.isfinite(m["value"]) for m in traced["metrics"].values())
    samples = traced["samples"]
    assert samples["spans_written"] > 0
    # self times never double count: they fit in the (wall-clock) windows
    assert samples["self_time_s"] <= samples["raw_window_s"] * samples["clients"]
    layers_that_run = {
        "kv-roles": "minikv.engine.self_us_per_op",
        "sql-roles": "minisql.executor.self_us_per_op",
        "kv-shard-roles": "common.netshard.frames_per_op",
        "sql-shard-roles": "clients.pipeline.batch_mean",
        "kv-shard-open": "clients.futures.flushes",
    }
    assert traced["metrics"][layers_that_run[workload]]["value"] > 0
    replay = ("minikv.aof.replay_us_per_entry" if workload.startswith("kv")
              else "minisql.wal.replay_us_per_record")
    assert traced["metrics"][replay]["value"] > 0   # durability probe ran


def test_same_seed_gives_identical_streams_in_two_processes():
    script = (
        "import sys; sys.path.insert(0, %r)\n"
        "from perfbench.harness import WORKLOADS, stream_fingerprint\n"
        "print([stream_fingerprint(w, 11, 2) for w in WORKLOADS.values()])\n"
    ) % cli.ROOT
    env = dict(os.environ, PYTHONHASHSEED="0")
    outputs = [
        subprocess.run([sys.executable, "-c", script], env=env, cwd=cli.ROOT,
                       capture_output=True, text=True, timeout=120, check=True).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1] and "[" in outputs[0]


def test_nearest_rank_percentile():
    samples = sorted(range(1, 101))
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 99.0) == 99
    assert percentile(samples, 100.0) == 100
    assert percentile([5], 99.0) == 5
    assert percentile([], 50.0) == 0.0
    assert percentile([1, 2, 3], 50.0) == 2      # ceil(1.5) = rank 2


def test_highest_percentile_with_ten_samples_beyond_it():
    assert highest_supported_percentile(15) == 50.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(200) == 95.0    # 10 samples beyond p95
    assert highest_supported_percentile(999) == 95.0    # p99 leaves only 9
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(10000) == 99.9


def test_span_self_time_is_duration_minus_direct_children():
    #        id parent start end
    spans = [(1, 0, 0, 100),      # root
             (2, 1, 10, 40),      # child of root
             (3, 2, 15, 25),      # grandchild: charged to 2, not to 1
             (4, 1, 50, 70)]      # second child of root
    own = self_times(spans)
    assert own == {1: 100 - 30 - 20, 2: 30 - 10, 3: 10, 4: 20}
    assert sum(own.values()) == 100     # adds up to the root's duration


def test_compare_reports_ratio_against_the_base_and_the_bound():
    def document(ops_s, setup_s):
        return {"reports": [{"workload": "kv-roles", "trace": 0, "metrics": {
            "ops_s": {"value": ops_s, "unit": "ops/s"},
            "setup_s": {"value": setup_s, "unit": "s"}}}]}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    slower = 1.0 - bounds["ops_s"] - 0.05
    rows = {row[1]: row for row in cli.compare(
        document(100.0, 1.0), document(100.0 * slower, 1.0), BENCHMARK)}
    assert rows["ops_s"][4] == pytest.approx(slower)     # other / base
    assert rows["ops_s"][5] == "worse"
    assert rows["setup_s"][5] == "ok"
    rows = {row[1]: row for row in cli.compare(
        document(100.0, 1.0), document(130.0, 1.0), BENCHMARK)}
    assert rows["ops_s"][5] == "ok"                      # faster is never worse
