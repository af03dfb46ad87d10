"""Self-tests for the benchmark, at small sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import sweep
import workloads
from run import run_episode

BENCH = Path(run.__file__).resolve().parent
SMALL = {
    "INGEST": {"accounts": 5, "txs": 100, "tx_per_sim_s": 100, "reads_per_sim_s": 10},
    "BIGTABLE": {
        "preload_rows": 400,
        "preload_ledgers": 2,
        "writes": 30,
        "fault_at_ms": 1000,
        "fault_len_ms": 2000,
    },
    "RECOVERY": {"accounts": 4, "ledgers": 8, "txs_per_ledger": 10, "checkpoint_seq": 4, "reads_per_burst": 4},
}
NAMES = ("ingest", "bigtable", "recovery")


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    for table, values in SMALL.items():
        for key, value in values.items():
            monkeypatch.setitem(getattr(workloads, table), key, value)
    monkeypatch.setattr(sweep, "SIZES", {"rows_1k": 100, "rows_10k": 200, "rows_100k": 300})


def _sim_figures(ep) -> dict:
    """Everything an episode reports that must repeat exactly for one seed."""
    return {
        "commit_sim_ms": ep.commit_sim_ms,
        "wire_bytes": ep.wire_bytes,
        "frames": ep.frames,
        "frames_by_tag": ep.frames_by_tag,
        "ledgers": ep.ledgers,
        "committed_txs": ep.committed_txs,
        "ops": (ep.ops_attempted, ep.ops_failed),
        "catchup": ep.extra.get("catchup_sim_ms"),
        "layer": ep.layer,
    }


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_sim_time_and_counts(name):
    fn = workloads.WORKLOADS[name]
    _, first = run_episode(fn, 7)
    _, second = run_episode(fn, 7)
    assert _sim_figures(first) == _sim_figures(second)
    assert first.ops_failed == 0 and first.committed_txs > 0 and first.read_us


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_passes_every_check(name):
    _, ep = run_episode(workloads.WORKLOADS[name], 8)
    assert ep.ops_failed == 0
    if name == "bigtable":
        assert ep.extra["catchup_sim_ms"] > 0


def test_seed_and_schedule_change_the_run():
    _, a = run_episode(workloads.ingest, 7)
    for other in (run_episode(workloads.ingest, 8)[1], run_episode(workloads.ingest, 7, schedule=1)[1]):
        assert (a.commit_sim_ms, a.wire_bytes) != (other.commit_sim_ms, other.wire_bytes)


@pytest.mark.parametrize("name", NAMES)
def test_runs_with_one_seed_report_identical_sim_metrics(name):
    sim = ("commit_sim_ms_p50", "commit_sim_ms_p90", "wire_kb_per_tx")
    first, second = (run.measure(name, 9, 0)["metrics"] for _ in range(2))
    assert {m: first[m] for m in sim} == {m: second[m] for m in sim}
    assert first.get("catchup_sim_ms") == second.get("catchup_sim_ms")


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "audit", lambda data_dir, between: (True, b"\x00" * 32, 1.0))
    assert run.main(["--workload", "recovery", "--seed", "3", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_measure_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "ingest", "--seed", "3", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    text = "\n".join(out)
    for name in list(run.END_TO_END) + ["read_us_p95", "failed_op_frac"]:
        assert name in text


def test_traced_run_reports_every_per_layer_metric():
    result = run.measure_traced("bigtable", 5, BENCH.parent / ".perfbench_out")
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.top_span_coverage"]["value"] >= 0.9
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["sqlvm.state_hash_calls_per_ledger"]["value"] > 0
    assert metrics["middleware.center_ship_ms_per_ledger"]["value"] > 0


def test_spans_round_trip(tmp_path):
    from tracing import Tracer, read_spans

    tracer = Tracer()
    _, ep = run_episode(workloads.ingest, 4, tracer=tracer)
    tracer.write(tmp_path / "spans.bin.gz", {"workload": "ingest"})
    header, arrays = read_spans(tmp_path / "spans.bin.gz")
    assert header["spans"] == len(arrays["start_ns"]) > 0
    assert all(e >= s for s, e in zip(arrays["start_ns"], arrays["end_ns"]))
    steps = header["names"].index("netsim.step")
    assert sum(1 for n in arrays["name"] if n == steps) == tracer.stat("netsim.step").calls


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert workloads.percentile(values, 0.9) == 90
    assert workloads.percentile(values, 0.95) == 95
    assert workloads.percentile([5, 1], 0.9) == 5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
