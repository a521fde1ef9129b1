"""Smoke tests of the benchmark itself.

Each workload runs at ``--scale smoke`` and must print, as its last
line, a result naming every metric of ``BENCHMARK.json`` with its unit.
Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]
    if not trace and workload.startswith("campaign-"):
        details = next(ln for ln in proc.stdout.splitlines()
                       if ln.startswith("details: "))
        # slot 0 is run again and compared byte for byte on every run
        assert json.loads(details[len("details: "):])["repeats_checked"] >= 1
    if trace:
        tag = f"{workload}-seed3"
        events = json.loads(
            (ROOT / ".perfbench_out" / f"{tag}.trace.json").read_text()
        )["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        table = (ROOT / ".perfbench_out" / f"{tag}.layers.txt").read_text()
        assert "largest self-time layer" in table


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_are_a_function_of_the_seed():
    from campaigns import CampaignWorkload
    from service_load import build_schedule

    assert build_schedule(5, 20.0, 3) == build_schedule(5, 20.0, 3)
    assert build_schedule(5, 20.0, 3) != build_schedule(6, 20.0, 3)
    a = CampaignWorkload(5, "smoke", Path("."))
    b = CampaignWorkload(5, "smoke", Path("."))
    assert a.spec(1) == b.spec(1) and a.spec(0) != a.spec(1)


def test_self_time_subtracts_covered_child_time():
    from tracer import annotate_self_times, layer_summary

    def span(sid, parent, layer, start, end):
        return {"id": sid, "parent": parent, "name": "x", "layer": layer,
                "tid": 0, "args": {}, "start": start, "end": end}

    spans = [
        span(1, None, "bench", 0.0, 10.0),
        span(2, 1, "sim", 1.0, 4.0),
        span(3, 1, "analysis", 3.0, 6.0),  # overlaps its sibling
        span(4, 3, "stats", 4.0, 5.0),
    ]
    annotate_self_times(spans)
    summary = layer_summary(spans)
    assert summary["bench"]["self_s"] == pytest.approx(5.0)
    assert summary["analysis"]["self_s"] == pytest.approx(2.0)
    assert summary["stats"]["self_s"] == pytest.approx(1.0)
    assert summary["sim"]["self_s"] == pytest.approx(3.0)
