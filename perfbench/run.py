#!/usr/bin/env python3
"""The ATS benchmark: campaign throughput, detector agreement and
service latency, with a per-layer breakdown from a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-grid --seed 42 \\
        --seconds 35 --trace 0

Workloads: ``campaign-grid`` and ``service-mixed`` (see
``perfbench/README.md``).  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` runs the workload untraced and then traced and
prints every per-layer metric, writing the spans as Chrome-trace JSON
and a per-layer table under ``.perfbench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--scale smoke`` shrinks every workload
for the benchmark's own tests.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import (  # noqa: E402
    Tracer,
    annotate_self_times,
    busy_seconds,
    chrome_trace,
    format_table,
    install_layer_wrappers,
    layer_summary,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("campaign-grid", "service-mixed")
#: set-ups measured per run (this process + fresh interpreters)
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    ticks = [int(f) for f in fields[1:]]
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Share of all CPUs' time the hypervisor took between two
    ``cpu_ticks`` readings (0.0 where /proc/stat is missing)."""
    if not before or not after or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


TICKS_START = cpu_ticks()


def env_stamp() -> dict:
    """Host facts plus an in-process calibration score and the share of
    CPU time the hypervisor took from this host during the run, so a
    slower host can be told apart from a slower commit."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    affinity = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "steal_frac": steal_share(TICKS_START, cpu_ticks()),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "cpu_model": model,
        "calibration_mops": calibration_score(),
    }


def calibration_score(n: int = 300_000, repeats: int = 5) -> float:
    """Million iterations/s of a fixed integer loop (median of runs)."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        rates.append(n / (time.perf_counter() - t0) / 1e6)
    return statistics.median(rates)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_setups(args, count: int) -> list:
    """Set-up times of fresh interpreters doing this run's set-up."""
    samples = []
    for _ in range(count):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--scale", args.scale,
             "--setup-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        try:
            out, err = proc.communicate(timeout=150)
        finally:
            # SIGTERM first, so the child stops the server it started
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        lines = [ln for ln in out.splitlines() if ln.startswith("SETUP ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"set-up child failed ({proc.returncode}): {err[-2000:]}"
            )
        samples.append(float(lines[-1].split()[1]))
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(summary: dict, spans: list, wall: float) -> dict:
    """The per-layer metrics shared by every workload."""
    def share(layer: str, names=None) -> float:
        if names is None:
            total = summary[layer]["self_s"]
        else:
            total = sum(s["self"] for s in spans
                        if s["layer"] == layer and s["name"] in names)
        return total / wall if wall else 0.0

    sim = summary["sim"]
    mpi_busy = sum(s["end"] - s["start"] for s in spans
                   if s["layer"] == "sim" and s["args"].get("dispatches"))
    dispatches = sim["counts"]["dispatches"]
    return {
        "sim.busy_s": metric(sim["self_s"], "s"),
        "sim.share": metric(share("sim"), "frac"),
        "sim.dispatches": metric(dispatches, "count"),
        "sim.us_per_dispatch": metric(
            mpi_busy / dispatches * 1e6 if dispatches else 0.0, "us"),
        "sim.events_per_s": metric(
            sim["counts"]["events"] / busy_seconds(spans, "sim", "run")
            if sim["spans"] else 0.0, "1/s"),
        "trace.write_share": metric(share("trace", {"write", "encode"}),
                                    "frac"),
        "trace.read_share": metric(share("trace", {"read", "decode"}),
                                   "frac"),
        "trace.bytes": metric(summary["trace"]["counts"]["bytes"], "B"),
        "trace.salvaged": metric(summary["trace"]["counts"]["salvaged"],
                                 "count"),
        "analysis.rule_s": metric(summary["analysis"]["self_s"], "s"),
        "analysis.share": metric(share("analysis"), "frac"),
        "analysis.findings": metric(
            summary["analysis"]["counts"]["findings"], "count"),
        "stats.share": metric(share("stats"), "frac"),
        "stats.rows": metric(summary["stats"]["counts"]["rows"], "count"),
        "archive.write_share": metric(
            share("archive", {"record", "archive_run"}), "frac"),
        "synth.generate_share": metric(share("synth", {"generate"}),
                                       "frac"),
        "synth.grade_share": metric(
            share("synth", {"grade", "build_spec", "manifest"}), "frac"),
        "synth.score_share": metric(share("synth", {"score_result"}),
                                    "frac"),
        "bench.uncovered_frac": metric(share("bench"), "frac"),
    }


def check_layers(summary: dict, expected) -> list:
    """Layers that should have recorded spans but recorded none."""
    return [layer for layer in expected if summary[layer]["spans"] == 0]


def write_trace_outputs(tag: str, span_sets: dict, table: str) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.trace.json").write_text(chrome_trace(span_sets))
    (OUT / f"{tag}.layers.txt").write_text(table)


# ----------------------------------------------------------------------
# campaign workloads
# ----------------------------------------------------------------------


def run_campaign_workload(args, work: Path) -> dict:
    from campaigns import CampaignWorkload, summarize

    wl = CampaignWorkload(args.seed, args.scale, work)
    distinct = wl.distinct_rounds
    wl.warm_up()
    setup = time.monotonic() - T_START
    if args.setup_only:
        return {"setup": setup}
    if args.trace:
        return _traced_campaign(args, wl)
    setups = [setup] + child_setups(args, SETUP_REPEATS - 1)

    # whole cycles of the slots until the window is over, and at least
    # two, so slot 0 is repeated (the determinism check runs on every
    # run) and no slot weighs more than another in the timings
    rounds = []
    t_window = time.monotonic()
    while (len(rounds) <= distinct or len(rounds) % distinct
           or time.monotonic() - t_window < args.seconds):
        before = cpu_ticks()
        rounds.append(summarize(wl.run_round(len(rounds) % distinct)))
        rounds[-1]["steal"] = steal_share(before, cpu_ticks())

    attempted = sum(r["cells"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    repeats = rounds[distinct:]
    for i, r in enumerate(repeats):
        if r["digest"] != rounds[i % distinct]["digest"]:
            failed += r["cells"]
    graded = rounds[:distinct]
    cells = sum(r["cells"] for r in graded)
    # medians over the rounds: a slow stretch of the host that covers a
    # few rounds does not move them; a round's p95 has >= 10 cells beyond
    rates = [r["ok"] / r["wall"] for r in rounds]
    p50s = [percentile(r["latencies"], 50) for r in rounds]
    p95s = [percentile(r["latencies"], 95) for r in rounds]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "completed_per_s": metric(statistics.median(rates), "1/s"),
            "p50_ms": metric(statistics.median(p50s) * 1e3, "ms"),
            "p95_ms": metric(statistics.median(p95s) * 1e3, "ms"),
            "disagree_frac": metric(
                sum(r["disagreeing"] for r in graded) / cells, "frac"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        },
        "details": {
            "setups_s": setups,
            "round_walls_s": [r["wall"] for r in rounds],
            "round_steal_frac": [r["steal"] for r in rounds],
            "cells": [r["cells"] for r in rounds],
            "disagreeing": [r["disagreeing"] for r in rounds],
            "repeats_checked": len(repeats),
            "latency_samples_per_round": [len(r["latencies"])
                                          for r in rounds],
        },
        "samples": {"latency_ms": [[lat * 1e3 for lat in r["latencies"]]
                                   for r in rounds]},
    }


def _traced_campaign(args, wl) -> dict:
    from campaigns import EXPECTED_LAYERS, check_round
    distinct = wl.distinct_rounds
    plain = [wl.run_round(slot) for slot in range(distinct)]
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        traced = [wl.run_round(slot, tracer) for slot in range(distinct)]
    finally:
        tracer.unpatch()
    attempted = sum(len(r["result"].cells) for r in plain + traced)
    failed = sum(check_round(r) for r in plain + traced)
    for a, b in zip(plain, traced):
        if a["json"] != b["json"]:
            failed += len(b["result"].cells)

    spans = tracer.spans
    annotate_self_times(spans)
    summary = layer_summary(spans)
    wall = sum(s["end"] - s["start"] for s in spans
               if s["layer"] == "bench")
    table = format_table(summary, wall)
    missing = check_layers(summary, EXPECTED_LAYERS)
    metrics = layer_metrics(summary, spans, wall)
    archive_bytes = sum(r["archive_bytes"] for r in traced)
    metrics.update({
        "archive.bytes_written": metric(archive_bytes, "B"),
        "archive.hits": metric(0, "count"),
        "archive.misses": metric(0, "count"),
        "archive.hit_ratio": metric(0.0, "frac"),
        "service.queue_wait_share": metric(0.0, "frac"),
        "service.exec_share": metric(0.0, "frac"),
        "service.transport_share": metric(0.0, "frac"),
        "service.coalesced_frac": metric(0.0, "frac"),
        "bench.trace_overhead_frac": metric(
            sum(r["wall"] for r in traced)
            / sum(r["wall"] for r in plain) - 1.0, "frac"),
        "bench.late_p99_frac": metric(0.0, "frac"),
    })
    tag = f"{args.workload}-seed{args.seed}"
    write_trace_outputs(tag, {1: spans}, table)
    print(table, end="")
    return {
        "attempted": attempted,
        "failed": failed + len(missing),
        "metrics": metrics,
        "details": {"missing_layers": missing},
    }


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------


def run_service_workload(args, work: Path) -> dict:
    from service_load import RATE, ServicePass, server_env

    env = server_env(SRC, work / "tmp")
    rate = RATE[args.scale]
    # a traced run splits its window between the plain and traced pass
    window = args.seconds / 2 if args.trace else args.seconds
    first = ServicePass(work / "plain", env, args.seed, rate, window)
    try:
        first.set_up()
        setup = time.monotonic() - T_START
        if args.setup_only:
            return {"setup": setup}
        # this process only generates load; keeping the set-up's objects
        # out of its garbage collector's passes keeps them off requests
        gc.freeze()
        if args.trace:
            plain = first.run()
            second = ServicePass(work / "traced", env, args.seed, rate,
                                 window, traced=True)
            try:
                second.set_up()
                traced = second.run()
                server_spans = second.spans()
            finally:
                second.close()
            return _traced_service(args, first, plain, traced,
                                   server_spans)
        setups = [setup] + child_setups(args, SETUP_REPEATS - 1)
        res = first.run()
    finally:
        first.close()
    outcomes = res["outcomes"]
    latencies = [o["done"] - o["due"] for o in outcomes if o is not None]
    window = res["window"]
    ok = len(outcomes) - res["failed_requests"]
    return {
        "attempted": len(outcomes),
        "failed": res["failed_requests"] + res["check_failures"],
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "completed_per_s": metric(ok / window, "1/s"),
            "p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
            "p95_ms": metric(percentile(latencies, 95) * 1e3, "ms"),
            "disagree_frac": metric(
                res["disagreeing"] / res["graded"], "frac"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        },
        "details": {
            "setups_s": setups,
            "window_s": window,
            "graded": res["graded"],
            "disagreeing": res["disagreeing"],
            "check_failures": res["check_failures"],
            "latency_ms_by_kind": _latency_by_kind(first.schedule,
                                                   outcomes),
            "latency_samples": len(latencies),
        },
        "samples": {"latency_ms": [lat * 1e3 for lat in latencies]},
    }


def _latency_by_kind(schedule, outcomes) -> dict:
    out = {}
    for kind in ("hit", "miss", "submit"):
        lats = [o["done"] - o["due"] for r, o in zip(schedule, outcomes)
                if r["kind"] == kind and o is not None]
        if lats:
            out[kind] = {"p50": percentile(lats, 50) * 1e3,
                         "p95": percentile(lats, 95) * 1e3,
                         "n": len(lats)}
    return out


def _traced_service(args, svc, plain, traced, server_spans) -> dict:
    from service_load import EXPECTED_LAYERS

    outcomes = traced["outcomes"]
    schedule = svc.schedule
    interval = schedule[1]["t"] - schedule[0]["t"]
    client_spans = []
    for i, o in enumerate(outcomes):
        if o is None:
            continue
        client_spans.append({"id": 2 * i + 1, "parent": None,
                             "name": "request", "layer": "bench",
                             "tid": 0, "args": {},
                             "start": o["due"], "end": o["done"]})
        client_spans.append({"id": 2 * i + 2, "parent": 2 * i + 1,
                             "name": "http", "layer": "service",
                             "tid": 0, "args": {},
                             "start": o["sent"], "end": o["done"]})
    # each server's spans from its own window on (warm-up excluded)
    server_spans = [
        s for spans, origin in zip(server_spans, traced["origins"])
        for s in spans if s["start"] >= origin
    ]
    annotate_self_times(client_spans)
    annotate_self_times(server_spans)
    summary = layer_summary(client_spans + server_spans)
    # server job execution happens inside the client's http spans
    summary["service"]["self_s"] -= sum(
        s["end"] - s["start"] for s in server_spans if s["parent"] is None
    )
    summary["service"]["self_s"] = max(0.0, summary["service"]["self_s"])
    spans = client_spans + server_spans

    def total_latency(res):
        return sum(o["done"] - o["due"] for o in res["outcomes"]
                   if o is not None)

    wall = total_latency(traced)
    table = format_table(summary, wall)

    queue = execute = transport = 0.0
    lateness, exec_ms, queue_ms, transport_ms = [], [], [], []
    job_ids = []
    for o in outcomes:
        if o is None or o["resp"] is None:
            continue
        resp = o["resp"]
        wait = resp.get("queue_wait") or 0.0
        elapsed = resp.get("elapsed") or 0.0
        queue += wait
        execute += elapsed - wait
        transport += (o["done"] - o["sent"]) - elapsed
        lateness.append(o["sent"] - o["due"])
        queue_ms.append(wait * 1e3)
        exec_ms.append((elapsed - wait) * 1e3)
        transport_ms.append(((o["done"] - o["sent"]) - elapsed) * 1e3)
        job_ids.append(resp.get("id"))
    lookups = traced["cache_hits"] + traced["cache_misses"]
    missing = check_layers(summary, EXPECTED_LAYERS)
    metrics = layer_metrics(summary, spans, wall)
    metrics.update({
        "archive.bytes_written": metric(traced["archive_bytes"], "B"),
        "archive.hits": metric(traced["cache_hits"], "count"),
        "archive.misses": metric(traced["cache_misses"], "count"),
        "archive.hit_ratio": metric(
            traced["cache_hits"] / lookups if lookups else 0.0, "frac"),
        "service.queue_wait_share": metric(queue / wall, "frac"),
        "service.exec_share": metric(execute / wall, "frac"),
        "service.transport_share": metric(transport / wall, "frac"),
        "service.coalesced_frac": metric(
            1.0 - len(set(job_ids)) / len(job_ids), "frac"),
        "bench.trace_overhead_frac": metric(
            total_latency(traced) / total_latency(plain) - 1.0, "frac"),
        "bench.late_p99_frac": metric(
            percentile(lateness, 99) / interval, "frac"),
    })
    service_table = (
        "service request split (ms): "
        f"queue_wait p50 {percentile(queue_ms, 50):.3f} "
        f"p99 {percentile(queue_ms, 99):.3f}; "
        f"exec p50 {percentile(exec_ms, 50):.3f} "
        f"p99 {percentile(exec_ms, 99):.3f}; "
        f"transport p50 {percentile(transport_ms, 50):.3f}\n"
    )
    table += service_table
    write_trace_outputs(f"{args.workload}-seed{args.seed}",
                        {1: client_spans, 2: server_spans}, table)
    print(table, end="")
    return {
        "attempted": len(outcomes) + len(plain["outcomes"]),
        "failed": sum(r["failed_requests"] + r["check_failures"]
                      for r in (plain, traced)) + len(missing),
        "metrics": metrics,
        "details": {"missing_layers": missing},
    }


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still unwinds, so its servers and set-up children
    # are stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    # end-to-end numbers are taken with metrics export and chaos off
    for knob in ("ATS_METRICS", "ATS_CHAOS"):
        os.environ.pop(knob, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        if args.workload == "service-mixed":
            result = run_service_workload(args, work)
        else:
            result = run_campaign_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.setup_only:
        print(f"SETUP {result['setup']!r}")
        return 0
    stamp = env_stamp()
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  scale=args.scale, env=stamp)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("env: " + json.dumps(stamp))
    print("details: " + json.dumps(result.get("details", {})))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
