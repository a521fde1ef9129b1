"""The ``service-mixed`` workload: an open loop against ``ats serve``.

The server runs as its own process in durable mode (``--state-dir``,
otherwise the shipped defaults) over a fresh archive seeded from the
workload seed with synthesized scenarios, so every archived run carries
its ground-truth manifest and every ``analyze`` answer can be graded.

One load-generator process (this one) sends a fixed-rate schedule over
one connection, split over ``SERVERS`` fresh server processes
in turn: 70% ``analyze`` on a small hot set of
already-analyzed runs (cache hits), 20% ``analyze`` on runs never
analyzed before (misses: blob decode, index, rule battery), and 10%
``submit-run`` at 16-32 ranks (simulate, blob write, journal fsync).
Latency is timed from each request's scheduled send time, so a stall
also charges the requests queued behind it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis import AnalysisConfig, analyze_events
from repro.archive import Archive
from repro.faults import FaultPlan
from repro.service import ServiceClient, ServiceHTTPError, ServiceUnreachable
from repro.synth import CampaignSpec, NoiseConfig, ScenarioCell, run_campaign
from repro.synth.campaign import _build_cell
from repro.trace.io import events_from_jsonl

from campaigns import dir_bytes

HERE = Path(__file__).resolve().parent

#: requests per second: about a quarter of the closed-loop capacity of
#: this mix on a 2-vCPU host.  At half capacity the latency percentiles
#: spread 0.3-0.45 across seeds, beyond any bound (see README).
RATE = {"full": 12.0, "smoke": 8.0}
BLOCK = ("hit", "hit", "miss", "hit", "hit", "submit", "hit", "hit",
         "miss", "hit")
HOT_RUNS = 12
SEED_SIZES = (16,)
SUBMIT_POOL = (
    "late_sender",
    "late_broadcast",
    "imbalance_at_mpi_barrier",
    "early_reduce",
    "late_scatter",
    "imbalance_at_mpi_allreduce",
)
#: submit sizes alternate, so any window sends each about equally often
SUBMIT_SIZES = (16, 32)
#: fresh server processes per run, each serving an equal schedule slice
SERVERS = 4
THRESHOLD = 0.01
#: analyze answers re-checked against a local analyze_events
VERIFY_SAMPLE = 24
EXPECTED_LAYERS = ("service", "archive", "analysis", "sim", "trace")


class ServerProcess:
    """One ``ats serve`` process over ``archive_dir``, keeping its own
    journal, log and (when traced) spans under ``workdir``."""

    def __init__(self, archive_dir: Path, workdir: Path, env: dict,
                 traced: bool = False):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.archive_dir = archive_dir
        self.state_dir = workdir / "state"
        self.log_path = workdir / "serve.log"
        self.spans_path = workdir / "server-spans.json"
        self.env = env
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> None:
        serve = [
            "serve", "--archive", str(self.archive_dir), "--port", "0",
            "--state-dir", str(self.state_dir),
        ]
        if self.traced:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(self.spans_path), *serve]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                cwd=self.workdir,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            for line in text.splitlines():
                if "listening on " in line:
                    self.url = line.split("listening on ")[1].split()[0]
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"ats serve did not start: {text[-2000:]}")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server (VmHWM), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def spans(self) -> List[dict]:
        return json.loads(self.spans_path.read_text())


def build_schedule(seed: int, rate: float, seconds: float) -> List[dict]:
    """Request kinds and send offsets for one window.

    The kinds repeat ``BLOCK`` (7 hits, 2 misses, 1 submit-run), so
    every seed offers the same mix with the same spacing.  The seed
    orders the hot-run cycle and the (property, size) cycle of the
    submits, and gives every submit its own simulation seed.
    """
    rng = random.Random(seed)
    blocks = max(1, round(rate * seconds / len(BLOCK)))
    programs = list(SUBMIT_POOL)
    rng.shuffle(programs)
    combos = [(p, s) for p in programs for s in SUBMIT_SIZES]
    hot_order = list(range(HOT_RUNS))
    rng.shuffle(hot_order)
    schedule = []
    hits = submits = 0
    for i in range(blocks * len(BLOCK)):
        kind = BLOCK[i % len(BLOCK)]
        req = {"i": i, "t": i / rate, "kind": kind}
        if kind == "submit":
            req["property"], req["size"] = combos[submits % len(combos)]
            req["seed"] = 1_000_000 + seed * 10_000 + i
            submits += 1
        elif kind == "hit":
            req["hot"] = hot_order[hits % HOT_RUNS]
            hits += 1
        schedule.append(req)
    return schedule


def seed_archive(archive_dir: Path, seed: int, hot: int,
                 misses: int) -> Dict[str, list]:
    """Archive a synthesized campaign; returns the hot and miss run ids
    (one per distinct trace) plus every such run's graded cell.

    The campaign is a grid over every registered program and the three
    severity bands, all under ``FaultPlan.default()`` at magnitude 2.5,
    so the archive's mix is fixed and the seed moves only the per-run
    draws.  At that magnitude nearly every noisy negative tempts the
    rule detectors into a spurious finding, which keeps
    ``disagree_frac`` above zero and its spread across seeds small
    (over seeds 1-5, 22-25 of the first 96 runs disagree, and 17-19 of
    72 against 15-17 at 1.5 and 12-15 at 1.0; noiseless runs at 16
    ranks never disagree).
    Placement stays "all": split placements under noise crash at the
    parent commit (``duplicate ranks in communicator group``; see the
    README's known defects).
    """
    need = hot + misses
    spec = CampaignSpec(
        name="perfbench-svc", strategy="grid", scenarios=need + 8,
        sizes=SEED_SIZES, threads=2, max_properties=1, seed=seed,
        placements=("all",),
        noise=NoiseConfig(plan=FaultPlan.default(), magnitudes=(2.5,)),
    )
    archive = Archive(archive_dir)
    result = run_campaign(spec, threshold=THRESHOLD, archive=archive)
    seen = set()
    cells: Dict[str, ScenarioCell] = {}
    for cell in result.cells:
        if cell.run_id is None:
            continue
        digest = archive.resolve(cell.run_id).trace_digest
        if digest not in seen and len(cells) < need:
            seen.add(digest)
            cells[cell.run_id] = cell
    archive.close()
    if len(cells) < need:
        raise RuntimeError(f"only {len(cells)} distinct traces, need {need}")
    runs = list(cells)
    return {"hot": runs[:hot], "miss": runs[hot:], "cells": cells}


def assign_targets(schedule: List[dict], pools: Dict[str, list]) -> None:
    misses = iter(pools["miss"])
    hot = pools["hot"]
    for req in schedule:
        if req["kind"] == "hit":
            req["run"] = hot[req["hot"]]
        elif req["kind"] == "miss":
            req["run"] = next(misses)


def _send(client: ServiceClient, req: dict) -> dict:
    if req["kind"] == "submit":
        return client.submit_run(req["property"], wait=True,
                                 size=req["size"], threads=2,
                                 seed=req["seed"])
    return client.analyze(req["run"], wait=True)


def warm_up(url: str, pools: Dict[str, list]) -> None:
    """Analyze the hot set (so the window's hits hit) and run one
    simulation in the server (so its worker pool exists)."""
    client = ServiceClient(url, timeout=60.0)
    for run_id in pools["hot"]:
        client.analyze(run_id, wait=True)
    client.submit_run(SUBMIT_POOL[0], wait=True, size=max(SUBMIT_SIZES),
                      threads=2, seed=0)


def drive(url: str, schedule: List[dict]) -> dict:
    """Send the schedule open-loop over one connection; the first
    request is due at the returned origin.  A request held up by the
    one before it is still timed from its due time.  Requests not sent
    by a minute past the schedule's end stay ``None`` (failed)."""
    client = ServiceClient(url, timeout=30.0, retries=0)
    outcomes: List[Optional[dict]] = []
    origin = time.monotonic() + 0.05
    deadline = origin + schedule[-1]["t"] - schedule[0]["t"] + 60.0
    for req in schedule:
        due = origin + req["t"] - schedule[0]["t"]
        now = time.monotonic()
        if now > deadline:
            outcomes.append(None)
            continue
        if due > now:
            time.sleep(due - now)
        sent = time.monotonic()
        try:
            resp, error = _send(client, req), None
        except (ServiceHTTPError, ServiceUnreachable, OSError,
                ValueError) as exc:
            resp, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append({"due": due, "sent": sent, "done": time.monotonic(),
                         "resp": resp, "error": error})
    return {"origin": origin, "outcomes": outcomes}


def response_ok(req: dict, outcome: Optional[dict]) -> bool:
    if outcome is None or outcome["error"] is not None:
        return False
    resp = outcome["resp"]
    if resp.get("state") != "done" or "result" not in resp:
        return False
    result = resp["result"]
    if req["kind"] == "submit":
        return bool(result.get("run_id"))
    return result.get("run_id") == req["run"] and isinstance(
        result.get("detected"), list
    )


def disagrees(detected, cell: ScenarioCell) -> bool:
    """Grade a service answer the way the campaign grades its cells."""
    return _build_cell(cell.scenario, detected=detected).disagreement > 0


def verify_sample(archive_dir: Path, schedule: List[dict],
                  outcomes: List[dict], seed: int) -> int:
    """Re-analyze a seeded sample of answers locally; count mismatches."""
    answered = [
        (req, out) for req, out in zip(schedule, outcomes)
        if req["kind"] != "submit" and response_ok(req, out)
    ]
    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(answered, min(VERIFY_SAMPLE, len(answered)))
    archive = Archive(archive_dir)
    mismatches = 0
    for req, out in sample:
        run = archive.resolve(req["run"])
        events, _ = events_from_jsonl(
            archive.store.get_blob(run.trace_digest).decode("utf-8")
        )
        config = (
            AnalysisConfig(eager_threshold=run.eager_threshold)
            if run.eager_threshold is not None else None
        )
        local = analyze_events(events, total_time=run.final_time,
                               config=config)
        if list(local.detected(THRESHOLD)) != out["resp"]["result"][
            "detected"
        ]:
            mismatches += 1
    archive.close()
    return mismatches


class ServicePass:
    """Seed one archive, then drive the schedule in ``SERVERS`` equal
    slices, each against a fresh server process over that archive.

    With one server per run, the p50 of back-to-back runs moved by up
    to half between server processes; pooling the latencies of several
    processes per run measures the program's typical behaviour rather
    than one process's luck, e.g. in where its threads were placed.
    """

    def __init__(self, workdir: Path, env: dict, seed: int, rate: float,
                 seconds: float, traced: bool = False):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.archive_dir = workdir / "archive"
        self.env = env
        self.traced = traced
        self.seed = seed
        self.schedule = build_schedule(seed, rate, seconds)
        self.pools: Dict[str, list] = {}
        self.servers: List[ServerProcess] = []

    def start_server(self) -> ServerProcess:
        """A fresh, warmed server (the previous one is stopped)."""
        if self.servers:
            self.servers[-1].stop()
        server = ServerProcess(
            self.archive_dir, self.workdir / f"server-{len(self.servers)}",
            self.env, traced=self.traced,
        )
        self.servers.append(server)
        server.start()
        warm_up(server.url, self.pools)
        return server

    def set_up(self) -> None:
        misses = sum(1 for r in self.schedule if r["kind"] == "miss")
        self.pools = seed_archive(self.archive_dir, self.seed, HOT_RUNS,
                                  misses)
        assign_targets(self.schedule, self.pools)
        self.start_server()

    def run(self) -> dict:
        bytes_before = dir_bytes(self.archive_dir)
        n = len(self.schedule)
        per = -(-n // SERVERS)
        outcomes: List[Optional[dict]] = []
        origins, rss = [], []
        hits = misses = 0
        window = 0.0
        for k in range(SERVERS):
            part = self.schedule[k * per:(k + 1) * per]
            if not part:
                break
            server = self.servers[-1] if k == 0 else self.start_server()
            client = ServiceClient(server.url, timeout=30.0)
            before = client.status()["counts"]
            load = drive(server.url, part)
            after = client.status()["counts"]
            rss.append(server.peak_rss_mb())
            server.stop()
            hits += after["cache_hits"] - before["cache_hits"]
            misses += after["cache_misses"] - before["cache_misses"]
            origins.append(load["origin"])
            outcomes.extend(load["outcomes"])
            window += max(o["done"] for o in load["outcomes"]
                          if o is not None) - load["origin"]
        written = dir_bytes(self.archive_dir) - bytes_before
        failed_requests = sum(
            not response_ok(req, out)
            for req, out in zip(self.schedule, outcomes)
        )
        mismatches = verify_sample(self.archive_dir, self.schedule,
                                   outcomes, self.seed)
        answers: Dict[str, list] = {}
        for req, out in zip(self.schedule, outcomes):
            if req["kind"] != "submit" and response_ok(req, out):
                answers.setdefault(req["run"], []).append(
                    out["resp"]["result"]["detected"]
                )
        # every answer for one run must be the same (cache == compute)
        inconsistent = sum(
            any(a != found[0] for a in found) for found in answers.values()
        )
        disagreeing = sum(
            disagrees(found[0], self.pools["cells"][run_id])
            for run_id, found in answers.items()
        )
        return {
            "origins": origins,
            "window": window,
            "outcomes": outcomes,
            "failed_requests": failed_requests,
            "check_failures": mismatches + inconsistent,
            "graded": len(answers),
            "disagreeing": disagreeing,
            "peak_rss_mb": statistics.median(rss),
            "archive_bytes": written,
            "cache_hits": hits,
            "cache_misses": misses,
        }

    def spans(self) -> List[List[dict]]:
        """Each traced server's spans, in server order."""
        return [server.spans() for server in self.servers]

    def close(self) -> None:
        for server in self.servers:
            server.stop()


def server_env(src: Path, tmp: Path) -> dict:
    """The server's environment: repo sources, scratch inside the
    checkout, and neither metrics export nor chaos armed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + str(HERE)
    env["TMPDIR"] = str(tmp)
    for knob in ("ATS_METRICS", "ATS_CHAOS"):
        env.pop(knob, None)
    return env
