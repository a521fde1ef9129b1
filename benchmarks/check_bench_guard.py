#!/usr/bin/env python
"""Performance-regression guard for CI.

Measures the hybrid-64 composite fresh (best-of-N wall time) and
compares it against every committed baseline that covers that shape:

* ``BENCH_CORE.json``        -> ``current.rows[size].hybrid.wall_s``
* ``BENCH_OBS.json``         -> ``hybrid-64.modes.off.wall_s``
* ``BENCH_RESILIENCE.json``  -> ``hybrid-64.modes.direct.wall_s``

A baseline that is missing (file or key) is reported and skipped, so
the guard keeps working while baselines are introduced PR by PR.  The
run fails (exit 1) when the fresh time exceeds a baseline by more than
the slack factor -- default 25%, overridable for noisy runners with
``ATS_BENCH_SLACK=0.5`` or ``--slack``.

It also validates committed acceptance bars:

* ``BENCH_ARCHIVE.json`` -- warm-cache speedup >= 5x with zero warm
  misses,
* ``BENCH_CORE.json`` ``current.kilo`` -- the size-1024 row must hold
  the ranks-per-second floor,
* ``BENCH_SERVICE.json`` -- the 1000-request burst must have
  collapsed >= 90% of duplicate in-flight analyzes, and warm-cache
  analyzes must hold p99 < 50 ms,
* ``BENCH_SYNTH.json`` -- the synthesized-campaign executor must hold
  its cells/s floor and project the CI 1000-scenario smoke campaign
  inside its wall-clock budget,
* ``BENCH_STATS.json`` -- the statistical layer must hold its
  feature-extraction and kilo-pipeline rate floors, and the warm
  dataset export must assemble from cached feature cells alone.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/check_bench_guard.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import run_hybrid_composite  # noqa: E402

from bench_perf_core import (  # noqa: E402
    HYBRID_MPI_STEPS,
    HYBRID_OMP_STEPS,
)


def measure(size: int, num_threads: int, repeats: int) -> float:
    run_hybrid_composite(
        HYBRID_MPI_STEPS, HYBRID_OMP_STEPS, size=size, num_threads=num_threads
    )  # warm-up
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_hybrid_composite(
            HYBRID_MPI_STEPS,
            HYBRID_OMP_STEPS,
            size=size,
            num_threads=num_threads,
        )
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def _load(name: str):
    path = REPO_ROOT / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def collect_baselines(size: int) -> dict:
    """``label -> wall_s`` for every committed baseline covering hybrid-size."""
    baselines = {}

    core = _load("BENCH_CORE.json")
    if core:
        for row in core.get("current", {}).get("rows", []):
            if row.get("size") == size and "hybrid" in row:
                baselines["BENCH_CORE current.hybrid"] = row["hybrid"]["wall_s"]

    obs = _load("BENCH_OBS.json")
    if obs:
        try:
            baselines["BENCH_OBS modes.off"] = (
                obs[f"hybrid-{size}"]["modes"]["off"]["wall_s"]
            )
        except KeyError:
            pass

    res = _load("BENCH_RESILIENCE.json")
    if res:
        try:
            baselines["BENCH_RESILIENCE modes.direct"] = (
                res[f"hybrid-{size}"]["modes"]["direct"]["wall_s"]
            )
        except KeyError:
            pass

    return baselines


#: acceptance bar for the archive cache (warm analyze-all vs cold)
ARCHIVE_MIN_SPEEDUP = 5.0

#: ranks-per-second floor on the committed size-1024 BENCH_CORE row.
#: Conservative (the reference box measures ~500-650 ranks/s) so noisy
#: CI runners do not flap, but low enough that a scheduler regression
#: to super-linear event cost would trip it.
KILO_MIN_RANKS_PER_S = 250.0


def check_kilo_baseline() -> bool:
    """Validate the committed size-1024 throughput row; True when OK."""
    core = _load("BENCH_CORE.json")
    kilo = (core or {}).get("current", {}).get("kilo")
    if not kilo:
        print("no BENCH_CORE kilo baseline; kilo check skipped")
        return True
    try:
        ranks_per_s = float(kilo["ranks_per_s"])
        size = kilo["size"]
    except KeyError as exc:
        print(f"BENCH_CORE kilo entry malformed (missing {exc}); FAIL")
        return False
    ok = ranks_per_s >= KILO_MIN_RANKS_PER_S
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"  BENCH_CORE kilo-{size} throughput {ranks_per_s:7.1f} ranks/s "
        f"(floor {KILO_MIN_RANKS_PER_S:.0f})  {verdict}"
    )
    return ok


def check_archive_baseline() -> bool:
    """Validate the committed archive-cache numbers; True when OK."""
    data = _load("BENCH_ARCHIVE.json")
    if not data:
        print("no BENCH_ARCHIVE.json baseline; archive check skipped")
        return True
    try:
        entry = data["archive-registry"]
        speedup = entry["speedup"]
        misses = entry["warm_cache"]["misses"]
    except KeyError as exc:
        print(f"BENCH_ARCHIVE.json malformed (missing {exc}); FAIL")
        return False
    ok = speedup >= ARCHIVE_MIN_SPEEDUP and misses == 0
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"  BENCH_ARCHIVE warm speedup       {speedup:7.1f}x "
        f"(bar {ARCHIVE_MIN_SPEEDUP:.0f}x, "
        f"{misses} warm misses)  {verdict}"
    )
    return ok


#: acceptance bars for the analysis service (BENCH_SERVICE.json):
#: the burst must collapse >= 90% of its duplicate in-flight analyzes
#: onto shared executor cells, at >= 1000 concurrent requests, and
#: warm-cache analyzes must answer under 50 ms at the 99th percentile.
SERVICE_MIN_BURST_REQUESTS = 1000
SERVICE_MIN_COLLAPSE = 0.9
SERVICE_MAX_WARM_P99_MS = 50.0


def check_service_baseline() -> bool:
    """Validate the committed service load numbers; True when OK."""
    data = _load("BENCH_SERVICE.json")
    if not data:
        print("no BENCH_SERVICE.json baseline; service check skipped")
        return True
    try:
        burst = data["service"]["burst"]
        requests = int(burst["requests"])
        collapse = float(burst["collapse"])
        warm_p99 = float(data["service"]["warm"]["p99_ms"])
    except KeyError as exc:
        print(f"BENCH_SERVICE.json malformed (missing {exc}); FAIL")
        return False
    ok = (
        requests >= SERVICE_MIN_BURST_REQUESTS
        and collapse >= SERVICE_MIN_COLLAPSE
        and warm_p99 < SERVICE_MAX_WARM_P99_MS
    )
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"  BENCH_SERVICE burst collapse     {collapse:7.4f} "
        f"({requests} reqs, bar {SERVICE_MIN_COLLAPSE:.1f} at "
        f">={SERVICE_MIN_BURST_REQUESTS}), "
        f"warm p99 {warm_p99:.1f} ms "
        f"(bar {SERVICE_MAX_WARM_P99_MS:.0f} ms)  {verdict}"
    )
    return ok


#: acceptance bars for synthesized campaigns (BENCH_SYNTH.json): the
#: serial executor must sustain the cells/s floor, and the committed
#: scored rate (the full ``ats synth campaign --json`` path) must
#: project the CI 1000-scenario smoke campaign inside its wall-clock
#: budget.  Floors are conservative -- the reference box measures
#: ~200-300 cells/s -- so noisy runners do not flap.
SYNTH_MIN_CELLS_PER_S = 40.0
SYNTH_SMOKE_SCENARIOS = 1000
SYNTH_SMOKE_BUDGET_S = 120.0


def check_synth_baseline() -> bool:
    """Validate the committed synth-campaign throughput; True when OK."""
    data = _load("BENCH_SYNTH.json")
    if not data:
        print("no BENCH_SYNTH.json baseline; synth check skipped")
        return True
    try:
        serial_rate = float(data["synth"]["serial"]["cells_per_s"])
        scored_rate = float(data["synth"]["scored"]["cells_per_s"])
        errors = int(data["synth"]["serial"]["errors"])
    except KeyError as exc:
        print(f"BENCH_SYNTH.json malformed (missing {exc}); FAIL")
        return False
    projected = SYNTH_SMOKE_SCENARIOS / scored_rate
    ok = (
        serial_rate >= SYNTH_MIN_CELLS_PER_S
        and errors == 0
        and projected <= SYNTH_SMOKE_BUDGET_S
    )
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"  BENCH_SYNTH serial throughput    {serial_rate:7.1f} cells/s "
        f"(floor {SYNTH_MIN_CELLS_PER_S:.0f}, {errors} errors), "
        f"projected {SYNTH_SMOKE_SCENARIOS}-cell smoke "
        f"{projected:.1f} s (budget {SYNTH_SMOKE_BUDGET_S:.0f} s)  {verdict}"
    )
    return ok


#: acceptance bars for the statistical layer (BENCH_STATS.json).
#: Conservative -- the reference box measures ~1300 feature rows/s on
#: hybrid-64, ~300 ranks/s through the kilo pipeline and a ~15x warm
#: export speedup -- so noisy runners do not flap, while a quadratic
#: slip in the feature or clustering path still trips the floor.
STATS_MIN_HYBRID_ROWS_PER_S = 300.0
STATS_MIN_KILO_RANKS_PER_S = 75.0
STATS_MIN_EXPORT_SPEEDUP = 3.0


def check_stats_baseline() -> bool:
    """Validate the committed statistical-layer rates; True when OK."""
    data = _load("BENCH_STATS.json")
    if not data:
        print("no BENCH_STATS.json baseline; stats check skipped")
        return True
    try:
        hybrid_rate = float(data["stats"]["hybrid"]["feature_rows_per_s"])
        kilo_rate = float(data["stats"]["kilo"]["ranks_per_s"])
        export = data["stats"]["export"]
        speedup = float(export["speedup"])
        warm_misses = int(export["warm_misses"])
    except KeyError as exc:
        print(f"BENCH_STATS.json malformed (missing {exc}); FAIL")
        return False
    ok = (
        hybrid_rate >= STATS_MIN_HYBRID_ROWS_PER_S
        and kilo_rate >= STATS_MIN_KILO_RANKS_PER_S
        and speedup >= STATS_MIN_EXPORT_SPEEDUP
        and warm_misses == 0
    )
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"  BENCH_STATS features/kilo/export {hybrid_rate:7.1f} rows/s "
        f"(floor {STATS_MIN_HYBRID_ROWS_PER_S:.0f}), "
        f"{kilo_rate:.1f} ranks/s (floor {STATS_MIN_KILO_RANKS_PER_S:.0f}), "
        f"warm x{speedup:.1f} (bar {STATS_MIN_EXPORT_SPEEDUP:.0f}x, "
        f"{warm_misses} misses)  {verdict}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--slack",
        type=float,
        default=float(os.environ.get("ATS_BENCH_SLACK", "0.25")),
        help="allowed fractional regression over a baseline "
             "(default 0.25; env ATS_BENCH_SLACK overrides)",
    )
    args = parser.parse_args(argv)

    archive_ok = check_archive_baseline()
    kilo_ok = check_kilo_baseline()
    service_ok = check_service_baseline()
    synth_ok = check_synth_baseline()
    stats_ok = check_stats_baseline()
    committed_ok = (
        archive_ok and kilo_ok and service_ok and synth_ok and stats_ok
    )

    baselines = collect_baselines(args.size)
    if not baselines:
        print(f"no committed baselines cover hybrid-{args.size}; nothing to guard")
        return 0 if committed_ok else 1

    fresh = measure(args.size, args.threads, args.repeats)
    print(f"fresh hybrid-{args.size}: {fresh*1000:.1f} ms "
          f"(best of {args.repeats}, slack {args.slack:.0%})")

    failed = False
    for label, wall_s in sorted(baselines.items()):
        limit = wall_s * (1.0 + args.slack)
        rel = fresh / wall_s - 1.0
        verdict = "ok" if fresh <= limit else "REGRESSION"
        failed = failed or fresh > limit
        print(f"  {label:32} {wall_s*1000:7.1f} ms  ({rel:+.1%})  {verdict}")

    if failed:
        print("FAIL: hybrid composite slower than a committed baseline "
              "beyond slack")
        return 1
    if not committed_ok:
        print("FAIL: a committed baseline is below its acceptance bar")
        return 1
    print("bench guard passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
