#!/usr/bin/env python
"""Synthesized-campaign throughput benchmark.

Measures the end-to-end cell rate of ``repro.synth`` -- generate
scenarios, run each synthesized program under its fault plan, analyze
the trace and grade it against the ground-truth manifest -- in two
configurations:

* **serial**  -- ``run_campaign`` on the calling thread,
* **scored**  -- serial plus ``score_result`` and JSON serialization,
  the full ``ats synth campaign --json`` path.

The headline number is *cells per second*; the guard
(``check_bench_guard.check_synth_baseline``) holds a throughput floor
and projects the committed rate onto the CI 1000-scenario smoke
campaign to keep its wall-clock inside budget.

Results land in ``BENCH_SYNTH.json`` at the repository root.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_synth.py           # full
    PYTHONPATH=src python benchmarks/bench_synth.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults import FaultPlan  # noqa: E402
from repro.synth import (  # noqa: E402
    CampaignSpec,
    NoiseConfig,
    run_campaign,
    score_result,
)

OUT_PATH = REPO_ROOT / "BENCH_SYNTH.json"

#: full-mode campaign sizes; --quick shrinks them for CI smoke runs
FULL_SCENARIOS = 200
QUICK_SCENARIOS = 40


def _spec(scenarios: int) -> CampaignSpec:
    return CampaignSpec(
        name="bench-synth",
        strategy="grid",
        scenarios=scenarios,
        sizes=(4, 8),
        threads=2,
        seed=42,
        noise=NoiseConfig(
            plan=FaultPlan.default(), magnitudes=(0.0, 0.35, 0.7)
        ),
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_serial(scenarios: int) -> dict:
    result, wall = _timed(lambda: run_campaign(_spec(scenarios)))
    return {
        "cells": len(result.cells),
        "errors": len(result.errors),
        "wall_s": wall,
        "cells_per_s": len(result.cells) / wall,
    }


def run_scored(scenarios: int) -> dict:
    def full_path():
        result = run_campaign(_spec(scenarios))
        report = score_result(result)
        return result, len(result.to_json_str()) + len(report.to_json_str())

    (result, artifact_bytes), wall = _timed(full_path)
    return {
        "cells": len(result.cells),
        "artifact_bytes": artifact_bytes,
        "wall_s": wall,
        "cells_per_s": len(result.cells) / wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small campaigns, no JSON write",
    )
    args = parser.parse_args(argv)

    scenarios = QUICK_SCENARIOS if args.quick else FULL_SCENARIOS

    serial = run_serial(scenarios)
    print(
        f"  serial {serial['cells']:5d} cells: {serial['wall_s']:6.2f} s "
        f"({serial['cells_per_s']:7.1f} cells/s, "
        f"{serial['errors']} errors)"
    )

    scored = run_scored(scenarios)
    print(
        f"  scored {scored['cells']:5d} cells: {scored['wall_s']:6.2f} s "
        f"({scored['cells_per_s']:7.1f} cells/s, "
        f"{scored['artifact_bytes']} artifact bytes)"
    )

    payload = {
        "synth": {
            "serial": serial,
            "scored": scored,
        },
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    if args.quick:
        print("quick mode: BENCH_SYNTH.json not rewritten")
        return 0
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
