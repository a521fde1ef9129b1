"""The campaign workload, ``campaign-grid``.

A *round* is one archived ``run_campaign`` + ``score_result`` over a
campaign spec whose seed is derived from the workload seed and the
round's slot.  A run cycles through the ``ROUNDS`` distinct slots in
whole cycles while its window lasts, and runs at least two cycles, so
every slot is repeated in every run and its campaign JSON must come
back byte-identical, and every run weighs its slots alike however fast
the host runs.  ``disagree_frac`` is taken over the distinct slots
only, so it is a pure function of the seed.

Per-cell latency comes from one timestamp per cell: the campaign calls
``Scenario.build_spec`` once, first thing, for every cell it runs, and
cells run one after another, so consecutive stamps bound each cell.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from typing import List, Optional

from repro.archive import Archive
from repro.faults import FaultPlan
from repro.simkernel import derive_seed
from repro.synth import (
    CampaignSpec,
    NoiseConfig,
    Scenario,
    run_campaign,
    score_result,
)

from tracer import Tracer

#: spec fields of the grid campaign, shared and per scale; the grid
#: varies the mix fastest, so 200 cells are 156 at 8 ranks (52 mixes x
#: 3 magnitudes) and 44 noiseless ones at 16
BASE = dict(
    name="perfbench-grid",
    strategy="grid",
    threads=2,
    noise=NoiseConfig(plan=FaultPlan.default(), magnitudes=(0.0, 0.35, 0.7)),
)
SCALES = {
    "full": dict(scenarios=200, sizes=(8, 16)),
    "smoke": dict(scenarios=6, sizes=(8,), max_properties=1,
                  properties=("late_sender", "imbalance_at_mpi_barrier")),
}
#: rule battery plus the statistical detectors, so both are graded
FAMILIES = ("rule", "similarity")
#: distinct round slots: 400 graded cells, and at 4-8 s a round a run
#: ends within one short cycle of its window
ROUNDS = 2

#: layers a traced pass must record spans in (a zero fails the run)
EXPECTED_LAYERS = ("synth", "sim", "trace", "analysis", "stats", "archive")


class CampaignWorkload:
    """Runs rounds of the grid campaign inside ``workdir``."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.distinct_rounds = ROUNDS
        self.fields = dict(BASE, **SCALES[scale])
        self.workdir = workdir
        self.rounds_run = 0

    def spec(self, slot: int) -> CampaignSpec:
        return CampaignSpec(
            seed=derive_seed(self.seed, slot), **self.fields
        )

    def warm_up(self) -> None:
        """One small campaign at the largest size: fills the simulator's
        worker pool, lazy imports and fingerprint caches."""
        fields = dict(self.fields, scenarios=2,
                      sizes=(max(self.fields["sizes"]),),
                      name=self.fields["name"] + "-warmup")
        self._campaign(CampaignSpec(seed=self.seed, **fields))

    def _campaign(self, spec: CampaignSpec, tracer: Optional[Tracer] = None,
                  stamps: Optional[list] = None) -> dict:
        archive_dir = self.workdir / f"archive-{self.rounds_run}"
        self.rounds_run += 1
        archive = Archive(archive_dir)
        t0 = time.monotonic()
        result = run_campaign(spec, archive=archive, families=FAMILIES)
        t_cells = time.monotonic()
        if tracer is not None:
            with tracer.span("score_result", "synth"):
                report = score_result(result)
        else:
            report = score_result(result)
        t1 = time.monotonic()
        archive.close()
        written = dir_bytes(archive_dir)
        shutil.rmtree(archive_dir, ignore_errors=True)
        return {
            "result": result,
            "report": report,
            "json": result.to_json_str(),
            "wall": t1 - t0,
            "latencies": _cell_latencies(stamps, t0, t_cells),
            "archive_bytes": written,
        }

    def run_round(self, slot: int, tracer: Optional[Tracer] = None) -> dict:
        """One timed round; traced rounds run under a ``bench`` span."""
        stamps: List[float] = []
        if tracer is not None:
            with tracer.span("round", "bench", slot=slot):
                return self._campaign(self.spec(slot), tracer=tracer)
        original = Scenario.build_spec

        def stamped(scenario):
            stamps.append(time.monotonic())
            return original(scenario)

        Scenario.build_spec = stamped
        try:
            return self._campaign(self.spec(slot), stamps=stamps)
        finally:
            Scenario.build_spec = original


def _cell_latencies(stamps, t0, t_end) -> List[float]:
    if not stamps:
        return []
    bounds = list(stamps) + [t_end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_round(round_: dict) -> int:
    """Output checks of one round; returns the number of failed cells."""
    result = round_["result"]
    failed = 0
    for cell in result.cells:
        bad = cell.error is not None
        try:
            cell.manifest.validate()
        except ValueError:
            bad = True
        failed += bad
    report = round_["report"]
    if report.cells != len(result.cells) or report.errors != len(
        result.errors
    ):
        failed = len(result.cells)
    return failed


def disagreeing(round_: dict) -> int:
    return len(round_["result"].disagreements())


def summarize(round_: dict) -> dict:
    """What a timed run keeps of a round, so that the run's memory does
    not grow with the number of rounds its window holds."""
    cells = round_["result"].cells
    return {
        "cells": len(cells),
        "ok": sum(c.error is None for c in cells),
        "failed": check_round(round_),
        "disagreeing": disagreeing(round_),
        "digest": hashlib.sha256(round_["json"].encode()).hexdigest(),
        "wall": round_["wall"],
        "latencies": round_["latencies"],
    }
