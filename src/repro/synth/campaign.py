"""Campaign execution, and the noisy cell body campaigns share with
robustness sweeps.

:func:`run_noisy_cell` is the one cell body: a seed-deterministic
simulated run under the scaled noise plan, an optional trace-fault
round trip through the salvaging reader, archiving, and analysis.
Robustness sweeps grade its output against the registry; campaigns
grade it against each scenario's ground-truth manifest.  Cells run on
the grid executor (:func:`repro.resilience.run_grid`) under a
:class:`repro.resilience.Supervisor` (wall-clock timeout / retry /
quarantine / checkpoint resume), serially and in scenario order, so
the campaign JSON is byte-identical across runs and checkpoint resume.

The adversarial strategy loops here: after the base sample, each
refinement round ranks cells by disagreement (missing + spurious
findings vs. the manifest), perturbs the worst offenders
(:func:`.generate.mutate_scenario`), and executes the mutants.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..analysis import AnalysisConfig, analyze_events, analyze_run
from ..faults import FaultInjector
from ..resilience.checkpoint import record_from_dict, record_to_dict
from ..trace.io import read_trace, write_trace
from .generate import adversarial_rng, generate_scenarios, mutate_scenario
from .scenario import GroundTruthManifest, Scenario
from .spec import CampaignSpec


class CampaignError(RuntimeError):
    """Campaign aborted (max_failures exceeded); carries the partial result."""

    def __init__(self, message: str, result: "CampaignResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class ScenarioCell:
    """One executed scenario graded against its manifest."""

    scenario: Scenario
    manifest: GroundTruthManifest
    detected: Tuple[str, ...]
    missing: Tuple[str, ...]
    spurious: Tuple[str, ...]
    events: int
    #: archive run id when the campaign archives, else None
    run_id: Optional[str] = None
    error: Optional[str] = None
    salvaged: bool = False

    @property
    def disagreement(self) -> int:
        return len(self.missing) + len(self.spurious)

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioCell":
        return record_from_dict(
            cls,
            d,
            scenario=Scenario.from_dict(d["scenario"]),
            manifest=GroundTruthManifest.from_dict(d["manifest"]),
        )


def _build_cell(
    scenario: Scenario,
    detected: Sequence[str] = (),
    events: int = 0,
    run_id: Optional[str] = None,
    error: Optional[str] = None,
    salvaged: bool = False,
    families: Tuple[str, ...] = ("rule",),
) -> ScenarioCell:
    from ..stats import graded_sets

    manifest = scenario.manifest()
    detected = tuple(detected)
    expected, allowed = graded_sets(
        manifest.expected, manifest.allowed, bool(manifest.expected),
        families,
    )
    return ScenarioCell(
        scenario=scenario,
        manifest=manifest,
        detected=detected,
        missing=tuple(
            p for p in sorted(expected) if p not in detected
        ),
        spurious=tuple(
            p
            for p in detected
            if p not in expected and p not in allowed
        ),
        events=events,
        run_id=run_id,
        error=error,
        salvaged=salvaged,
    )


def cell_key(scenario: Scenario) -> str:
    """Stable checkpoint key of one campaign cell."""
    return (
        f"{scenario.name}|m{scenario.noise_magnitude:g}|s{scenario.seed}"
    )


class NoisyCell(NamedTuple):
    """What :func:`run_noisy_cell` observed, before grading."""

    detected: Tuple[str, ...]
    events: int
    #: archive run id when archiving, else None
    run_id: Optional[str]
    #: the trace-fault round trip cut the trace short
    salvaged: bool


def run_noisy_cell(
    pspec,
    size: int,
    threads: int,
    seed: int,
    plan,
    magnitude: float,
    trace_path: Path,
    families: Tuple[str, ...] = ("rule",),
    threshold: float = 0.01,
    time_budget: Optional[float] = None,
    archive=None,
    manifest: Optional[dict] = None,
) -> NoisyCell:
    """Run one program the way a tool meets a noisy run; raises on failure.

    Simulates ``pspec`` with ``plan`` scaled to ``magnitude``.  When
    the scaled plan carries trace faults, the trace round-trips through
    the fault-injecting writer (at ``trace_path``) and the salvaging
    reader, so the analyzer sees what landed on disk.  With an
    ``archive``, those events are recorded under the scaled plan,
    carrying ``manifest`` when given.  Finally the ``families`` battery
    analyzes them.
    """
    from ..stats import battery_for

    detectors = battery_for(families)
    scaled = plan.scaled(magnitude)
    injector = FaultInjector.coerce(scaled, seed=seed)
    run = pspec.run(
        size=size,
        num_threads=threads,
        seed=seed,
        faults=injector,
        time_budget=time_budget,
    )
    transport = getattr(run, "transport", None)
    trace_faults = injector is not None and injector.has_trace_faults
    events, salvaged = run.events, False
    if trace_faults:
        write_trace(
            trace_path,
            run.events,
            metadata={"program": pspec.name, "seed": seed},
            faults=injector,
        )
        events, metadata = read_trace(
            trace_path, skip_bad_lines=True, salvage=True
        )
        salvaged = bool(metadata.get("truncated"))
    run_id = None
    if archive is not None:
        run_id = archive.record_result(
            pspec, run, size, threads, seed, events=events,
            plan=dict(scaled.to_dict(), magnitude=magnitude),
            manifest=manifest,
        ).run_id
    if trace_faults:
        analysis = analyze_events(
            events,
            total_time=run.final_time,
            config=(
                AnalysisConfig(eager_threshold=transport.eager_threshold)
                if transport is not None
                else None
            ),
            detectors=detectors,
        )
    else:
        analysis = analyze_run(run, detectors=detectors)
    return NoisyCell(
        tuple(analysis.detected(threshold)), len(events), run_id, salvaged
    )


@dataclass
class CampaignResult:
    """All executed cells of one campaign."""

    spec: CampaignSpec
    cells: List[ScenarioCell] = field(default_factory=list)
    #: detector families the campaign ran (provenance)
    families: Tuple[str, ...] = ("rule",)

    @property
    def errors(self) -> List[ScenarioCell]:
        return [c for c in self.cells if c.error is not None]

    def disagreements(self) -> List[ScenarioCell]:
        return [
            c
            for c in self.cells
            if c.error is None and c.disagreement > 0
        ]

    def to_json_dict(self) -> dict:
        return {
            "format": "ats-synth-campaign",
            "version": 1,
            "spec": self.spec.to_dict(),
            "families": list(self.families),
            "scenarios": len(self.cells),
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def format_summary(self) -> str:
        perfect = sum(
            1
            for c in self.cells
            if c.error is None and c.disagreement == 0
        )
        lines = [
            f"campaign {self.spec.name}: {len(self.cells)} scenario(s), "
            f"strategy={self.spec.strategy}, seed={self.spec.seed}",
            f"  agree with manifest: {perfect}",
            f"  disagreements:       {len(self.disagreements())}",
            f"  errors:              {len(self.errors)}",
        ]
        return "\n".join(lines) + "\n"


def run_campaign(
    spec: CampaignSpec,
    threshold: float = 0.01,
    time_budget: Optional[float] = None,
    supervisor=None,
    archive=None,
    families: Sequence[str] = ("rule",),
) -> CampaignResult:
    """Execute one synthesis campaign (see module docstring).

    Every cell runs under ``supervisor`` (build it with
    ``retries=spec.max_retries`` to honor the spec; ``None`` means one
    with no timeout, retries or journal); ``archive`` records every
    analyzed trace with its ground-truth manifest attached.  The result
    (and its JSON) is byte-identical across runs and across checkpoint
    resume.

    ``spec.max_failures >= 0`` aborts the campaign with a
    :class:`CampaignError` (carrying the partial result) once more
    than that many cells have errored.

    ``families`` selects the detector families to run (see
    :func:`repro.stats.battery_for`); with ``"similarity"`` enabled,
    cells are graded through the class taxonomy and the scorer reports
    rule-based vs. statistical recall side by side.
    """
    from ..archive import coerce_archive
    from ..resilience import run_grid
    from ..stats import battery_for

    families = tuple(families)
    battery_for(families)  # validates family names
    archive = coerce_archive(archive)
    result = CampaignResult(spec=spec, families=families)

    def check_failures() -> None:
        if spec.max_failures < 0:
            return
        failed = len(result.errors)
        if failed > spec.max_failures:
            raise CampaignError(
                f"campaign {spec.name}: aborted after {failed} failed "
                f"cell(s) (max_failures={spec.max_failures})",
                result,
            )

    scenarios = generate_scenarios(spec)
    next_index = len(scenarios)
    with tempfile.TemporaryDirectory(prefix="ats-synth-") as tmp:
        workdir = Path(tmp)

        def graded_cell(scenario: Scenario) -> ScenarioCell:
            # the archived record carries the ground-truth manifest, so
            # ``ats diff`` and the scorer can grade straight from it
            pspec = scenario.build_spec()
            manifest = scenario.manifest()
            manifest.validate()
            noisy = run_noisy_cell(
                pspec,
                scenario.size,
                scenario.threads,
                scenario.seed,
                spec.noise.plan,
                scenario.noise_magnitude,
                workdir / (
                    f"synth-{scenario.index:05d}-s{scenario.seed}"
                    ".trace.jsonl"
                ),
                families=families,
                threshold=threshold,
                time_budget=time_budget,
                archive=archive,
                manifest=manifest.to_dict(),
            )
            return _build_cell(
                scenario, **noisy._asdict(), families=families
            )

        def run_batch(batch: Sequence[Scenario]) -> None:
            result.cells.extend(
                run_grid(
                    [
                        (
                            cell_key(sc),
                            lambda sc=sc: graded_cell(sc),
                            lambda error, sc=sc: _build_cell(
                                sc, error=error, families=families
                            ),
                        )
                        for sc in batch
                    ],
                    ScenarioCell.from_dict,
                    supervisor=supervisor,
                )
            )
            check_failures()

        run_batch(scenarios)
        if spec.strategy == "adversarial":
            for round_index in range(spec.adversarial_rounds):
                worst = sorted(
                    result.disagreements(),
                    key=lambda c: (-c.disagreement, c.scenario.index),
                )[: spec.adversarial_top]
                if not worst:
                    break
                rng = adversarial_rng(spec, round_index)
                mutants = [
                    mutate_scenario(
                        spec, cell.scenario, next_index + j, rng
                    )
                    for j, cell in enumerate(worst)
                ]
                next_index += len(mutants)
                run_batch(mutants)
    return result
