"""Statistical findings must be byte-identical everywhere they run.

The similarity family's clustering is pure stdlib arithmetic with
fixed tie-breaking, so the same trace digest must yield the same
findings in-process, through the archive cache (warm or cold), and in
repeated robustness/campaign sweeps.
"""

import json

from repro.analysis import analyze_run
from repro.archive import Archive, CacheStats, result_to_json_bytes
from repro.core import get_property
from repro.stats import STATISTICAL_DETECTORS, battery_for
from repro.synth import CampaignSpec, run_campaign
from repro.validation import run_robustness

FAMILIES = ("rule", "similarity")


def _findings_json(result):
    return json.dumps(
        [
            {
                "property": f.property,
                "path": list(f.callpath),
                "loc": str(f.loc),
                "wait": f.wait_time,
            }
            for f in result.findings
        ],
        sort_keys=True,
    )


def test_repeated_analysis_byte_identical():
    run = get_property("late_sender").run(size=8, seed=0)
    a = analyze_run(run, detectors=STATISTICAL_DETECTORS)
    b = analyze_run(run, detectors=STATISTICAL_DETECTORS)
    assert _findings_json(a) == _findings_json(b)
    assert a.findings  # the comparison is not vacuous


def test_warm_cache_byte_identical_to_cold(tmp_path):
    archive = Archive(tmp_path)
    run = archive.archive_run(
        get_property("late_sender"), size=8, seed=0
    )
    battery = battery_for(FAMILIES)
    cold = archive.analyze(run, detectors=battery)
    warm_stats = CacheStats()
    warm = archive.analyze(run, detectors=battery, stats=warm_stats)
    assert warm_stats.misses == 0
    assert result_to_json_bytes(warm) == result_to_json_bytes(cold)


def test_robustness_with_similarity_identical_across_runs():
    specs = [
        get_property("late_sender"),
        get_property("balanced_sendrecv"),
    ]

    def sweep():
        return run_robustness(
            specs=specs,
            magnitudes=(0.0, 0.7),
            seeds=(0, 1),
            size=6,
            num_threads=2,
            families=FAMILIES,
        ).to_json_str()

    first = sweep()
    assert '"families"' in first
    assert sweep() == first


def test_campaign_with_similarity_identical_across_runs():
    spec = CampaignSpec(
        name="det-par", scenarios=4, sizes=(4,), seed=11
    )
    first = run_campaign(spec, families=FAMILIES).to_json_str()
    assert run_campaign(spec, families=FAMILIES).to_json_str() == first


def test_rule_only_campaign_unchanged_by_families_plumbing():
    """The default family keeps the pre-existing artifact bytes."""
    spec = CampaignSpec(
        name="det-rule", scenarios=3, sizes=(4,), seed=5
    )
    a = run_campaign(spec).to_json_str()
    b = run_campaign(spec, families=("rule",)).to_json_str()
    assert a == b
