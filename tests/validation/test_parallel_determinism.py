"""Sweeps must be byte-identical from run to run.

Cells run serially in grid order, so robustness JSON, matrix rows,
checkpoint journals and archive manifests are pure functions of the
sweep's arguments: two runs agree byte for byte, supervised or not, and
a journal resumes to the artifact an uninterrupted sweep writes.
"""

import json

import pytest

from repro.archive import Archive
from repro.core import get_property
from repro.resilience import Supervisor
from repro.validation import run_robustness, run_validation_matrix

SPECS = ("imbalance_at_mpi_barrier", "balanced_mpi_barrier")
MAGNITUDES = (0.0, 0.7)
SEEDS = (0, 1)


def _specs(count=len(SPECS)):
    return [get_property(name) for name in SPECS[:count]]


def _robustness(supervisor=None, archive=None, specs=len(SPECS)):
    return run_robustness(
        specs=_specs(specs),
        magnitudes=MAGNITUDES,
        seeds=SEEDS,
        size=6,
        num_threads=2,
        supervisor=supervisor,
        archive=archive,
    )


@pytest.mark.parametrize("runs", [2, 3])
def test_robustness_json_byte_identical(runs):
    first = _robustness().to_json_str()
    for _ in range(runs - 1):
        assert _robustness().to_json_str() == first


def test_matrix_rows_identical_across_runs():
    first = run_validation_matrix(specs=_specs(), size=6, num_threads=2)
    second = run_validation_matrix(specs=_specs(), size=6, num_threads=2)
    assert [r.to_dict() for r in second.rows] == [
        r.to_dict() for r in first.rows
    ]


def _journal_payloads(path):
    entries = {}
    for line in path.read_text().splitlines()[1:]:
        record = json.loads(line)
        entries[record["key"]] = record["payload"]
    return entries


def _supervised_campaign(root):
    """Checkpointed, archived robustness sweep; returns its artifacts."""
    checkpoint = root / "sweep.ckpt"
    sup = Supervisor(checkpoint=checkpoint)
    archive = Archive(root / "archive")
    result = _robustness(supervisor=sup, archive=archive)
    sup.close()
    return (
        result.to_json_str(),
        _journal_payloads(checkpoint),
        archive.store.load_manifest(),
    )


def test_supervised_archived_campaign_parity(tmp_path):
    first = _supervised_campaign(tmp_path / "first")
    second = _supervised_campaign(tmp_path / "second")
    assert second[0] == first[0]  # robustness JSON
    assert second[1] == first[1]  # checkpoint journal payloads
    assert second[2] == first[2]  # archive manifest records


def test_checkpoint_resume_byte_identical(tmp_path):
    """A journaled sweep resumes to the artifact it first wrote."""
    checkpoint = tmp_path / "sweep.ckpt"
    sup = Supervisor(checkpoint=checkpoint)
    first = _robustness(supervisor=sup)
    sup.close()

    sup2 = Supervisor(checkpoint=checkpoint)
    resumed = _robustness(supervisor=sup2)
    sup2.close()
    assert sup2.completed_keys
    assert resumed.to_json_str() == first.to_json_str()


@pytest.mark.parametrize("first_specs,resume_specs", [(1, 2), (2, 1)])
def test_checkpoints_resume_across_executors(
    tmp_path, first_specs, resume_specs
):
    """A journal written under one supervisor resumes under another.

    The two supervised sweeps differ in shape: (1, 2) replays the first
    spec's cells and executes only the second spec's; (2, 1) replays a
    subset of a larger journal.  Either way the result is byte-identical
    to an uninterrupted sweep of the resumed shape.
    """
    checkpoint = tmp_path / "cross.ckpt"
    sup = Supervisor(checkpoint=checkpoint)
    _robustness(supervisor=sup, specs=first_specs)
    sup.close()

    events = []
    sup2 = Supervisor(checkpoint=checkpoint, on_event=events.append)
    resumed = _robustness(supervisor=sup2, specs=resume_specs)
    sup2.close()

    fresh = _robustness(specs=resume_specs)
    assert resumed.to_json_str() == fresh.to_json_str()
    replayed = [e for e in events if e["event"] == "cell-resumed"]
    executed = [e for e in events if e["event"] == "cell-done"]
    per_spec = len(fresh.cells) // resume_specs
    assert len(replayed) == per_spec * min(first_specs, resume_specs)
    assert len(executed) == len(fresh.cells) - len(replayed)
