"""Byte-parity of every sweep artifact against pinned digests.

The validation matrix, robustness sweeps and synthesized campaigns all
run on one grid executor and one cell body.  These digests were
recorded before those were unified, from the three separate pipelines
they replaced, and pin the artifacts each sweep writes: robustness
JSON, campaign JSON, archive manifests, matrix rows and a checkpoint
journal.

Regenerate (only after an intended format change) with::

    PYTHONPATH=src python -m tests.test_pipeline_parity
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.archive import Archive
from repro.core.registry import get_property
from repro.archive.store import MANIFEST_FORMAT
from repro.faults import FaultPlan
from repro.resilience import CheckpointJournal, Supervisor
from repro.synth import CampaignSpec, NoiseConfig, run_campaign
from repro.validation import run_robustness, run_validation_matrix

PROGRAMS = ("late_sender", "balanced_sendrecv")

#: recorded from the three per-sweep pipelines (see module docstring)
EXPECTED = {
    "campaign-adversarial":
        "145db3d61825c326303afb27f2cff71b1f4dc48a87002f82954d04d61e1f84d8",
    "campaign-adversarial-manifest":
        "9a8b87184c966b0f55a3cb85f3645107adab0e46be523da232f633f29636f92c",
    "campaign-adversarial-manifest-raw":
        "58928f8d0fd0bfa7508af088aa5b3b174942dc8c4f90da8ae1ccde4ce652ee77",
    "campaign-errors":
        "8dfdbeedfb0a7d4229b19b61dd96a42f8afa9ba838ffffd4b488cc5be49da965",
    "campaign-grid":
        "1d0d364ad959cfb1fdfb8c50247213e09ef591956ef30c19fb9090573898d2e5",
    "campaign-grid-manifest":
        "f87ba2ec9e7d6f5bc6ad0a6cb2bdf97808b10b73151362ddfb6905d773f71cc4",
    "campaign-grid-manifest-raw":
        "9cc3764f424251930a9d006b9dedfd72641b5aa98717f12ee24794618722c5b5",
    "matrix":
        "f5e34ff96461896e70312121991a5ca2f0801ee70a19f417a1ac5527344b789f",
    "matrix-manifest":
        "497fe09af12262de6b97081dc3c34e2f857d50db93c35a5a52e44616d92cc190",
    "matrix-manifest-raw":
        "119338d9406eb960ce3e98ed9e36c00f5a0d5c39a2c9feba1c569afc7e5ea3e3",
    "robustness-journal":
        "f3be2da8f29884197e2bc0bb4ce882f9d495fb6f83325da9904cc82691d5816f",
    "robustness-journal-raw":
        "3b2b19f970f2c75bd7f29751280c17faeac71b7fa50c276f2506a1b5634976e8",
    "robustness-rule":
        "e809b23f24373897b13769ff3e95c32678185c67b80f6ca0967f5b2e82b31a0c",
    "robustness-rule-similarity":
        "bf9c38cf4e291e9ada4ea424b74b7d4321171c88c14674f008fb4c734daa1721",
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _specs():
    return [get_property(name) for name in PROGRAMS]


def _robustness(families, supervisor=None):
    return run_robustness(
        specs=_specs(),
        magnitudes=(0.0, 1.0),
        seeds=(0,),
        plan=FaultPlan.default(),
        size=4,
        num_threads=2,
        families=families,
        supervisor=supervisor,
    )


def _campaign_spec(strategy):
    if strategy == "grid":
        return CampaignSpec(
            name="parity", strategy="grid", scenarios=8, sizes=(4,),
            threads=2, seed=9,
            noise=NoiseConfig(
                plan=FaultPlan.default(), magnitudes=(0.0, 0.6)
            ),
        )
    return CampaignSpec(
        name="parity-adv", strategy="adversarial", scenarios=6,
        sizes=(4,), threads=2, seed=3, adversarial_rounds=1,
        adversarial_top=2,
        noise=NoiseConfig(plan=FaultPlan.default(), magnitudes=(1.5,)),
    )


def _journal_digests(out: dict, name: str, path: Path, **journal) -> None:
    """Pin a journal by its raw bytes and by its loaded records."""
    out[f"{name}-raw"] = _sha(path.read_bytes())
    records = CheckpointJournal(path, **journal).load()
    out[name] = _sha(json.dumps(records, sort_keys=True))


def artifacts() -> dict:
    """Digest of every pinned artifact."""
    out = {}
    out["robustness-rule"] = _sha(
        _robustness(("rule",)).to_json_str()
    )
    out["robustness-rule-similarity"] = _sha(
        _robustness(("rule", "similarity")).to_json_str()
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for strategy in ("grid", "adversarial"):
            root = tmp / strategy
            result = run_campaign(
                _campaign_spec(strategy),
                archive=Archive(root),
            )
            out[f"campaign-{strategy}"] = _sha(result.to_json_str())
            _journal_digests(
                out, f"campaign-{strategy}-manifest",
                root / "manifest.jsonl", fmt=MANIFEST_FORMAT,
            )
        # an impossible time budget turns every cell into an error cell
        failed = run_campaign(
            _campaign_spec("grid"), time_budget=1e-9
        )
        out["campaign-errors"] = _sha(failed.to_json_str())
        matrix = run_validation_matrix(
            specs=_specs(), size=4, num_threads=2,
            archive=Archive(tmp / "matrix"),
        )
        out["matrix"] = _sha(
            json.dumps([row.to_dict() for row in matrix.rows], indent=2)
        )
        _journal_digests(
            out, "matrix-manifest", tmp / "matrix" / "manifest.jsonl",
            fmt=MANIFEST_FORMAT,
        )
        journal = tmp / "ck.jsonl"
        supervisor = Supervisor(checkpoint=journal)
        _robustness(("rule",), supervisor=supervisor)
        supervisor.close()
        _journal_digests(out, "robustness-journal", journal)
    return out


@pytest.fixture(scope="module")
def serial():
    return artifacts()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_serial_artifact_matches_pinned_digest(serial, name):
    assert serial[name] == EXPECTED[name]


if __name__ == "__main__":
    for key, digest in sorted(artifacts().items()):
        print(f'    "{key}":\n        "{digest}",')
