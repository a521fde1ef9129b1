"""A failing program or tool yields the same failed row on every executor."""

import pytest

from repro.analysis import analyze_run
from repro.core import get_property
from repro.validation import run_validation_matrix
from repro.work.forkexec import fork_available

SPECS = ("late_sender", "balanced_sendrecv")


def _breaks_on_late_sender(run):
    if any(getattr(e, "region", None) == "late_sender" for e in run.events):
        raise RuntimeError("tool broke")
    return analyze_run(run).detected(0.01)


def _matrix(workers):
    return run_validation_matrix(
        specs=[get_property(name) for name in SPECS],
        tool=_breaks_on_late_sender,
        size=4,
        num_threads=2,
        workers=workers,
    )


def test_raising_tool_is_a_failed_row_in_serial():
    matrix = _matrix(workers=1)
    broken, clean = matrix.rows
    assert broken.name == "late_sender"
    assert broken.error == "RuntimeError: tool broke"
    assert broken.detected == ()
    assert broken.missing == broken.expected
    assert not broken.passed
    assert clean.error is None and clean.passed


@pytest.mark.skipif(
    not fork_available(), reason="fork executor needs POSIX"
)
def test_failed_row_identical_across_executors():
    serial = _matrix(workers=1)
    forked = _matrix(workers=2)
    assert [r.to_dict() for r in forked.rows] == [
        r.to_dict() for r in serial.rows
    ]
