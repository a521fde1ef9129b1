"""A failing program or tool yields a failed row, not an aborted matrix."""

from repro.analysis import analyze_run
from repro.core import get_property
from repro.validation import run_validation_matrix

SPECS = ("late_sender", "balanced_sendrecv")


def _breaks_on_late_sender(run):
    if any(getattr(e, "region", None) == "late_sender" for e in run.events):
        raise RuntimeError("tool broke")
    return analyze_run(run).detected(0.01)


def _matrix():
    return run_validation_matrix(
        specs=[get_property(name) for name in SPECS],
        tool=_breaks_on_late_sender,
        size=4,
        num_threads=2,
    )


def test_raising_tool_is_a_failed_row_in_serial():
    matrix = _matrix()
    broken, clean = matrix.rows
    assert broken.name == "late_sender"
    assert broken.error == "RuntimeError: tool broke"
    assert broken.detected == ()
    assert broken.missing == broken.expected
    assert not broken.passed
    assert clean.error is None and clean.passed

