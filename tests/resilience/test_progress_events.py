"""Supervisor structured progress events (the live-dashboard feed)."""

from repro.resilience import PROGRESS_EVENTS, Supervisor


def _collector():
    events = []
    return events, events.append


def _names(events):
    return [e["event"] for e in events]


# ----------------------------------------------------------------------
# serial lifecycle
# ----------------------------------------------------------------------

def test_ok_cell_emits_started_then_done():
    events, on_event = _collector()
    sup = Supervisor(on_event=on_event)
    sup.run_cell("cell-a", lambda: 41)
    assert _names(events) == ["cell-started", "cell-done"]
    started, done = events
    assert started["key"] == done["key"] == "cell-a"
    assert started["attempt"] == 1
    assert done["attempts"] == 1
    assert all(isinstance(e["ts"], float) for e in events)
    assert all(e["event"] in PROGRESS_EVENTS for e in events)


def test_retry_then_success_emits_retry_with_delay():
    events, on_event = _collector()
    sup = Supervisor(
        retries=2,
        transient=("crash",),
        backoff_base=0.0,
        sleep=lambda s: None,
        on_event=on_event,
    )
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 2:
            raise ValueError("transient")
        return "fine"

    outcome = sup.run_cell("cell-b", flaky)
    assert outcome.ok
    assert _names(events) == [
        "cell-started", "cell-retry", "cell-started", "cell-done",
    ]
    retry = events[1]
    assert retry["kind"] == "crash"
    assert retry["attempt"] == 1
    assert retry["delay"] == sup.backoff_delay("cell-b", 1)


def test_quarantine_emits_cell_quarantined_with_kind():
    events, on_event = _collector()
    sup = Supervisor(on_event=on_event)

    def bad():
        raise ValueError("persistent")

    outcome = sup.run_cell("cell-c", bad)
    assert not outcome.ok
    assert _names(events) == ["cell-started", "cell-quarantined"]
    assert events[1]["kind"] == "crash"
    assert events[1]["attempts"] == 1


def test_checkpoint_replay_emits_cell_resumed(tmp_path):
    journal = tmp_path / "cells.jsonl"
    first = Supervisor(checkpoint=journal)
    first.run_cell("cell-d", lambda: {"v": 7})
    first.journal.close()

    events, on_event = _collector()
    second = Supervisor(checkpoint=journal, on_event=on_event)
    outcome = second.run_cell("cell-d", lambda: {"v": 999})
    second.journal.close()
    assert outcome.from_checkpoint
    assert outcome.value == {"v": 7}
    assert _names(events) == ["cell-resumed"]
    assert events[0]["status"] == "ok"


# ----------------------------------------------------------------------
# journal byte-identity (events are purely additive)
# ----------------------------------------------------------------------

def _run_supervised(journal_path, on_event=None):
    sup = Supervisor(
        retries=1,
        transient=("crash",),
        backoff_base=0.0,
        sleep=lambda s: None,
        checkpoint=journal_path,
        on_event=on_event,
    )
    sup.run_cell("ok-cell", lambda: {"n": 1})

    def bad():
        raise ValueError("always")

    sup.run_cell("bad-cell", bad)
    sup.journal.close()


def test_journal_byte_identical_with_and_without_callback(tmp_path):
    without = tmp_path / "without.jsonl"
    with_cb = tmp_path / "with.jsonl"
    _run_supervised(without)
    events, on_event = _collector()
    _run_supervised(with_cb, on_event=on_event)
    assert events, "callback saw no events"
    assert with_cb.read_bytes() == without.read_bytes()

