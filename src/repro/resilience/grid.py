"""The one grid executor behind every sweep.

The validation matrix, robustness sweeps and synthesized campaigns all
hand :func:`run_grid` a list of ``(key, thunk, error_cell)`` items:

* ``key`` -- the cell's stable checkpoint identity,
* ``thunk()`` -- computes the cell, raising on failure,
* ``error_cell(error)`` -- the cell a quarantined item contributes
  instead (``error`` is the supervisor's ``"Type: message"`` text).

Every item runs under a :class:`~.supervisor.Supervisor` -- inline
with ``workers == 1``, on forked children otherwise -- and cells come
back in submission order, so a sweep's artifact, journal and archive
manifests are identical whichever executor produced them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from .forked import run_cells_forked
from .supervisor import CellOutcome, Supervisor

__all__ = ["run_grid"]

GridItem = Tuple[str, Callable[[], Any], Callable[[str], Any]]


def _forked_outcomes(
    items: List[GridItem], supervisor: Supervisor, workers: int, archive
) -> List[CellOutcome]:
    """Run the thunks on forked children; ok values come back as dicts.

    A child cannot append to the archive's manifest journal (the fd is
    shared with the parent), so it defers its manifest records; they
    ride home on the extras channel and the parent replays them as each
    child completes.  Blob writes are atomic renames and stay in the
    child.
    """
    store = archive.store if archive is not None else None

    def child(thunk):
        def run() -> dict:
            if store is not None:
                store.begin_deferred()
            return thunk().to_dict()

        return run

    def replay(key: str, records) -> None:
        for run_id, payload in records:
            store.record_run(run_id, payload)

    return run_cells_forked(
        [(key, child(thunk)) for key, thunk, _error_cell in items],
        workers=workers,
        supervisor=supervisor,
        extras_fn=store.drain_deferred if store is not None else None,
        on_extras=replay if store is not None else None,
    )


def run_grid(
    items: Iterable[GridItem],
    decode: Callable[[dict], Any],
    supervisor: Optional[Supervisor] = None,
    workers: int = 1,
    archive=None,
) -> list:
    """Resolve every ``(key, thunk, error_cell)`` item; see module doc.

    Cells must provide ``to_dict()``, and ``decode`` is its inverse:
    it rebuilds journaled cells on resume and forked cells from the
    result pipe.  ``supervisor=None`` means ``Supervisor()``: one
    attempt, no timeout, no journal.  ``archive`` is the
    :class:`repro.archive.Archive` the thunks record into, if any.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    if supervisor is None:
        supervisor = Supervisor()
    if workers > 1:
        outcomes = _forked_outcomes(items, supervisor, workers, archive)
    else:
        outcomes = [
            supervisor.run_cell(
                key, thunk, encode=lambda cell: cell.to_dict(),
                decode=decode,
            )
            for key, thunk, _error_cell in items
        ]
    cells = []
    for (_key, _thunk, error_cell), outcome in zip(items, outcomes):
        if not outcome.ok:
            cells.append(error_cell(outcome.failure.error))
        elif workers > 1:
            cells.append(decode(outcome.value))
        else:
            cells.append(outcome.value)
    return cells
