"""The one grid executor behind every sweep.

The validation matrix, robustness sweeps and synthesized campaigns all
hand :func:`run_grid` a list of ``(key, thunk, error_cell)`` items:

* ``key`` -- the cell's stable checkpoint identity,
* ``thunk()`` -- computes the cell, raising on failure,
* ``error_cell(error)`` -- the cell a quarantined item contributes
  instead (``error`` is the supervisor's ``"Type: message"`` text).

Every item runs inline under a :class:`~.supervisor.Supervisor`, and
cells come back in submission order, so a sweep's artifact, journal and
archive manifests are a pure function of its inputs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

from .supervisor import Supervisor

__all__ = ["run_grid"]

GridItem = Tuple[str, Callable[[], Any], Callable[[str], Any]]


def run_grid(
    items: Iterable[GridItem],
    decode: Callable[[dict], Any],
    supervisor: Optional[Supervisor] = None,
) -> list:
    """Resolve every ``(key, thunk, error_cell)`` item; see module doc.

    Cells must provide ``to_dict()``, and ``decode`` is its inverse:
    it rebuilds journaled cells on resume.  ``supervisor=None`` means
    ``Supervisor()``: one attempt, no timeout, no journal.
    """
    if supervisor is None:
        supervisor = Supervisor()
    cells = []
    for key, thunk, error_cell in items:
        outcome = supervisor.run_cell(
            key, thunk, encode=lambda cell: cell.to_dict(), decode=decode
        )
        cells.append(
            outcome.value if outcome.ok
            else error_cell(outcome.failure.error)
        )
    return cells
