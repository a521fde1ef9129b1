"""Supervision and recovery layer for long-running sweeps.

The counterpart to :mod:`repro.faults`: that package makes programs
misbehave on purpose; this one keeps the harness alive while they do.
Three cooperating pieces:

* the kernel watchdog (:mod:`repro.simkernel.watchdog`) turns
  no-progress states into structured ``DeadlockReport``/``HangReport``,
* the :class:`Supervisor` runs each sweep cell with wall-clock
  timeouts, failure classification, seed-deterministic retry and
  quarantine,
* the :class:`CheckpointJournal` makes completed cells durable so an
  interrupted sweep resumes instead of restarting.

:func:`run_grid` (:mod:`repro.resilience.grid`) is the one grid
executor every sweep -- validation matrix, robustness, synthesized
campaign -- runs its cells on, serially and in submission order.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointJournal,
    coerce_journal,
)
from .grid import run_grid
from .supervisor import (
    FAILURE_KINDS,
    PROGRESS_EVENTS,
    CellFailure,
    CellOutcome,
    CellTimeout,
    FailureReport,
    Supervisor,
    classify_failure,
)

__all__ = [
    "FAILURE_KINDS",
    "CellFailure",
    "CellOutcome",
    "CellTimeout",
    "CheckpointError",
    "CheckpointJournal",
    "FailureReport",
    "PROGRESS_EVENTS",
    "Supervisor",
    "classify_failure",
    "coerce_journal",
    "run_grid",
]
