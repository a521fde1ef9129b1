"""Supervised execution of sweep cells: timeout, classify, retry, quarantine.

A sweep (validation matrix, robustness grid, benchmark series) is a list
of independent *cells*.  Any cell can legally fail -- the suite's whole
point is running programs with known pathological behavior, and PR 3's
fault plans make hangs and corrupt traces routine inputs.  The
:class:`Supervisor` wraps each cell so that one bad cell never takes
down the sweep:

* **timeout** -- an optional wall-clock limit per attempt (the virtual
  -time watchdog in :mod:`repro.simkernel.watchdog` handles simulated
  hangs; the wall limit is the last-resort guard against host-level
  runaway).  ``timeout=None`` (the default) runs the cell inline on the
  calling thread with zero added machinery -- the disabled path.
* **classification** -- every failure maps to one kind of
  :data:`FAILURE_KINDS`: ``deadlock``, ``hang``, ``crash``,
  ``trace-corrupt`` or ``timeout``.  Structured watchdog reports ride
  along into the failure record.
* **retry** -- kinds listed in ``transient`` are retried up to
  ``retries`` times with capped exponential backoff.  The backoff
  jitter is drawn from an :class:`~repro.simkernel.rng.Lcg64` stream
  keyed on ``(seed, cell key, attempt)``, so a retried sweep is exactly
  as deterministic as an untroubled one.  The default transient set is
  just ``("timeout",)``: the simulator is deterministic, so a deadlock
  or virtual-time hang will recur on every retry.
* **quarantine** -- persistent failures become :class:`CellFailure`
  records in a :class:`FailureReport`; the sweep continues with the
  remaining cells.
* **checkpoint** -- with a :class:`~repro.resilience.checkpoint.
  CheckpointJournal` attached, every outcome (success *and* quarantine)
  is journaled as it completes and replayed on the next run, so
  ``--resume`` skips finished cells and reproduces the exact artifact
  an uninterrupted sweep would have written.
* **progress events** -- an optional ``on_event`` callback receives a
  structured dict at every cell transition (``cell-started``,
  ``cell-retry``, ``cell-done``, ``cell-quarantined``,
  ``cell-resumed``), each stamped with a wall-clock ``ts``.  This is
  how live observers -- the analysis service's ``/status`` campaign
  view, a progress bar -- watch a sweep *while it runs* instead of
  post-hoc through the checkpoint journal.  The callback is purely
  additive: journals stay byte-identical whether or not one is set,
  and it runs on the supervising thread, so it must be fast and must
  not raise.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.instruments import resilience_metrics
from ..simkernel.errors import DeadlockError, HangError
from ..simkernel.rng import Lcg64
from .checkpoint import (
    CheckpointJournal,
    coerce_journal,
    record_from_dict,
    record_to_dict,
)

#: the failure taxonomy, in rough order of diagnosability
FAILURE_KINDS = ("deadlock", "hang", "timeout", "trace-corrupt", "crash")

#: event names emitted to a Supervisor's ``on_event`` callback
PROGRESS_EVENTS = (
    "cell-started",
    "cell-retry",
    "cell-done",
    "cell-quarantined",
    "cell-resumed",
)


class CellTimeout(Exception):
    """A cell attempt exceeded the supervisor's wall-clock limit."""


def classify_failure(exc: BaseException) -> str:
    """Map an exception from a cell to one of :data:`FAILURE_KINDS`."""
    from ..trace.io import TraceFormatError

    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, HangError):
        return "hang"
    if isinstance(exc, CellTimeout):
        return "timeout"
    if isinstance(exc, TraceFormatError):
        return "trace-corrupt"
    return "crash"


def failure_report_of(exc: BaseException) -> Optional[dict]:
    """Extract the structured watchdog report, when the error carries one."""
    report = getattr(exc, "report", None)
    if report is None:
        return None
    return report.to_dict()


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: what failed, how, and after how many tries."""

    key: str
    kind: str
    error: str
    attempts: int
    #: structured DeadlockReport/HangReport dict, when available
    report: Optional[dict] = None

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CellFailure":
        return record_from_dict(cls, d)


@dataclass
class FailureReport:
    """All quarantined cells of one sweep, renderable as an artifact."""

    failures: List[CellFailure] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for failure in self.failures:
            out[failure.kind] = out.get(failure.kind, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "format": "ats-failures",
            "version": 1,
            "counts": self.counts(),
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_json_str(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def format_table(self) -> str:
        if not self.failures:
            return "no quarantined cells\n"
        lines = [f"{'cell':<44}{'kind':<14}{'tries':>5}  error"]
        for f in self.failures:
            error = f.error if len(f.error) <= 60 else f.error[:57] + "..."
            lines.append(
                f"{f.key:<44}{f.kind:<14}{f.attempts:>5}  {error}"
            )
        counts = ", ".join(
            f"{n} {kind}" for kind, n in sorted(self.counts().items())
        )
        lines.append(f"{len(self.failures)} quarantined ({counts})")
        return "\n".join(lines) + "\n"


@dataclass
class CellOutcome:
    """What the supervisor resolved one cell to."""

    key: str
    status: str  # "ok" | "failed"
    value: Any = None
    failure: Optional[CellFailure] = None
    attempts: int = 1
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Supervisor:
    """Job-based runner for sweep cells (see module docstring).

    ``sleep`` is injectable so tests can assert the exact backoff
    schedule without waiting it out.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        retries: int = 0,
        transient: Sequence[str] = ("timeout",),
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
        checkpoint=None,
        sleep: Callable[[float], None] = time.sleep,
        on_event: Optional[Callable[[dict], None]] = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        unknown = set(transient) - set(FAILURE_KINDS)
        if unknown:
            raise ValueError(f"unknown transient kinds: {sorted(unknown)}")
        self.timeout = timeout
        self.retries = retries
        self.transient = tuple(transient)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        self.journal: Optional[CheckpointJournal] = coerce_journal(
            checkpoint
        )
        self._sleep = sleep
        self.on_event = on_event
        self._done: Dict[str, dict] = (
            self.journal.load() if self.journal is not None else {}
        )
        self.failures: List[CellFailure] = []
        self._metrics = resilience_metrics()

    def _emit(self, event: str, key: str, **fields) -> None:
        """Deliver one progress event to the optional observer.

        No-op without a callback, so an unobserved sweep takes exactly
        the pre-existing code path (and its journal stays
        byte-identical).
        """
        if self.on_event is None:
            return
        self.on_event(dict({"event": event, "key": key,
                            "ts": time.time()}, **fields))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def completed_keys(self) -> Tuple[str, ...]:
        """Keys already resolved by a previous (journaled) run."""
        return tuple(self._done)

    def failure_report(self) -> FailureReport:
        return FailureReport(failures=list(self.failures))

    # ------------------------------------------------------------------
    # the cell lifecycle
    # ------------------------------------------------------------------

    def run_cell(
        self,
        key: str,
        fn: Callable[[], Any],
        encode: Optional[Callable[[Any], dict]] = None,
        decode: Optional[Callable[[dict], Any]] = None,
    ) -> CellOutcome:
        """Resolve one cell: replay it from the journal or execute it.

        ``encode``/``decode`` translate the cell's result to/from the
        JSON payload journaled for resume; both default to identity
        (the result must then already be a JSON-able dict).
        """
        cached = self.replay(key, decode)
        if cached is not None:
            return cached
        outcome = self._execute(key, fn)
        self._journal_outcome(key, outcome, encode)
        m = self._metrics
        if outcome.failure is not None:
            self.failures.append(outcome.failure)
            if m is not None:
                m.failures.labels(kind=outcome.failure.kind).inc()
            self._emit(
                "cell-quarantined", key,
                kind=outcome.failure.kind, attempts=outcome.attempts,
            )
        else:
            self._emit("cell-done", key, attempts=outcome.attempts)
        if m is not None:
            m.cells.labels(status=outcome.status).inc()
        return outcome

    def replay(
        self,
        key: str,
        decode: Optional[Callable[[dict], Any]] = None,
    ) -> Optional[CellOutcome]:
        """The journaled outcome for ``key``, or ``None`` if not cached.

        Replayed failures re-enter :attr:`failures`, exactly as if the
        cell had just been quarantined.
        """
        payload = self._done.get(key)
        if payload is None:
            return None
        m = self._metrics
        if m is not None:
            m.cells.labels(status="resumed").inc()
        self._emit("cell-resumed", key, status=payload["status"])
        if payload["status"] == "ok":
            cell = payload["cell"]
            return CellOutcome(
                key=key,
                status="ok",
                value=decode(cell) if decode is not None else cell,
                attempts=payload.get("attempts", 1),
                from_checkpoint=True,
            )
        failure = CellFailure.from_dict(payload["failure"])
        self.failures.append(failure)
        return CellOutcome(
            key=key,
            status="failed",
            failure=failure,
            attempts=failure.attempts,
            from_checkpoint=True,
        )

    def _execute(self, key: str, fn: Callable[[], Any]) -> CellOutcome:
        attempt = 0
        while True:
            attempt += 1
            self._emit("cell-started", key, attempt=attempt)
            try:
                value = self._attempt(fn)
            except Exception as exc:  # noqa: BLE001 - classified below
                kind = classify_failure(exc)
                if kind in self.transient and attempt <= self.retries:
                    self._emit(
                        "cell-retry", key, attempt=attempt, kind=kind,
                        delay=self.backoff_delay(key, attempt),
                    )
                    self._backoff(key, attempt)
                    continue
                return CellOutcome(
                    key=key,
                    status="failed",
                    failure=CellFailure(
                        key=key,
                        kind=kind,
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt,
                        report=failure_report_of(exc),
                    ),
                    attempts=attempt,
                )
            return CellOutcome(
                key=key, status="ok", value=value, attempts=attempt
            )

    def _attempt(self, fn: Callable[[], Any]) -> Any:
        """One attempt, inline or under the wall-clock limit.

        The inline path (``timeout=None``) is a plain call -- no thread,
        no allocation -- so disabling supervision costs nothing on clean
        sweeps.  The timed path runs the cell on a daemon thread and
        abandons it on expiry; a deterministic simulation cannot be
        safely interrupted mid-dispatch, so the stuck thread is left to
        the virtual-time watchdog (or process exit) while the sweep
        moves on.
        """
        if self.timeout is None:
            return fn()
        box: dict = {}

        def target() -> None:
            try:
                box["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - reraised below
                box["exc"] = exc

        thread = threading.Thread(
            target=target, name="ats-cell", daemon=True
        )
        thread.start()
        thread.join(self.timeout)
        if thread.is_alive():
            if self._metrics is not None:
                self._metrics.timeouts.inc()
            raise CellTimeout(
                f"wall-clock timeout after {self.timeout:g}s"
            )
        if "exc" in box:
            raise box["exc"]
        return box["value"]

    def _backoff(self, key: str, attempt: int) -> None:
        delay = self.backoff_delay(key, attempt)
        m = self._metrics
        if m is not None:
            m.retries.inc()
            m.backoff_seconds.inc(delay)
        self._sleep(delay)

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Deterministic capped-exponential backoff for one retry.

        Pure function of ``(seed, key, attempt)``: the jitter stream is
        an Lcg64 keyed on a stable hash of the cell key, so the same
        transient-failure schedule always produces the same delays
        (and, downstream, the same artifact).
        """
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        stream = Lcg64(self.seed).spawn(
            int.from_bytes(digest[:8], "big")
        ).spawn(attempt)
        base = min(
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
        )
        return base * (0.5 + 0.5 * stream.random())

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------

    def _journal_outcome(
        self,
        key: str,
        outcome: CellOutcome,
        encode: Optional[Callable[[Any], dict]],
    ) -> None:
        if self.journal is None:
            return
        if outcome.ok:
            cell = (
                encode(outcome.value)
                if encode is not None
                else outcome.value
            )
            payload = {
                "status": "ok",
                "attempts": outcome.attempts,
                "cell": cell,
            }
        else:
            assert outcome.failure is not None
            payload = {
                "status": "failed",
                "attempts": outcome.attempts,
                "failure": outcome.failure.to_dict(),
            }
        self.journal.record(key, payload)
        self._done[key] = payload

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
