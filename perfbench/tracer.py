"""In-memory span tracer used by the benchmark's traced runs.

Spans are recorded from the benchmark's own files, by wrapping the
public calls into each layer of ``repro`` (module attributes and class
methods are swapped for timing wrappers while a traced pass runs and
restored afterwards).  Nothing under ``src/`` is modified.

A span is ``(id, parent, name, layer, start, end, thread)``; the parent
is the innermost open span on the same thread.  Times come from
``time.monotonic`` -- CLOCK_MONOTONIC on Linux, which is system-wide --
so spans recorded in the server process line up with the load
generator's.

A layer's self time is the sum, over its spans, of each span's duration
minus the part of that interval covered by its child spans.  Every
traced pass runs under one root span per round or request of layer
``bench``, so the ``bench`` self time is the wall time no layer claims
(reported as ``bench.uncovered_frac``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: layer names in table order; ``bench`` is the harness itself
LAYERS = (
    "synth", "sim", "trace", "analysis", "stats", "archive", "service",
    "bench",
)


class Tracer:
    """Collects spans in memory; installs and removes layer wrappers."""

    def __init__(self, id_offset: int = 0) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(id_offset + 1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **args):
        """Record one span around the ``with`` body; yields its args."""
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "layer": layer,
            "tid": threading.get_ident(),
            "args": args,
        }
        stack.append(record["id"])
        record["start"] = time.monotonic()
        try:
            yield args
        finally:
            record["end"] = time.monotonic()
            stack.pop()
            self.spans.append(record)

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        layer: str,
        note: Optional[Callable] = None,
        materialize: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` (module function or class method).

        ``note(args, call_args, call_kwargs, result)`` may add counts to
        the span; ``materialize`` turns an iterable result into a list
        inside the span, so lazy work is timed where it happens.
        A missing attribute raises: a call site that moved must fail
        the traced run, not silently lose its spans.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*a, **k):
            with tracer.span(name, layer) as args:
                result = original(*a, **k)
                if materialize:
                    result = list(result)
                if note is not None:
                    note(args, a, k, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _dispatches(args, call_args, call_kwargs, result) -> None:
    world = getattr(result, "world", None)
    sim = getattr(world, "sim", None)
    args["dispatches"] = getattr(sim, "dispatch_count", 0)
    args["events"] = len(result.events)


def _findings(args, call_args, call_kwargs, result) -> None:
    args["findings"] = len(result)


def _stats_rows(args, call_args, call_kwargs, result) -> None:
    index = call_args[1] if len(call_args) > 1 else call_kwargs["index"]
    args["findings"] = len(result)
    args["rows"] = len(index.locations)


def _encoded_bytes(args, call_args, call_kwargs, result) -> None:
    args["bytes"] = len(result)


def _written_bytes(args, call_args, call_kwargs, result) -> None:
    path = Path(call_args[0] if call_args else call_kwargs["path"])
    args["bytes"] = path.stat().st_size


def _salvaged(args, call_args, call_kwargs, result) -> None:
    events, metadata = result
    args["salvaged"] = int(bool(metadata.get("truncated")))


def _detect_owners(detectors) -> list:
    """The classes that define ``detect`` for a battery, each once."""
    owners = {
        next(c for c in type(d).__mro__ if "detect" in vars(c))
        for d in detectors
    }
    return sorted(owners, key=lambda c: c.__name__)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer (see README layer table)."""
    import repro.archive.api as archive_api
    import repro.archive.cache as archive_cache
    import repro.service.server as service_server
    import repro.synth.campaign as campaign
    from repro.analysis import DEFAULT_DETECTORS
    from repro.archive import Archive
    from repro.core.registry import PropertySpec
    from repro.stats import STATISTICAL_DETECTORS
    from repro.synth import Scenario

    # synth: scenario generation, program/manifest derivation, grading
    tracer.patch(campaign, "generate_scenarios", "generate", "synth")
    tracer.patch(Scenario, "build_spec", "build_spec", "synth")
    tracer.patch(Scenario, "manifest", "manifest", "synth")
    tracer.patch(campaign, "_build_cell", "grade", "synth")
    # sim: one simulated program run
    tracer.patch(PropertySpec, "run", "run", "sim", note=_dispatches)
    # trace: fault-injecting writer, salvaging reader, archive codec
    tracer.patch(campaign, "write_trace", "write", "trace",
                 note=_written_bytes)
    tracer.patch(campaign, "read_trace", "read", "trace", note=_salvaged)
    tracer.patch(archive_api, "events_to_jsonl", "encode", "trace",
                 note=_encoded_bytes)
    tracer.patch(archive_cache, "events_from_jsonl", "decode", "trace")
    # analysis: the analyzer entry points, the index, rule detectors
    tracer.patch(campaign, "analyze_run", "analyze_run", "analysis")
    tracer.patch(campaign, "analyze_events", "analyze_events", "analysis")
    tracer.patch(archive_cache, "TraceIndex", "index", "analysis")
    for cls in _detect_owners(DEFAULT_DETECTORS):
        tracer.patch(cls, "detect", cls.__name__, "analysis",
                     materialize=True, note=_findings)
    # stats: the statistical detector battery
    for cls in _detect_owners(STATISTICAL_DETECTORS):
        tracer.patch(cls, "detect", cls.__name__, "stats",
                     materialize=True, note=_stats_rows)
    # archive: recording runs and the incremental analysis cache
    tracer.patch(Archive, "record", "record", "archive")
    tracer.patch(Archive, "archive_run", "archive_run", "archive")
    tracer.patch(archive_cache, "analyze_archived", "analyze_archived",
                 "archive")
    # service: job execution on the pooled workers
    original_submit = service_server.submit_host_task

    def submit_host_task(fn, on_done):
        def traced():
            with tracer.span("execute", "service"):
                return fn()
        return original_submit(traced, on_done)

    service_server.submit_host_task = submit_host_task
    tracer._patches.append(
        (service_server, "submit_host_task", original_submit, True)
    )


# ----------------------------------------------------------------------
# analysis of recorded spans
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def annotate_self_times(spans: List[dict]) -> None:
    """Set ``span["self"]``: duration minus child-covered time."""
    children: Dict[object, list] = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    for s in spans:
        kids = children.get(s["id"], ())
        covered = _covered(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in kids
            if c["end"] > s["start"] and c["start"] < s["end"]
        )
        s["self"] = max(0.0, (s["end"] - s["start"]) - covered)


def layer_summary(spans: List[dict]) -> Dict[str, dict]:
    """Per layer: span count, self seconds, summed span args."""
    out = {
        layer: {"spans": 0, "self_s": 0.0, "counts": defaultdict(int)}
        for layer in LAYERS
    }
    for s in spans:
        row = out[s["layer"]]
        row["spans"] += 1
        row["self_s"] += s["self"]
        for key, value in s["args"].items():
            if isinstance(value, (int, float)):
                row["counts"][key] += value
    return out


def busy_seconds(spans: List[dict], layer: str, name: str) -> float:
    """Summed duration of the named spans of a layer."""
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["layer"] == layer and s["name"] == name
    )


def format_table(summary: Dict[str, dict], wall: float) -> str:
    """Per-layer self-time table; the largest non-bench layer is named."""
    lines = [
        f"{'layer':<10} {'spans':>8} {'self_s':>10} {'share':>7}",
    ]
    for layer in LAYERS:
        row = summary[layer]
        share = row["self_s"] / wall if wall else 0.0
        lines.append(
            f"{layer:<10} {row['spans']:>8} {row['self_s']:>10.4f} "
            f"{share:>7.1%}"
        )
    total = sum(row["self_s"] for row in summary.values())
    lines.append(f"{'total':<10} {'':>8} {total:>10.4f} "
                 f"{(total / wall if wall else 0.0):>7.1%}")
    lines.append(f"traced wall {wall:.4f} s; largest self-time layer: "
                 f"{largest_layer(summary)}")
    return "\n".join(lines) + "\n"


def largest_layer(summary: Dict[str, dict]) -> str:
    return max(
        (layer for layer in LAYERS if layer != "bench"),
        key=lambda layer: summary[layer]["self_s"],
    )


def chrome_trace(span_sets: Dict[int, List[dict]]) -> str:
    """Chrome-trace JSON (``ph: X`` events), one pid per process."""
    t0 = min(
        (s["start"] for spans in span_sets.values() for s in spans),
        default=0.0,
    )
    events = []
    for pid, spans in sorted(span_sets.items()):
        for s in sorted(spans, key=lambda s: s["start"]):
            events.append({
                "name": f"{s['layer']}.{s['name']}",
                "cat": s["layer"],
                "ph": "X",
                "ts": round((s["start"] - t0) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "pid": pid,
                "tid": s["tid"],
                "args": s["args"],
            })
    return json.dumps({"traceEvents": events}) + "\n"
