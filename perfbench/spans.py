"""Layer spans for the traced run, recorded from the benchmark's side.

:func:`installed` wraps the public entry points of each simulator layer
(the ``LAYERS`` table) for the duration of one traced execution and
restores them afterwards, so the untraced runs execute the program
untouched.  Each wrapped call is a span: name, start, end and the span
that was open when it began.  A :class:`SpanTracer` folds every span
into per-layer call counts and self time as it closes, and keeps the
first ``keep`` spans in memory for :func:`write_chrome_trace`.

A call into a layer from inside the same layer (a wrapping policy
calling its base policy, an executor calling its base ``advance``) is
part of the outer span, not a span of its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.measures import self_time

_EXECUTOR_METHODS = ("select", "plan", "signature_fields", "cost_seconds",
                     "accumulate_tokens", "advance")

#: ``(layer, module, class or None for a module function, attributes)``.
#: ``kernels.default_table`` is wrapped where the ATMM operator looks it up.
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("workloads.generate", "repro.workloads.retrieval", "RetrievalWorkload",
     ("generate",)),
    ("core.build", "repro.core.builder", "SystemBuilder", ("build",)),
    ("kernels.default_table", "repro.kernels.atmm", None, ("default_table",)),
    ("cluster.run", "repro.runtime.cluster", "MultiGPUServer", ("run",)),
    ("engine.step", "repro.runtime.engine", "ServingEngine", ("step",)),
    ("engine.prefill", "repro.runtime.engine", "PrefillExecutor",
     _EXECUTOR_METHODS),
    ("engine.decode", "repro.runtime.engine", "DecodeExecutor",
     _EXECUTOR_METHODS),
    ("scheduler.schedule", "repro.runtime.scheduler", "VLoRAPolicy",
     ("schedule",)),
    ("scheduler.schedule", "repro.runtime.disagg", "PhasePinnedPolicy",
     ("schedule",)),
    ("kv.append_token", "repro.runtime.kv_cache", "PagedKVCache",
     ("append_token",)),
    ("kv.allocate", "repro.runtime.kv_cache", "PagedKVCache", ("allocate",)),
    ("kv.free", "repro.runtime.kv_cache", "PagedKVCache", ("free",)),
    ("costcache.lookup", "repro.runtime.costcache", "IterationCostCache",
     ("lookup",)),
    ("costcache.transfer", "repro.runtime.costcache", "TransferCostCache",
     ("seconds",)),
    ("adapters.try_ensure_resident", "repro.runtime.adapters",
     "AdapterManager", ("try_ensure_resident",)),
    ("adapters.resident_ids", "repro.runtime.adapters", "AdapterManager",
     ("resident_ids",)),
    ("placement.decide", "repro.runtime.placement", "AdapterPlacement",
     ("decide",)),
    ("placement.rebalance", "repro.runtime.placement", "AdapterPlacement",
     ("rebalance",)),
    ("placement.refresh_from_engines", "repro.runtime.placement",
     "AdapterPlacement", ("refresh_from_engines",)),
    ("detector.evaluate", "repro.runtime.failure_detection",
     "FailureDetector", ("evaluate",)),
    ("hedge.observe", "repro.runtime.hedging", "HedgeTracker", ("observe",)),
    ("hedge.threshold", "repro.runtime.hedging", "HedgeTracker",
     ("threshold",)),
    ("retry_budget.try_spend", "repro.runtime.hedging", "RetryBudget",
     ("try_spend",)),
    ("metrics.complete", "repro.runtime.metrics", "MetricsCollector",
     ("complete",)),
    ("metrics.merge_from", "repro.runtime.metrics", "MetricsCollector",
     ("merge_from",)),
    ("metrics.summary", "repro.runtime.metrics", "MetricsCollector",
     ("summary",)),
)

#: Layer names in table order, each once.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYERS))


class SpanTracer:
    """Per-layer calls and self time of one traced execution."""

    def __init__(self, run_id: str, keep: int = 10_000):
        self.run_id = run_id
        self.keep = keep
        #: layer -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: root layer -> self seconds of every span under it (itself too).
        self.by_root: Dict[str, float] = {}
        #: Kept spans: ``(id, parent id or None, layer, start, end)``.
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.origin = time.perf_counter()
        self._stack: List[list] = []
        self._next_id = 0

    def wrap(self, layer: str, fn):
        """``fn`` recording one span per call that enters ``layer``."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, self._next_id, clock(), None]
            self._next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, clock())

        return traced

    def _close(self, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        layer, span_id, start, children = frame
        own = end - start if children is None else self_time(start, end,
                                                             children)
        stat = self.stats.get(layer)
        if stat is None:
            self.stats[layer] = [1, own]
        else:
            stat[0] += 1
            stat[1] += own
        if stack:
            parent = stack[-1]
            if parent[3] is None:
                parent[3] = []
            parent[3].append((start, end))
            parent_id, root = parent[1], stack[0][0]
        else:
            parent_id, root = None, layer
        self.by_root[root] = self.by_root.get(root, 0.0) + own
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent_id, layer, start, end))


@contextlib.contextmanager
def installed(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Wrap every ``LAYERS`` entry point with ``tracer``; restore on exit."""
    saved = []
    try:
        for layer, module, cls, attrs in LAYERS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            for attr in attrs:
                own = vars(owner).get(attr)
                original = own if own is not None else getattr(owner, attr)
                if isinstance(original, property):
                    wrapped = property(tracer.wrap(layer, original.fget))
                else:
                    wrapped = tracer.wrap(layer, original)
                saved.append((owner, attr, own))
                setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, own in reversed(saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def write_chrome_trace(path, tracers: Sequence[SpanTracer]) -> int:
    """Write the kept spans as Chrome trace-event JSON; returns the count.

    One row (``tid``) per traced execution; ``args`` carry the span id,
    its parent and the execution's run id.
    """
    events = []
    for tid, tracer in enumerate(tracers):
        for span_id, parent, layer, start, end in tracer.spans:
            events.append({
                "name": layer,
                "cat": layer.split(".", 1)[0],
                "ph": "X",
                "ts": (start - tracer.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"span": span_id, "parent": parent,
                         "run": tracer.run_id},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
