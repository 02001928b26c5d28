"""The benchmark's own arithmetic, kept free of the simulator.

Every function here works on plain records and spans, so the tests in
``perfbench/tests`` can check it with synthetic inputs:

* serving metrics over completion records (TTFT, TPOT, end-to-end
  percentiles with their sample counts, the paper's average token
  latency, joint-SLO attainment, GPU-seconds per request);
* the exactly-once check on terminal request ids;
* self time of traced spans (span duration minus the union of its
  children's intervals);
* the run-to-run spread the benchmark is judged by.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Joint SLO of ``slo_attain``: first token within 1 s and at most 50 ms
#: per output token after it.
TTFT_SLO_S = 1.0
TPOT_SLO_S = 0.050


def percentile(values: Sequence[float],
               q: float) -> Tuple[Optional[float], int]:
    """``(q-th percentile, sample count)``; the value is None when empty.

    Linear interpolation (numpy's default), the same rule the simulator's
    own summaries use.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    n = len(values)
    if n == 0:
        return None, 0
    return float(np.percentile(values, q)), n


def tpot(record) -> Optional[float]:
    """Seconds per output token after the first; None for one-token outputs."""
    if record.output_tokens < 2:
        return None
    return ((record.finish_time - record.first_token_time)
            / (record.output_tokens - 1))


def tpot_samples(records: Iterable) -> List[float]:
    """TPOT of every multi-token record."""
    out = []
    for r in records:
        t = tpot(r)
        if t is not None:
            out.append(t)
    return out


def meets_joint_slo(record, ttft_slo_s: float = TTFT_SLO_S,
                    tpot_slo_s: float = TPOT_SLO_S) -> bool:
    """TTFT within its limit and, for multi-token outputs, TPOT too."""
    if record.first_token_time - record.arrival_time > ttft_slo_s:
        return False
    t = tpot(record)
    return t is None or t <= tpot_slo_s


def slo_attainment(records: Sequence, submitted: int,
                   ttft_slo_s: float = TTFT_SLO_S,
                   tpot_slo_s: float = TPOT_SLO_S) -> Optional[float]:
    """Share of *submitted* requests that completed within the joint SLO.

    The denominator is every submitted request, so aborted (and lost)
    requests count as misses.  None when nothing was submitted.
    """
    if submitted <= 0:
        return None
    met = sum(1 for r in records if meets_joint_slo(r, ttft_slo_s, tpot_slo_s))
    return met / submitted


def exactly_once_violations(submitted_ids: Iterable[int],
                            completed_ids: Iterable[int],
                            aborted_ids: Iterable[int]) -> Dict[str, int]:
    """Counts of terminal-accounting violations (all zero when correct).

    ``duplicates``: a request id with more than one terminal (completed
    twice, aborted twice, or both); ``missing``: a submitted id with no
    terminal; ``unknown``: a terminal for an id never submitted.
    """
    submitted = set(submitted_ids)
    completed = list(completed_ids)
    aborted = list(aborted_ids)
    terminal = completed + aborted
    seen = set(terminal)
    return {
        "duplicates": len(terminal) - len(seen),
        "missing": len(submitted - seen),
        "unknown": len(seen - submitted),
    }


def serving_metrics(records: Sequence, submitted: int, aborted: int,
                    gpu_seconds: float
                    ) -> Dict[str, Tuple[Optional[float], int]]:
    """The simulated end-to-end metrics as ``name -> (value, samples)``.

    ``records`` are completion records (``arrival_time``,
    ``first_token_time``, ``finish_time``, ``input_tokens``,
    ``output_tokens``); ``gpu_seconds`` is the provisioned replica-time
    of the runs they came from.  A value is None where it is undefined:
    TPOT without multi-token outputs, latencies without completions.
    """
    ttfts = [r.first_token_time - r.arrival_time for r in records]
    e2e = [r.finish_time - r.arrival_time for r in records]
    tpots = tpot_samples(records)
    n = len(records)
    tokens = sum(r.input_tokens + r.output_tokens for r in records)
    return {
        "ttft_p50_s": percentile(ttfts, 50.0),
        "ttft_p99_s": percentile(ttfts, 99.0),
        "tpot_p50_s": percentile(tpots, 50.0),
        "tpot_p99_s": percentile(tpots, 99.0),
        "e2e_p99_s": percentile(e2e, 99.0),
        "avg_token_latency_ms": (
            sum(e2e) / tokens * 1e3 if tokens else None, n),
        "slo_attain": (slo_attainment(records, submitted), submitted),
        "gpu_s_per_req": (gpu_seconds / n if n else None, n),
        "fail_frac": (aborted / submitted if submitted else None, submitted),
    }


# -- spans ---------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval, and overlapping
    children are counted once.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - covered((s, e) for s, e in clipped if e > s)


def self_times(spans: Sequence[Tuple[int, Optional[int], str, float, float]]
               ) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, self seconds)`` of spans given as
    ``(id, parent id or None, name, start, end)``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Tuple[int, float]] = {}
    for span_id, _, name, start, end in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1,
                     total + self_time(start, end, children.get(span_id, ())))
    return out


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median: the run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(statistics.median(values))
