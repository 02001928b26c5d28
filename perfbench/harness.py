"""Executions, correctness gates and metric assembly for ``run.py``.

One *execution* builds one shard's trace and server (the set-up phase:
trace generation, ``SystemBuilder.build`` with a cold ATMM tiling table,
and ``submit``), runs it, and checks exactly-once terminals.  A
``--trace 0`` run executes every shard once, for the simulated metrics,
then repeats shards until ``--seconds`` have passed, for the host
metrics; every repeat must reproduce its shard's simulated results
exactly.  Host timings are scaled by :func:`host_speed` probes taken
between executions.  A ``--trace 1`` run executes every shard twice,
untraced and traced (alternating which goes first), checks the two
agree exactly, and reports the per-layer metrics of the traced
executions.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import resource
import statistics
import time
from dataclasses import astuple, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.kernels.search import clear_table_cache
from repro.runtime import AbortReason, reset_request_ids

from perfbench import measures
from perfbench.scenarios import Scenario, shard_seed
from perfbench.spans import LAYER_NAMES, SpanTracer, installed

#: Host metrics: what running the simulator costs.
HOST_UNITS = {"sim_req_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
#: Simulated metrics: what the modelled serving system does.
SIM_UNITS = {
    "ttft_p50_s": "s", "ttft_p99_s": "s", "tpot_p50_s": "s",
    "tpot_p99_s": "s", "e2e_p99_s": "s", "avg_token_latency_ms": "ms",
    "slo_attain": "ratio", "gpu_s_per_req": "s", "fail_frac": "ratio",
}

#: Simulated per-layer counts: name -> unit.
SIM_COUNTS = {
    "sim.iterations_per_req": "count", "sim.batch_size_mean": "count",
    "sim.prefill_tokens_per_iter": "count",
    "sim.decode_tokens_per_iter": "count",
    "sim.mode_switches": "count", "sim.switch_s": "s",
    "sim.swap_ins": "count", "sim.swap_stall_s": "s",
    "sim.adapter_hit_ratio": "ratio", "sim.placement_spills": "count",
    "sim.placement_replications": "count", "sim.preemptions": "count",
    "sim.kv_stall_iters": "count", "sim.kv_transfers": "count",
    "sim.kv_transfer_s": "s", "sim.hedges_fired": "count",
    "sim.hedge_wins": "count", "sim.hedge_win_ratio": "ratio",
    "sim.fenced_completions": "count", "sim.suspicions": "count",
    "sim.false_suspicions": "count", "sim.replicas_spawned": "count",
    "sim.gpu_busy_frac": "ratio",
    **{f"sim.aborts.{r.value}": "count" for r in AbortReason},
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run produces, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_s_per_req"] = "s/req"
    units["costcache.hit_ratio"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    units.update(SIM_COUNTS)
    return units


#: Host-speed probe iterations per second on the reference host (see
#: :func:`host_speed`); host timings are reported in seconds of that host.
REFERENCE_SPEED = 1.0e6

#: Set-ups timed per ``--trace 0`` run at the least (``setup_s`` is
#: their median); shards set up again without running to reach it.
SETUP_SAMPLES = 15

#: Spans a traced run keeps for its Chrome trace, shared by its shards.
TRACE_SPANS = 40_000


class GateError(AssertionError):
    """A correctness gate failed."""


@dataclass
class Execution:
    shard: int
    setup_s: float
    run_s: float
    submitted: int
    records: list
    aborts: list
    metrics: object
    gpu_seconds: float
    digest: str
    tracer: Optional[SpanTracer] = None
    iterations: List = field(default_factory=list)
    #: Host speed around this execution, as a share of the reference.
    speed: float = 1.0


def host_speed(iterations: int = 50_000) -> float:
    """Speed of this host right now, as a share of the reference host.

    Times a fixed pure-Python probe (heap, dict and float work, none of
    it simulator code).  On a shared machine the speed a process gets
    drifts by tens of percent over seconds to minutes; scaling host
    timings by the probe measured next to them takes most of that drift
    out, while any change to the simulator still shows in full.
    """
    start = time.perf_counter()
    heap: List[Tuple[int, int]] = []
    counts: Dict[int, int] = {}
    acc = 0.0
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if len(heap) > 64:
            key, value = heapq.heappop(heap)
            acc += key * 0.5 + value
    return iterations / (time.perf_counter() - start) / REFERENCE_SPEED


def _digest(metrics, summary: Dict[str, float]) -> str:
    """Hash of every simulated outcome of one execution."""
    h = hashlib.sha256()
    h.update(repr([astuple(r) for r in metrics.records]).encode())
    h.update(repr([astuple(a) for a in metrics.aborts]).encode())
    h.update(repr(sorted(summary.items())).encode())
    return h.hexdigest()


def _fresh_setup(sc: Scenario, seed: int, shard: int, hook=None):
    """One shard's set-up phase from a cold process state: returns
    ``(server, requests, seconds)``."""
    clear_table_cache()
    reset_request_ids()
    t0 = time.perf_counter()
    server, requests = sc.setup(shard_seed(seed, shard), hook)
    server.submit(requests)
    return server, requests, time.perf_counter() - t0


def execute(sc: Scenario, seed: int, shard: int,
            traced: bool = False) -> Execution:
    """Set up and run one shard; raises :class:`GateError` on a violation."""
    tracer = None
    if traced:
        tracer = SpanTracer(f"{sc.name}/seed{seed}/shard{shard}",
                            keep=TRACE_SPANS // sc.shards)
    engine_tracers = []
    hook = None
    if traced:
        def hook(engine):
            engine_tracers.append(engine.attach_tracer())
    with installed(tracer) if traced else contextlib.nullcontext():
        server, requests, setup_s = _fresh_setup(sc, seed, shard, hook)
        t1 = time.perf_counter()
        metrics = server.run()
        run_s = time.perf_counter() - t1
        summary = metrics.summary()

    violations = measures.exactly_once_violations(
        (r.request_id for r in requests),
        (r.request_id for r in metrics.records),
        (a.request_id for a in metrics.aborts),
    )
    if any(violations.values()):
        raise GateError(f"{sc.name} shard {shard}: terminals not exactly "
                        f"once: {violations}")
    if metrics.num_completed + metrics.num_aborted != len(requests):
        raise GateError(
            f"{sc.name} shard {shard}: completed {metrics.num_completed} + "
            f"aborted {metrics.num_aborted} != submitted {len(requests)}")

    gpu_seconds = metrics.gpu_seconds_total
    if not gpu_seconds:
        ends = ([r.finish_time for r in metrics.records]
                + [a.abort_time for a in metrics.aborts])
        gpu_seconds = len(server.replicas) * max(ends, default=0.0)
    ex = Execution(
        shard=shard, setup_s=setup_s, run_s=run_s,
        submitted=len(requests), records=metrics.records,
        aborts=metrics.aborts, metrics=metrics, gpu_seconds=gpu_seconds,
        digest=_digest(metrics, summary), tracer=tracer,
        iterations=[e for t in engine_tracers for e in t.events],
    )
    if traced:
        inside = tracer.by_root.get("cluster.run", 0.0)
        if inside > ex.run_s:
            raise GateError(
                f"{sc.name} shard {shard}: layer self times under run() sum "
                f"to {inside:.6f} s, more than its wall time {ex.run_s:.6f} s")
    return ex


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serving(first_pass: List[Execution]
            ) -> Dict[str, Tuple[Optional[float], int]]:
    """Pooled simulated metrics of one pass over every shard."""
    records = [r for ex in first_pass for r in ex.records]
    return measures.serving_metrics(
        records,
        submitted=sum(ex.submitted for ex in first_pass),
        aborted=sum(len(ex.aborts) for ex in first_pass),
        gpu_seconds=sum(ex.gpu_seconds for ex in first_pass),
    )


def run_untraced(sc: Scenario, seed: int, seconds: float):
    """``--trace 0``: returns ``(first pass, executions, set-up samples,
    peak RSS)``, host timings scaled to the reference host.

    The host-speed probe runs before every execution and after the
    last; each execution is scaled by the mean of the probes around it.
    Repeats start only while one more typical execution still ends
    within ``seconds`` of the start, so a run overshoots by little.
    """
    start = time.perf_counter()
    executions: List[Execution] = []
    speed = host_speed()
    for shard in range(sc.shards):
        ex = execute(sc, seed, shard)
        after = host_speed()
        ex.speed, speed = (speed + after) / 2, after
        executions.append(ex)
    first = list(executions)
    typical = statistics.median(ex.setup_s + ex.run_s for ex in first)
    while time.perf_counter() + typical < start + seconds:
        shard = len(executions) % sc.shards
        ex = execute(sc, seed, shard)
        after = host_speed()
        if ex.digest != first[shard].digest:
            raise GateError(f"{sc.name} shard {shard}: a repeat of the same "
                            f"seed changed the simulated results")
        # Keep only the timings, so that the peak RSS does not depend on
        # how many repeats fit in the run.
        executions.append(replace(ex, records=[], aborts=[], metrics=None,
                                  speed=(speed + after) / 2))
        speed = after
    setups = [ex.setup_s * ex.speed for ex in executions]
    for i in range(SETUP_SAMPLES - len(setups)):
        setup_s = _fresh_setup(sc, seed, i % sc.shards)[2]
        after = host_speed()
        setups.append(setup_s * (speed + after) / 2)
        speed = after
    return first, executions, setups, _peak_rss_mib()


def host_metrics(executions: List[Execution], setups: List[float],
                 peak_rss: float) -> Dict[str, float]:
    """Terminal requests per second of ``run()`` over every execution and
    the median set-up time, both in reference-host seconds, and the
    process's peak RSS."""
    return {
        "sim_req_per_s": (sum(ex.submitted for ex in executions)
                          / sum(ex.run_s * ex.speed for ex in executions)),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss,
    }


def raw_host_metrics(executions: List[Execution]) -> Dict[str, float]:
    """Throughput in this host's own seconds, and the host's speed."""
    return {
        "raw_sim_req_per_s": (sum(ex.submitted for ex in executions)
                              / sum(ex.run_s for ex in executions)),
        "host_speed": statistics.median(ex.speed for ex in executions),
    }


def run_traced(sc: Scenario, seed: int):
    """``--trace 1``: returns ``(untraced pass, traced pass)``."""
    plain, traced = [], []
    for shard in range(sc.shards):
        if shard % 2:
            t = execute(sc, seed, shard, traced=True)
            p = execute(sc, seed, shard)
        else:
            p = execute(sc, seed, shard)
            t = execute(sc, seed, shard, traced=True)
        if t.digest != p.digest:
            raise GateError(f"{sc.name} shard {shard}: tracing changed the "
                            f"simulated results")
        plain.append(p)
        traced.append(t)
    return plain, traced


def layer_metrics(plain: List[Execution], traced: List[Execution]
                  ) -> Dict[str, Optional[float]]:
    """Per-layer metrics over one traced pass; None where undefined."""
    submitted = sum(ex.submitted for ex in traced)
    out: Dict[str, Optional[float]] = {}
    for layer in LAYER_NAMES:
        calls = sum(ex.tracer.stats.get(layer, (0, 0.0))[0] for ex in traced)
        self_s = sum(ex.tracer.stats.get(layer, (0, 0.0))[1] for ex in traced)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_s_per_req"] = self_s / submitted
    ms = [ex.metrics for ex in traced]
    lookups = sum(m.cost_cache_hits + m.cost_cache_misses for m in ms)
    out["costcache.hit_ratio"] = (
        sum(m.cost_cache_hits for m in ms) / lookups if lookups else None)
    out["trace_overhead_frac"] = (
        sum(ex.run_s for ex in traced) / sum(ex.run_s for ex in plain) - 1.0)

    iters = [e for ex in traced for e in ex.iterations]
    n_iter = len(iters)
    def total(attr):
        return sum(getattr(m, attr) for m in ms)

    adapter_lookups = (total("adapter_cache_hits")
                       + total("adapter_cache_misses"))
    fired = total("hedges_fired")
    gpu_seconds = sum(ex.gpu_seconds for ex in traced)
    out.update({
        "sim.iterations_per_req": total("iterations") / submitted,
        "sim.batch_size_mean": (
            sum(e.batch_size for e in iters) / n_iter if n_iter else None),
        "sim.prefill_tokens_per_iter": (
            sum(e.prefill_tokens for e in iters) / n_iter if n_iter else None),
        "sim.decode_tokens_per_iter": (
            sum(e.decode_tokens for e in iters) / n_iter if n_iter else None),
        "sim.mode_switches": total("num_mode_switches"),
        "sim.switch_s": total("switch_time_total"),
        "sim.swap_ins": total("swap_ins"),
        "sim.swap_stall_s": total("swap_in_seconds"),
        "sim.adapter_hit_ratio": (
            total("adapter_cache_hits") / adapter_lookups
            if adapter_lookups else None),
        "sim.placement_spills": total("placement_spills"),
        "sim.placement_replications": total("placement_replications"),
        "sim.preemptions": total("num_preemptions"),
        "sim.kv_stall_iters": total("kv_stall_iters"),
        "sim.kv_transfers": total("kv_transfers"),
        "sim.kv_transfer_s": total("kv_transfer_seconds"),
        "sim.hedges_fired": fired,
        "sim.hedge_wins": total("hedge_wins"),
        "sim.hedge_win_ratio": total("hedge_wins") / fired if fired else None,
        "sim.fenced_completions": total("fenced_completions"),
        "sim.suspicions": total("suspicions"),
        "sim.false_suspicions": total("false_suspicions"),
        "sim.replicas_spawned": total("replicas_spawned"),
        "sim.gpu_busy_frac": (
            sum(e.duration for e in iters) / gpu_seconds
            if gpu_seconds else None),
    })
    for reason in AbortReason:
        out[f"sim.aborts.{reason.value}"] = sum(
            m.abort_counts().get(reason.value, 0) for m in ms)
    return out
