"""Simulator scale-out bench: memoized engine + parallel sweeps.

Not a paper figure — this measures the simulator itself, in simulated
requests per wall-clock second, so the evaluation suite can scale to
million-request traces:

* **engine**: one 50k-request Azure-shaped retrieval trace (bursty
  arrivals at ~1.5x capacity, so the backlog deepens the way long
  traces do) served by the vectorized SoA core
  (:class:`~repro.runtime.soa_core.SoAServingEngine`), the current
  object engine (cost memoization + incremental queue/active-set
  state), and the pre-optimization seed snapshot
  (``_legacy_engine.SeedServingEngine``).  All must produce identical
  metrics to full float precision; at full scale the object engine
  must be >= 5x faster than the seed and the SoA core >= 10x.
* **sweep**: the Fig 14 retrieval grid (4 systems x 4 rates) run
  serially and with ``SweepRunner(parallel=4)``.  Cell metrics must be
  identical; the parallel run must be >= 3x faster.
* **engine_10m** (opt-in: ``--ten-million`` / ``BENCH_SIM_10M=1``): a
  10M-request Azure-shaped trace streamed through
  :meth:`AzureLLMTrace.event_blocks` into
  :meth:`SoAServingEngine.submit_arrays` with
  ``materialize_records=False`` — headline numbers come from
  :meth:`array_summary`, no per-request Python objects anywhere.

Results land in ``BENCH_sim_throughput.json`` at the repo root at full
scale, and in the git-ignored ``BENCH_sim_throughput.small.json`` below
it (plus ``results/sim_throughput.json`` when run under pytest).  Scale
knobs:

* script: ``python benchmarks/bench_sim_throughput.py [num_requests]``
  (default 50000 — the acceptance configuration, a few minutes of
  seed-engine wall clock);
* pytest / CI smoke: ``BENCH_SIM_REQUESTS`` env var (default 4000 so
  the suite stays quick); speedup floors are only asserted at full
  scale.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import bench_record_path
from _legacy_engine import SeedServingEngine

from repro.analysis.sweep import SweepRunner
from repro.core.builder import SystemBuilder
from repro.runtime.request import Request, reset_request_ids
from repro.runtime.soa_core import SoAServingEngine
from repro.workloads.retrieval import RetrievalWorkload

OUT_PATH = bench_record_path("sim_throughput", full_scale=True)

FULL_SCALE_REQUESTS = 50_000
#: ~1.5x the 8-adapter v-lora capacity (~8 rps): the backlog grows for
#: the whole arrival window, which is what makes long traces expensive.
ENGINE_RATE_RPS = 12.0
SWEEP_RATES = (2.0, 6.0, 10.0, 14.0)
SWEEP_SYSTEMS = ("v-lora", "s-lora", "punica", "dlora")
SWEEP_DURATION_S = 40.0
SWEEP_PARALLEL = 4
SEED = 14


def _comparable_summary(metrics) -> Dict[str, float]:
    """Metrics summary minus the cache's own observability counters."""
    summary = metrics.summary()
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    return summary


def _generate_trace(builder: SystemBuilder, num_requests: int,
                    ) -> List[Request]:
    """A deterministic Azure-shaped trace of exactly ``num_requests``."""
    duration_s = num_requests / ENGINE_RATE_RPS * 1.1
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=ENGINE_RATE_RPS,
        duration_s=duration_s, use_task_heads=True, seed=SEED,
    ).generate()
    if len(requests) < num_requests:
        raise RuntimeError(
            f"trace too short: {len(requests)} < {num_requests}"
        )
    return requests[:num_requests]


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_engine(num_requests: int, engine_cls,
                ) -> Tuple[float, Dict[str, float], float]:
    """(wall seconds, comparable summary, peak RSS MiB) for one variant."""
    builder = SystemBuilder(num_adapters=8)
    requests = _generate_trace(builder, num_requests)
    engine = builder.build("v-lora", engine_cls=engine_cls)
    engine.submit(requests)
    start = time.perf_counter()
    metrics = engine.run()
    wall = time.perf_counter() - start
    return wall, _comparable_summary(metrics), _peak_rss_mb()


def run_engine_bench(num_requests: int) -> Dict[str, object]:
    # The SoA leg runs first so its recorded peak RSS is its own —
    # ru_maxrss is a process-lifetime high-water mark, so later legs
    # report max(own footprint, everything before them).
    variants = {
        "soa": SoAServingEngine,
        "optimized": None,
        "seed": SeedServingEngine,
    }
    walls: Dict[str, float] = {}
    summaries: Dict[str, Dict[str, float]] = {}
    rss: Dict[str, float] = {}
    for name, engine_cls in variants.items():
        walls[name], summaries[name], rss[name] = _run_engine(
            num_requests, engine_cls)
    for name in ("soa", "seed"):
        if summaries[name] != summaries["optimized"]:
            diff = {
                k: (summaries["optimized"].get(k), summaries[name].get(k))
                for k in set(summaries["optimized"]) | set(summaries[name])
                if summaries["optimized"].get(k) != summaries[name].get(k)
            }
            raise AssertionError(
                f"metrics diverged between optimized and {name}: {diff}"
            )
    return {
        "num_requests": num_requests,
        "rate_rps": ENGINE_RATE_RPS,
        "wall_seconds": {k: round(v, 3) for k, v in walls.items()},
        "sim_requests_per_sec": {
            k: round(num_requests / v, 1) for k, v in walls.items()
        },
        "peak_rss_mb": {k: round(v, 1) for k, v in rss.items()},
        "speedup_vs_seed": {
            "optimized": round(walls["seed"] / walls["optimized"], 2),
            "soa": round(walls["seed"] / walls["soa"], 2),
        },
        "metrics_identical": True,
        "completed": summaries["optimized"]["completed"],
    }


def _sweep_factory(builder: SystemBuilder, duration_s: float):
    def factory(rate: float, system: str) -> List[Request]:
        return RetrievalWorkload(
            builder.adapter_ids, rate_rps=float(rate),
            duration_s=duration_s,
            use_task_heads=(system == "v-lora"), seed=SEED,
        ).generate()
    return factory


def _sweep_cells(result) -> List[Tuple[object, str, Dict[str, float]]]:
    return [(c.axis_value, c.system, _comparable_summary(c.metrics))
            for c in result.cells]


def run_sweep_bench(duration_s: float = SWEEP_DURATION_S,
                    ) -> Dict[str, object]:
    builder = SystemBuilder(num_adapters=8)
    runner = SweepRunner(builder, systems=SWEEP_SYSTEMS)
    factory = _sweep_factory(builder, duration_s)

    reset_request_ids()
    start = time.perf_counter()
    serial = runner.run("rate_rps", SWEEP_RATES, factory)
    serial_wall = time.perf_counter() - start

    reset_request_ids()
    start = time.perf_counter()
    parallel = runner.run("rate_rps", SWEEP_RATES, factory,
                          parallel=SWEEP_PARALLEL)
    parallel_wall = time.perf_counter() - start

    if _sweep_cells(serial) != _sweep_cells(parallel):
        raise AssertionError("parallel sweep diverged from serial sweep")
    mode = parallel.metadata.get("mode")
    payload = {
        "cells": len(serial.cells),
        "systems": list(SWEEP_SYSTEMS),
        "rates": list(SWEEP_RATES),
        "duration_s": duration_s,
        "parallel": SWEEP_PARALLEL,
        "wall_seconds": {
            "serial": round(serial_wall, 3),
            "parallel": round(parallel_wall, 3),
        },
        "cells_identical": True,
        # What the parallel=N request actually did (the runner
        # auto-degrades to serial on single-CPU hosts / tiny grids).
        "mode": mode,
        "degrade_reason": parallel.metadata.get("degrade_reason"),
    }
    # A serial-degraded "parallel" run is two serial runs; the ratio is
    # timing noise, not a speedup — don't report one.
    if mode == "parallel":
        payload["speedup"] = round(serial_wall / parallel_wall, 2)
    return payload


def run_ten_million_bench(num_requests: int = 10_000_000,
                          ) -> Dict[str, object]:
    """Stream a 10M-request Azure-shaped trace through the SoA core.

    No ``Request`` objects and no per-request records exist at any
    point: arrivals stream in as numpy blocks and results come out of
    :meth:`array_summary`.  Single-variant — the object core would take
    hours at this scale; the point is the recorded wall time.
    """
    import numpy as np

    from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator

    builder = SystemBuilder(num_adapters=8)
    engine = builder.build("v-lora", core="soa")
    engine.materialize_records = False
    trace = AzureTraceGenerator(AzureTraceConfig(
        rate_rps=ENGINE_RATE_RPS, seed=SEED))
    num_adapters = len(builder.adapter_ids)
    rng = np.random.default_rng(SEED)
    submit_wall = time.perf_counter()
    for block in trace.event_blocks(num_requests):
        n = block["arrival"].size
        engine.submit_arrays(
            rng.integers(0, num_adapters, size=n),
            block["arrival"],
            block["input_tokens"],
            # Task-head traffic (one decode round each) keeps the
            # workload classification-shaped, like the paper's vision
            # tasks; the trace's output lengths would make this a
            # multi-hour generation bench instead.
            np.ones(n, dtype=np.int64),
            use_task_head=True,
        )
    submit_wall = time.perf_counter() - submit_wall
    start = time.perf_counter()
    # ~0.76 engine iterations per request at this load; the default
    # 2M-iteration runaway guard is sized for 50k-request traces.
    engine.run(max_iterations=30_000_000)
    wall = time.perf_counter() - start
    summary = engine.array_summary()
    return {
        "num_requests": num_requests,
        "rate_rps": ENGINE_RATE_RPS,
        "submit_wall_seconds": round(submit_wall, 3),
        "run_wall_seconds": round(wall, 3),
        "sim_requests_per_sec": round(num_requests / wall, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "completed": summary["completed"],
        "aborted": summary["aborted"],
        "iterations": summary["iterations"],
    }


def run_bench(num_requests: int,
              ten_million: bool = False) -> Dict[str, object]:
    full_scale = num_requests >= FULL_SCALE_REQUESTS
    # The parallel sweep only expresses a wall-clock win when the host
    # actually has cores to fan out over; the cell-for-cell identity
    # check holds regardless.
    cpu_count = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)
    payload = {
        "bench": "sim_throughput",
        "full_scale": full_scale,
        "cpu_count": cpu_count,
        "engine": run_engine_bench(num_requests),
        "sweep": run_sweep_bench(
            duration_s=150.0 if full_scale else SWEEP_DURATION_S
        ),
    }
    out_path = bench_record_path("sim_throughput", full_scale)
    if ten_million:
        payload["engine_10m"] = run_ten_million_bench()
    elif full_scale and OUT_PATH.exists():
        # Keep the last recorded 10M leg: it's opt-in (tens of minutes)
        # and dropping it on every small rerun would lose the record.
        try:
            prior = json.loads(OUT_PATH.read_text())
            if "engine_10m" in prior:
                payload["engine_10m"] = prior["engine_10m"]
        except (ValueError, OSError):
            pass
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _print_payload(payload: Dict[str, object]) -> None:
    engine = payload["engine"]
    sweep = payload["sweep"]
    print(f"engine trace: {engine['num_requests']} requests @ "
          f"{engine['rate_rps']} rps")
    for name, wall in engine["wall_seconds"].items():
        rps = engine["sim_requests_per_sec"][name]
        mb = engine["peak_rss_mb"][name]
        print(f"  {name:<16} {wall:>8.2f}s  {rps:>9.1f} sim req/s"
              f"  (rss <= {mb:.0f} MiB)")
    speedups = engine["speedup_vs_seed"]
    print(f"  speedup vs seed: soa {speedups['soa']}x, "
          f"optimized {speedups['optimized']}x "
          f"(metrics identical: {engine['metrics_identical']})")
    print(f"sweep grid: {sweep['cells']} cells, parallel={sweep['parallel']} "
          f"(mode: {sweep['mode']})")
    print(f"  serial   {sweep['wall_seconds']['serial']:>8.2f}s")
    print(f"  parallel {sweep['wall_seconds']['parallel']:>8.2f}s")
    if "speedup" in sweep:
        print(f"  speedup: {sweep['speedup']}x "
              f"(cells identical: {sweep['cells_identical']})")
    else:
        print(f"  (serial-degraded: no speedup reported; "
              f"cells identical: {sweep['cells_identical']})")
    ten = payload.get("engine_10m")
    if ten:
        print(f"10M-request SoA leg: {ten['run_wall_seconds']:.1f}s run "
              f"(+{ten['submit_wall_seconds']:.1f}s submit), "
              f"{ten['sim_requests_per_sec']:.0f} sim req/s, "
              f"rss <= {ten['peak_rss_mb']:.0f} MiB")
    out_path = bench_record_path("sim_throughput", payload["full_scale"])
    print(f"wrote {out_path}")


def _assert_floors(payload: Dict[str, object]) -> None:
    speedups = payload["engine"]["speedup_vs_seed"]
    sweep_speedup = payload["sweep"].get("speedup")
    if not payload["full_scale"]:
        print(f"(small trace: speedup floors not asserted; "
              f"engine {speedups}, sweep {sweep_speedup})")
        return
    assert speedups["optimized"] >= 5.0, (
        f"object-engine speedup {speedups['optimized']}x below the 5x floor"
    )
    assert speedups["soa"] >= 10.0, (
        f"SoA-engine speedup {speedups['soa']}x below the 10x floor"
    )
    if payload["cpu_count"] >= SWEEP_PARALLEL:
        assert payload["sweep"]["mode"] == "parallel", (
            "sweep degraded to serial on a multi-core host"
        )
        assert sweep_speedup >= 3.0, (
            f"sweep speedup {sweep_speedup}x below the 3x floor"
        )
    else:
        print(f"(only {payload['cpu_count']} CPU(s): the 3x parallel-sweep "
              f"floor needs >= {SWEEP_PARALLEL} cores; "
              f"identity still asserted)")


def test_sim_throughput(benchmark, results):
    num_requests = int(os.environ.get("BENCH_SIM_REQUESTS", "4000"))
    payload = run_bench(
        num_requests, ten_million=bool(os.environ.get("BENCH_SIM_10M")))
    _print_payload(payload)
    _assert_floors(payload)
    results.print_table(
        "Simulator throughput (sim requests / wall second)",
        ["variant", "wall (s)", "sim req/s"],
        [[name, payload["engine"]["wall_seconds"][name],
          payload["engine"]["sim_requests_per_sec"][name]]
         for name in ("soa", "optimized", "seed")],
    )
    results.save("sim_throughput", payload)

    def one_iteration():
        builder = SystemBuilder(num_adapters=4)
        engine = builder.build("v-lora")
        wl = RetrievalWorkload(builder.adapter_ids, rate_rps=4.0,
                               duration_s=1.0, seed=0)
        engine.submit(wl.generate())
        engine.step()

    benchmark.pedantic(one_iteration, rounds=3, iterations=1)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ten_million = "--ten-million" in argv
    if ten_million:
        argv.remove("--ten-million")
    if os.environ.get("BENCH_SIM_10M"):
        ten_million = True
    num_requests = int(argv[0]) if argv else FULL_SCALE_REQUESTS
    payload = run_bench(num_requests, ten_million=ten_million)
    _print_payload(payload)
    _assert_floors(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
