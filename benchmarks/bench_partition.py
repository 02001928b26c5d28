"""Gray-failure detection — the φ frontier under partition storms.

The φ-accrual detector trades **detection latency** against **duplicate
work**: a low ``phi_confirm`` seizes a silent replica's lease quickly
(real deaths detected fast) but confirms transient partitions as dead —
their in-flight work is re-dispatched and the partitioned replica's
late results arrive as fenced duplicates.  A high ``phi_confirm`` waits
out the partitions but leaves a truly dead replica's work stranded for
seconds.

This bench drives one fixed storm — two transient partitions, one
heartbeat-loss window, and one true engine death — through the same
3-replica cluster at several ``phi_confirm`` thresholds and charts the
frontier: confirmed-death latency vs fenced (zombie) completions and
false suspicions.  At every point on the frontier the lease fence must
hold **exactly-once delivery**: no request may ever reach two terminal
states, no matter how aggressively the detector confirms.

Standalone mode (``python benchmarks/bench_partition.py [--small]``)
writes ``BENCH_partition.json`` (``BENCH_partition.small.json`` under
``--small``) and exits non-zero when any swept threshold produces a
duplicate terminal or the frontier inverts (CI chaos smoke).
"""

from _common import ResultSink  # noqa: F401  (fixture lives in conftest)
from _common import bench_record_path

from repro.core import SystemBuilder
from repro.runtime import (
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
    reset_request_ids,
)
from repro.workloads import RetrievalWorkload

ADAPTERS = 4
RATE_RPS = 16.0
DURATION_S = 6.0
NUM_GPUS = 3
NUM_HOSTS = 2
SEED = 0

#: Swept confirmation thresholds (the frontier's x-axis).  8.0 is the
#: runtime default; ``phi_suspect`` stays strictly below each point.
PHI_CONFIRMS = (2.0, 4.0, 8.0)
DEFAULT_PHI_CONFIRM = 8.0


def _storm(scale=1.0):
    """One fixed gray-failure storm (times scale with the workload).

    gpu-1 partitions long enough that aggressive thresholds confirm it
    dead while it keeps computing (zombie replay); gpu-2's partition is
    short (false suspicion that heals); gpu-0 drops heartbeats for a
    while (monitoring-path loss only) and then *actually* dies — the
    one event whose detection latency the frontier measures.
    """
    return FaultInjector([
        FaultSpec(FaultKind.NETWORK_PARTITION, 1.0 * scale, 2.5 * scale,
                  target="gpu-1"),
        FaultSpec(FaultKind.NETWORK_PARTITION, 4.0 * scale, 0.8 * scale,
                  target="gpu-2"),
        FaultSpec(FaultKind.HEARTBEAT_LOSS, 2.0 * scale, 1.0 * scale,
                  target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, 5.0 * scale, target="gpu-0"),
    ])


def _workload(scale=1.0, seed=SEED):
    return RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
        rate_rps=RATE_RPS,
        duration_s=DURATION_S * scale,
        use_task_heads=False,
        slo_s=None,
        seed=seed,
    ).generate()


def _duplicate_terminals(requests, metrics):
    """Count of exactly-once violations (0 is the contract)."""
    rec_ids = [r.request_id for r in metrics.records]
    abort_ids = [a.request_id for a in metrics.aborts]
    dupes = (len(rec_ids) - len(set(rec_ids))
             + len(abort_ids) - len(set(abort_ids))
             + len(set(rec_ids) & set(abort_ids)))
    missing = {r.request_id for r in requests} - set(rec_ids) - set(abort_ids)
    return dupes, len(missing)


def run_phi_sweep(scale=1.0, seed=SEED):
    rows = []
    for phi_confirm in PHI_CONFIRMS:
        reset_request_ids()
        builder = SystemBuilder(num_adapters=ADAPTERS, max_batch_size=8,
                                fault_injector=_storm(scale))
        detector = FailureDetector(FailureDetectorConfig(
            phi_suspect=min(2.0, phi_confirm / 2.0),
            phi_confirm=phi_confirm,
        ))
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), NUM_GPUS,
            detector=detector, num_hosts=NUM_HOSTS, max_requeues=4,
        )
        requests = _workload(scale=scale, seed=seed)
        server.submit(requests)
        metrics = server.run()
        dupes, lost = _duplicate_terminals(requests, metrics)
        lat = metrics.detection_latencies
        rows.append({
            "phi_confirm": phi_confirm,
            "submitted": len(requests),
            "completed": metrics.num_completed,
            "aborted": metrics.num_aborted,
            "suspicions": metrics.suspicions,
            "false_suspicions": metrics.false_suspicions,
            "confirmed_dead": len(lat),
            "detection_latency_s": round(min(lat), 4) if lat else None,
            "fenced_completions": metrics.fenced_completions,
            "partition_heals": metrics.partition_heals,
            "failover_events": metrics.failover_events,
            "duplicate_terminals": dupes,
            "lost_requests": lost,
        })
    return {"rows": rows, "scale": scale, "seed": seed,
            "default_phi_confirm": DEFAULT_PHI_CONFIRM}


def _check(data):
    """The acceptance criteria; raises AssertionError on regression."""
    rows = data["rows"]
    assert len(rows) >= 3, "frontier needs >= 3 swept thresholds"
    # Exactly-once is unconditional: every threshold, zero duplicates.
    for row in rows:
        assert row["duplicate_terminals"] == 0, row
        assert row["lost_requests"] == 0, row
    # The true death is detected at every threshold...
    for row in rows:
        assert row["confirmed_dead"] >= 1, row
    # ...and detecting it costs more latency as phi_confirm rises.
    lats = [row["detection_latency_s"] for row in rows]
    assert lats == sorted(lats), lats
    # Aggressive confirmation of the long partition produces zombie
    # replay, and all of it is fenced.
    assert rows[0]["fenced_completions"] > 0, rows[0]
    # The default threshold rides out the monitoring-path faults.
    default = next(r for r in rows
                   if r["phi_confirm"] == data["default_phi_confirm"])
    assert default["duplicate_terminals"] == 0, default


def test_partition_phi_frontier(results):
    data = run_phi_sweep()
    _check(data)
    results.print_table(
        f"gray-failure frontier: {NUM_GPUS} replicas / {NUM_HOSTS} hosts, "
        f"partition storm + 1 true death, {RATE_RPS:.0f} rps",
        ["phi_conf", "done", "aborted", "susp", "false", "det_lat_s",
         "fenced", "dupes"],
        [[r["phi_confirm"], r["completed"], r["aborted"], r["suspicions"],
          r["false_suspicions"], r["detection_latency_s"],
          r["fenced_completions"], r["duplicate_terminals"]]
         for r in data["rows"]],
    )
    results.save("partition_phi_frontier", data)


def main() -> int:
    """Standalone entry for CI: dump results, fail on contract breaks."""
    import json
    import sys

    scale = 0.5 if "--small" in sys.argv[1:] else 1.0
    payload = run_phi_sweep(scale=scale)
    out_path = bench_record_path("partition", full_scale=scale >= 1.0)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {out_path}")
    try:
        _check(payload)
    except AssertionError as exc:
        print(f"acceptance check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
