"""Disaggregated prefill/decode serving: pool split and hand-off.

V-LoRA colocates prefill and decode on every replica; InfiniLoRA-style
disaggregation (PAPERS.md) splits the fleet instead: a **prefill pool**
absorbs the compute bursts (and runs merged for raw prefill
throughput), a **decode pool** holds the long-lived KV residency (and
multiplexes adapters unmerged / via deLoRA).  The two bottlenecks stop
contending: a prefill burst no longer stretches every in-flight
decode's inter-token latency, and decode KV pressure no longer starves
prefill admission.

The pieces, all opt-in through :class:`DisaggConfig` on
:class:`~repro.runtime.cluster.MultiGPUServer`:

* **Pool roles** — the first ``prefill_replicas`` replicas form the
  prefill pool, the rest the decode pool.  :func:`apply_pool_role`
  flips the engine-side switches: prefill engines park finished
  prefills in their ``handoff_outbox`` instead of decoding them;
  decode engines accept transferred-in requests (allocating local KV
  for the sequence that just crossed the wire).
* **KV transfer** — once per control epoch the cluster drains every
  reachable prefill replica's hand-off outbox and delivers each
  request to the decode replica with the most free KV, charging a
  size-proportional wire cost (``context_len * kv_bytes_per_token``
  through the same :class:`~repro.hardware.memory.TransferModel` that
  prices adapter swap-ins, memoized by
  :class:`~repro.runtime.costcache.TransferCostCache`).  The request's
  arrival time — and therefore its TTFT and end-to-end deadline — is
  untouched; only its admission on the decode replica waits out the
  wire time.
* **Per-pool mode choice** — :class:`PhasePinnedPolicy` wraps each
  engine's scheduling policy: the prefill pool coerces single-adapter
  batches to MERGED (base-model-speed prefill), the decode pool
  rewrites MERGED to UNMERGED so one adapter can never monopolize the
  multiplexed decode batch.  MIXTURE (deLoRA) passes through — it *is*
  the multiplexing mode.  Mode transitions still pay the existing
  switcher's costs.
* **Per-pool autoscaling** — the prefill pool scales on queue depth,
  the decode pool on fleet KV residency
  (:attr:`~repro.runtime.autoscaler.AutoscaleConfig.target_utilization`).

Fault tolerance composes with the existing machinery: a prefill
replica dying with un-collected hand-offs rewinds them through
``drain_orphans`` (they re-prefill elsewhere, exactly once); a decode
replica dying mid-transfer rewinds the delivered-but-unfinished
request the same way; lease fencing re-stamps the request's lease at
decode submit so the hand-off can never double-terminate; and hedged
twins of a transferred request re-enter through the prefill pool and
race through the fence like any other hedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.runtime.autoscaler import AutoscaleConfig
from repro.runtime.modes import POOL_MODE_PREFERENCE, InferenceMode
from repro.runtime.scheduler import SchedulerDecision, SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import ServingEngine

__all__ = [
    "DECODE_POOL",
    "DisaggConfig",
    "PREFILL_POOL",
    "PhasePinnedPolicy",
    "apply_pool_role",
]

#: Pool role names (also the keys of
#: :data:`~repro.runtime.modes.POOL_MODE_PREFERENCE`).
PREFILL_POOL = "prefill"
DECODE_POOL = "decode"


@dataclass(frozen=True)
class DisaggConfig:
    """Knobs for disaggregated prefill/decode serving.

    ``prefill_replicas`` + ``decode_replicas`` must equal the cluster's
    initial engine count; the first ``prefill_replicas`` engines form
    the prefill pool.  ``interval_s`` drives the epoched control loop
    when nothing else (autoscaler / detector / hedge / placement)
    already does.  The hand-off wire cost is priced by
    :class:`~repro.runtime.costcache.TransferCostCache`.  The per-pool
    autoscale configs are
    optional — ``None`` leaves that pool at its provisioned size; the
    decode config usually sets
    :attr:`~repro.runtime.autoscaler.AutoscaleConfig.target_utilization`
    so the pool scales on KV residency rather than queue depth.
    """

    prefill_replicas: int = 1
    decode_replicas: int = 1
    interval_s: float = 0.5
    prefill_autoscale: Optional[AutoscaleConfig] = None
    decode_autoscale: Optional[AutoscaleConfig] = None

    def __post_init__(self) -> None:
        if self.prefill_replicas < 1:
            raise ValueError("prefill_replicas must be >= 1")
        if self.decode_replicas < 1:
            raise ValueError("decode_replicas must be >= 1")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


class PhasePinnedPolicy(SchedulingPolicy):
    """Wrap a scheduling policy with a pool's mode preference.

    The base policy still picks the batch (and pays for its choices
    through the existing switcher); the wrapper only post-processes the
    *mode*:

    * ``prefill`` pool: a single-adapter batch is coerced to MERGED —
      prefill is one big GEMM burst and the merged path runs it at
      base-model cost.  Multi-adapter batches keep the base decision
      (MERGED cannot serve them).
    * ``decode`` pool: MERGED is rewritten to UNMERGED — pinning one
      adapter's ΔW into the base weights would starve every other
      adapter multiplexed on the pool.  MIXTURE passes through: deLoRA
      is exactly the multiplexing mode the pool exists for.
    """

    def __init__(self, base: SchedulingPolicy, role: str):
        if role not in (PREFILL_POOL, DECODE_POOL):
            raise ValueError(f"unknown pool role {role!r}")
        self.base = base
        self.role = role
        self.name = f"{base.name}+{role}-pinned"

    def schedule(self, candidates, ctx):
        decision = self.base.schedule(candidates, ctx)
        if decision is None:
            return None
        preferred = POOL_MODE_PREFERENCE[self.role]
        if self.role == PREFILL_POOL:
            if decision.mode is not InferenceMode.MERGED:
                adapters = {r.adapter_id for r in decision.batch}
                if len(adapters) == 1:
                    return SchedulerDecision(
                        batch=decision.batch,
                        mode=preferred,
                        merged_adapter=next(iter(adapters)),
                    )
        elif decision.mode is InferenceMode.MERGED:
            return SchedulerDecision(batch=decision.batch, mode=preferred)
        return decision

    def refresh_credits(self, requests, ctx) -> None:
        self.base.refresh_credits(requests, ctx)


def apply_pool_role(engine: "ServingEngine", role: str) -> None:
    """Flip one engine's switches for its pool role.

    Applied once per engine (the cluster applies it at registration or
    spawn).  Prefill engines hand finished prefills to the cluster's
    transfer pass instead of decoding them; decode engines allocate
    local KV for transferred-in sequences.  Both get their pool's mode
    pinning (:class:`PhasePinnedPolicy`).
    """
    if role == PREFILL_POOL:
        engine.handoff_after_prefill = True
    elif role == DECODE_POOL:
        engine.accepts_kv_transfers = True
    else:
        raise ValueError(f"unknown pool role {role!r}")
    engine.policy = PhasePinnedPolicy(engine.policy, role)


def kv_transfer_bytes(request, model) -> int:
    """Wire size of one hand-off: the full KV sequence at its context.

    The prefill replica holds ``context_len`` tokens of KV for the
    request (prompt plus the first generated token); all of it must
    reach the decode replica before decoding can continue.
    """
    return request.context_len * model.kv_bytes_per_token


def pool_of_index(index: int, config: DisaggConfig) -> str:
    """Initial pool assignment: first ``prefill_replicas`` are prefill."""
    return (PREFILL_POOL if index < config.prefill_replicas
            else DECODE_POOL)
