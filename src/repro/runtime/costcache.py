"""Memoized per-iteration cost layer (:class:`IterationCostCache`).

The engine's hot loop used to re-derive every iteration's latency through
``modes.py`` -> ``atmm.py`` -> ``cost_model.py`` -> ``models/costs.py``
even though the result is a pure function of a small amount of batch
shape information.  This module names that information — the
:class:`BatchSignature` — and caches the derived costs per distinct
signature, so steady-state serving (where the same batch shapes recur
thousands of times) pays one dict lookup instead of the full cost-model
tower.

Losslessness
------------
The cache must never change simulated results, only wall-clock time.
Two properties make that hold bit-for-bit:

* **Decode costs reduce to sufficient statistics.**  Per-request decode
  cost is affine in the context length (attention FLOPs and KV traffic
  are both linear in it) and every intermediate value is an exact
  integer-valued float far below ``2**53``, so ``(batch size, total
  context)`` reproduces :meth:`IterationCostModel.decode_seconds`
  exactly (see :meth:`IterationCostModel.decode_seconds_stats`).
  Prefill launches are keyed on their exact token tuple in batch order,
  which trivially preserves float summation order.

* **Jitter stays outside the cache.**  The LoRA operator's extra time is
  ``sample(mean, rng)``; only the deterministic mean is memoized
  (:meth:`ModeExecutor.mean_extra_seconds`) and the rng draw happens per
  iteration in the engine, consuming the jitter stream exactly as
  :meth:`ModeExecutor.extra_seconds` does (zero means never sample).

``tests/runtime/test_phase_executors.py`` checks every iteration's
lookup against the tower (the phase executors' ``cost_seconds`` and
:meth:`ModeExecutor.mean_extra_seconds`), and ``test_costcache.py``
checks whole runs against the uncached reference engine body.

Hit/miss counts are written straight into the engine's
:class:`MetricsCollector` (``cost_cache_hits`` / ``cost_cache_misses``)
so cache effectiveness shows up in every summary and bench dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.models.costs import IterationCostModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.modes import InferenceMode, ModeExecutor

#: Flat software cost of one prefill→decode KV hand-off (launch +
#: transport setup), on top of the wire time.
KV_TRANSFER_OVERHEAD_S = 0.5e-3
#: Fraction of a hand-off's wire time hidden behind the receiving
#: replica's compute (none: the decode replica waits for its KV).
KV_TRANSFER_OVERLAP = 0.0


@dataclass(frozen=True)
class BatchSignature:
    """Everything the cost model can see of one iteration's batch.

    Two iterations with equal signatures have bit-identical base cost
    and extra-cost mean; the only per-iteration residual is the jitter
    sample, which stays outside the cache.
    """

    mode: InferenceMode
    merged_adapter: Optional[str]
    #: One entry per prefill kernel launch: the exact per-request token
    #: counts in batch order plus the images entering with that launch.
    #: Batched-prefill engines emit one launch; per-request prefill
    #: (Punica style) emits one launch per request.
    prefill_launches: Tuple[Tuple[Tuple[int, ...], int], ...]
    #: Decode side collapses to sufficient statistics (see module doc).
    num_decodes: int
    decode_context_total: int
    lm_head: bool
    task_head_classes: int
    #: Adapter token groups in engine insertion order (prefills then
    #: decodes) — order matters because the ATMM config selection keys
    #: on the first group's rank.
    adapter_groups: Tuple[Tuple[str, int], ...]
    adapter_ranks: Tuple[Tuple[str, int], ...]


class IterationCostCache:
    """Signature -> ``(base_seconds, extra_mean_seconds)`` memo table.

    A top-level table keyed on the full :class:`BatchSignature` makes the
    steady-state hit a single dict probe; misses fall back to component
    tables (prefill launch, decode stats, mode-extra mean) that share
    work across signatures differing only in one component.  Tables are
    cleared wholesale when they exceed ``max_entries`` — memoization is
    an optimization, not state, so dropping it is always safe.
    """

    MAX_ENTRIES = 65536

    def __init__(
        self,
        iter_costs: IterationCostModel,
        mode_exec: ModeExecutor,
        metrics: Optional[MetricsCollector] = None,
        max_entries: int = MAX_ENTRIES,
    ):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.iter_costs = iter_costs
        self.mode_exec = mode_exec
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.max_entries = max_entries
        self._table: Dict[BatchSignature, Tuple[float, float]] = {}
        self._prefill: Dict[Tuple[Tuple[int, ...], int], float] = {}
        self._decode: Dict[Tuple[int, int, bool, int], float] = {}
        self._extra: Dict[tuple, float] = {}

    def lookup(self, sig: BatchSignature) -> Tuple[float, float]:
        """Return ``(base_seconds, extra_mean_seconds)`` for a signature."""
        cached = self._table.get(sig)
        if cached is not None:
            self.metrics.cost_cache_hits += 1
            return cached
        self.metrics.cost_cache_misses += 1
        # Accumulate in the exact order the cost tower adds costs
        # (each prefill launch, then the decode step) so float addition
        # order — and therefore rounding — is unchanged.
        base = 0.0
        for tokens, images in sig.prefill_launches:
            base += self._prefill_seconds(tokens, images)
        if sig.num_decodes:
            base += self._decode_seconds(sig)
        extra_mean = self._extra_mean(sig) if sig.adapter_groups else 0.0
        if len(self._table) >= self.max_entries:
            self._table.clear()
        self._table[sig] = (base, extra_mean)
        return base, extra_mean

    # -- component tables ---------------------------------------------------------

    def _prefill_seconds(self, tokens: Tuple[int, ...], images: int) -> float:
        key = (tokens, images)
        t = self._prefill.get(key)
        if t is None:
            t = self.iter_costs.prefill_seconds(tokens, images)
            if len(self._prefill) >= self.max_entries:
                self._prefill.clear()
            self._prefill[key] = t
        return t

    def _decode_seconds(self, sig: BatchSignature) -> float:
        key = (sig.num_decodes, sig.decode_context_total,
               sig.lm_head, sig.task_head_classes)
        t = self._decode.get(key)
        if t is None:
            t = self.iter_costs.decode_seconds_stats(
                sig.num_decodes, sig.decode_context_total,
                lm_head=sig.lm_head,
                task_head_classes=sig.task_head_classes,
            )
            if len(self._decode) >= self.max_entries:
                self._decode.clear()
            self._decode[key] = t
        return t

    def _extra_mean(self, sig: BatchSignature) -> float:
        key = (sig.mode, sig.merged_adapter,
               sig.adapter_groups, sig.adapter_ranks)
        t = self._extra.get(key)
        if t is None:
            t = self.mode_exec.mean_extra_seconds(
                sig.mode,
                dict(sig.adapter_groups),
                dict(sig.adapter_ranks),
                merged_adapter=sig.merged_adapter,
            )
            if len(self._extra) >= self.max_entries:
                self._extra.clear()
            self._extra[key] = t
        return t


class TransferCostCache:
    """Memoized KV-transfer pricing for disaggregated hand-offs.

    The cluster's transfer pass prices every prefill→decode hand-off as
    a synchronous move of ``context_len * kv_bytes_per_token`` bytes
    over the replica's :class:`~repro.hardware.memory.TransferModel`
    (the same model that prices adapter swap-ins).  Transfer sizes
    repeat heavily — context lengths cluster around the workload's
    prompt/output distribution — so the wire time is memoized per byte
    count.  Replicas are identical molds of one engine factory, so a
    single table serves the whole fleet, priced with
    :data:`KV_TRANSFER_OVERHEAD_S` and :data:`KV_TRANSFER_OVERLAP`.
    """

    def __init__(self, max_entries: int = 65536):
        self.max_entries = max_entries
        self._memo: Dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def seconds(self, transfer, nbytes: int) -> float:
        """Wire seconds for one ``nbytes`` KV move over ``transfer``."""
        t = self._memo.get(nbytes)
        if t is None:
            self.misses += 1
            t = transfer.swap_seconds(
                nbytes,
                async_overlap=KV_TRANSFER_OVERLAP,
                software_overhead_s=KV_TRANSFER_OVERHEAD_S,
            )
            if len(self._memo) >= self.max_entries:
                self._memo.clear()
            self._memo[nbytes] = t
        else:
            self.hits += 1
        return t
