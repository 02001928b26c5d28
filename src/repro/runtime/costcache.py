"""Memoized per-iteration cost layer (:class:`IterationCostCache`).

The engine's hot loop used to re-derive every iteration's latency through
``modes.py`` -> ``atmm.py`` -> ``cost_model.py`` -> ``models/costs.py``
even though the result is a pure function of a small amount of batch
shape information.  This module names that information — the
:class:`BatchSignature` — and caches the derived costs per distinct
signature, so a batch shape that recurs pays one table probe instead of
the full cost-model tower.

The table has two levels.  A :class:`CostRow` holds every signature
that differs only in ``decode_context_total``, keyed by the rest of the
signature; its cells are keyed by the context total.  A decode batch
that repeats moves only its context total, one token per member per
iteration, so it stays in one row: the engine's steady decode steps
hold that row and read their cell directly
(:meth:`IterationCostCache.cell`) without building a signature.  The
row also keeps the extra-cost mean, which does not depend on the
context total, once its first miss has computed it.

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
lookup, and every steady step's cell, against the tower (the phase
executors' ``cost_seconds`` and :meth:`ModeExecutor.mean_extra_seconds`),
and ``test_costcache.py`` checks whole runs against the uncached
reference engine body.

Hit/miss counts are written straight into the engine's
:class:`MetricsCollector` (``cost_cache_hits`` / ``cost_cache_misses``)
so cache effectiveness shows up in every summary and bench dump.  Every
cell probe counts once, from :meth:`IterationCostCache.lookup` or a
steady step alike, and the table clears when its cell count reaches
``max_entries``, so the counts equal those of one flat table keyed on
the whole signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def row_key(sig: BatchSignature) -> tuple:
    """The :class:`CostRow` key of a signature: all of it but
    ``decode_context_total``, in field order."""
    return (sig.mode, sig.merged_adapter, sig.prefill_launches,
            sig.num_decodes, sig.lm_head, sig.task_head_classes,
            sig.adapter_groups, sig.adapter_ranks)


@dataclass(slots=True)
class CostRow:
    """The cached costs of every signature sharing one :func:`row_key`.

    ``cells`` maps ``decode_context_total`` to ``(base_seconds,
    extra_mean_seconds)``.  ``generation`` is the table generation the
    row belongs to: a holder of a row from before a clear finds it
    stale and is served from the live table instead.
    """

    key: tuple
    generation: int
    cells: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    #: The extra-cost mean (independent of the context total), once a
    #: miss in this row has computed it.
    extra_mean: Optional[float] = None


class IterationCostCache:
    """Signature -> ``(base_seconds, extra_mean_seconds)`` memo table.

    A two-level table (rows, then cells; see the module doc) makes a
    repeated signature one probe per level.  A miss prices the base
    cost through component tables (prefill launch, decode stats) that
    share work across signatures differing only in one component, and
    takes the extra-cost mean from its row, computed on the row's first
    miss.  Tables are cleared wholesale when they exceed
    ``max_entries`` (for the signature table: cells) — memoization is
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
        self._rows: Dict[tuple, CostRow] = {}
        self._cells = 0
        #: Bumped by every clear of the signature table.
        self.generation = 0
        self._prefill: Dict[Tuple[Tuple[int, ...], int], float] = {}
        self._decode: Dict[Tuple[int, int, bool, int], float] = {}

    def lookup(self, sig: BatchSignature) -> Tuple[float, float]:
        """Return ``(base_seconds, extra_mean_seconds)`` for a signature."""
        return self.cell(self.row(row_key(sig)), sig.decode_context_total)

    def row(self, key: tuple) -> CostRow:
        """The live row of a :func:`row_key`, created empty if absent."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = CostRow(key, self.generation)
        return row

    def cell(self, row: CostRow, context_total: int) -> Tuple[float, float]:
        """Return one cell of ``row``, pricing it on a miss.

        ``row`` may be held across calls; one from before a clear is
        replaced by the live row of its key.
        """
        if row.generation != self.generation:
            row = self.row(row.key)
        cached = row.cells.get(context_total)
        if cached is not None:
            self.metrics.cost_cache_hits += 1
            return cached
        self.metrics.cost_cache_misses += 1
        (mode, merged, launches, num_decodes, lm_head, head_classes,
         groups, ranks) = row.key
        # Accumulate in the exact order the cost tower adds costs
        # (each prefill launch, then the decode step) so float addition
        # order — and therefore rounding — is unchanged.
        base = 0.0
        for tokens, images in launches:
            base += self._prefill_seconds(tokens, images)
        if num_decodes:
            base += self._decode_seconds(
                num_decodes, context_total, lm_head, head_classes)
        extra_mean = row.extra_mean
        if extra_mean is None:
            extra_mean = self.mode_exec.mean_extra_seconds(
                mode, dict(groups), dict(ranks), merged_adapter=merged,
            ) if groups else 0.0
        if self._cells >= self.max_entries:
            self._rows = {}
            self._cells = 0
            self.generation += 1
            row = self.row(row.key)
        row.extra_mean = extra_mean
        row.cells[context_total] = (base, extra_mean)
        self._cells += 1
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

    def _decode_seconds(self, num_decodes: int, context_total: int,
                        lm_head: bool, head_classes: int) -> float:
        key = (num_decodes, context_total, lm_head, head_classes)
        t = self._decode.get(key)
        if t is None:
            t = self.iter_costs.decode_seconds_stats(
                num_decodes, context_total,
                lm_head=lm_head, task_head_classes=head_classes,
            )
            if len(self._decode) >= self.max_entries:
                self._decode.clear()
            self._decode[key] = t
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

    def seconds(self, transfer, nbytes: int) -> float:
        """Wire seconds for one ``nbytes`` KV move over ``transfer``."""
        t = self._memo.get(nbytes)
        if t is None:
            t = transfer.swap_seconds(
                nbytes,
                async_overlap=KV_TRANSFER_OVERLAP,
                software_overhead_s=KV_TRANSFER_OVERHEAD_S,
            )
            if len(self._memo) >= self.max_entries:
                self._memo.clear()
            self._memo[nbytes] = t
        return t
