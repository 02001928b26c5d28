"""Structure-of-arrays serving engine: the batch-advanced hot loop.

:class:`SoAServingEngine` is a drop-in twin of
:class:`~repro.runtime.engine.ServingEngine` for the workloads that
dominate large-scale experiments: a standalone engine (no fault
injection, no overload protection) driving one of the four stock
scheduling policies.  Instead of one Python object per request it keeps
the request pool as parallel numpy arrays — ids, adapter index, status,
arrival/deadline/first-token times, token counts, priority — and runs
each engine phase as a masked array pass:

* **arrival admission** is one ``searchsorted`` over the presorted
  arrival array per iteration (the object core pops a heap per request);
* **deadline expiry** is a watermark check against a presorted expiry
  array, escalating to a vectorized exact-predicate pass only when the
  watermark trips;
* **scheduling** goes through the policies' ``schedule_soa`` fast paths
  (vectorized credit computation and starvation-prefix selection over
  the pool — see :mod:`repro.runtime.scheduler`);
* **finalize** advances every batch member with masked writes (token
  append, block growth, first-token stamps) instead of per-object
  attribute churn;
* **KV-pressure shedding** picks its victim with one ``lexsort`` over
  the refreshed credit array.

Equivalence contract (property-tested in
``tests/runtime/test_soa_core.py``): for any supported configuration the
SoA core completes/aborts the same requests at the same simulated times
with the same metrics summary as the object core — bit-identical, not
approximately.  Every float expression on the hot path therefore
mirrors the object core's evaluation order exactly: broadcast adds of a
python float to a float64 array are per-element IEEE double adds, so
vectorizing preserves the scalar results as long as the association
order is kept.

KV accounting is entry-granular rather than block-granular: the SoA
core never needs block *identities*, only counts, so a sequence records
how many blocks it owns exclusively plus a reference to the prefix
entry it shares.  The refcount transitions are provably the same as the
paged allocator's per-block ones (a prefix entry's blocks free exactly
when the registry and every holding sequence have released it).

Unsupported features fail fast in the constructor: fault injection,
admission control, brownout, circuit breakers, custom policies without
an SoA path, and tracers.  Use the object core for those.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.kernels.base import LoRAOperator
from repro.models.config import ModelConfig
from repro.models.costs import IterationCostModel
from repro.runtime import request as request_mod
from repro.runtime.adapters import AdapterManager
from repro.runtime.clock import SimClock
from repro.runtime.engine import (
    KV_STALL_LIMIT,
    NUM_PROJECTIONS,
    PREFIX_TTL_S,
    EngineConfig,
)
from repro.runtime.kv_cache import BlockAllocationError
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.metrics import AbortRecord, MetricsCollector, RequestRecord
from repro.runtime.modes import InferenceMode, ModeExecutor
from repro.runtime.request import (
    AbortReason,
    PRIORITY_NORMAL,
    Request,
    RequestStatus,
)
from repro.runtime.scheduler import (
    SchedulingPolicy,
    SoAScheduleContext,
)
from repro.runtime.switcher import ModeSwitcher

# Status codes (int8 pool column).
_WAITING = 0
_RUNNING = 1
_FINISHED = 2
_ABORTED = 3

_STATUS_ENUM = {
    _WAITING: RequestStatus.WAITING,
    _RUNNING: RequestStatus.RUNNING,
    _FINISHED: RequestStatus.FINISHED,
    _ABORTED: RequestStatus.ABORTED,
}

# Abort-reason codes (int8 pool column; only the reasons a standalone,
# fault-free engine can produce).
_NO_ABORT = -1
_ABORT_KV = 0
_ABORT_DEADLINE = 1

#: Overflow threshold for the component cost memos (matches
#: IterationCostCache.MAX_ENTRIES).
_MEMO_MAX = 65536

_ABORT_ENUM = {
    _ABORT_KV: AbortReason.KV_EXHAUSTED,
    _ABORT_DEADLINE: AbortReason.DEADLINE_EXCEEDED,
}


class _SoAQueueView:
    """The scheduler's window onto the live request pool (FCFS order).

    Backed directly by the engine's arrays — no copies.  ``live_prefix``
    and the matching scans exploit that dead entries in the admission
    order are bounded by ``_ndead`` (compaction keeps it small), so a
    slice of ``k + _ndead`` entries always contains the first ``k`` live
    ones.
    """

    __slots__ = ("_eng", "arrival", "adapter_idx", "credit",
                 "adapter_order", "adapter_order_list")

    def __init__(self, eng: "SoAServingEngine"):
        self._eng = eng
        self.arrival = eng._arrival
        self.adapter_idx = eng._adapter
        self.credit = eng._credit
        self.adapter_order = eng._adapter_rank
        self.adapter_order_list = eng._adapter_rank.tolist()

    @property
    def n_live(self) -> int:
        return self._eng._n_active

    @property
    def counts(self) -> np.ndarray:
        return self._eng._counts

    def live_prefix(self, k: int) -> np.ndarray:
        """First ``k`` live pool indices in FCFS (admission) order."""
        eng = self._eng
        head, n = eng._order_head, eng._order_n
        if not eng._ndead:
            return eng._order[head:min(head + k, n)]
        seg = eng._order[head:min(head + k + eng._ndead, n)]
        seg = seg[eng._active_f[seg]]
        return seg[:k]

    def match_after(self, adapter: int, limit: int,
                    skip: int) -> np.ndarray:
        """First ``limit`` live indices of ``adapter`` after skipping
        the first ``skip`` live entries (the object core's
        ``_first_matching(..., start=skip)``)."""
        if limit <= 0:
            return self._eng._order[:0]
        eng = self._eng
        if eng._counts[adapter] == eng._n_active:
            # Every live request wants this adapter: the match is just
            # the live prefix past the skip.
            return self.live_prefix(skip + limit)[skip:]
        order, active = eng._order, eng._active_f
        adapter_of = eng._adapter
        pos, n = eng._order_head, eng._order_n
        live_seen = 0
        got = 0
        chunk = max(2 * (skip + limit) + eng._ndead, 64)
        out: List[np.ndarray] = []
        while pos < n and got < limit:
            seg = order[pos:min(pos + chunk, n)]
            pos += seg.size
            if eng._ndead:
                seg = seg[active[seg]]
            if live_seen < skip:
                cut = min(skip - live_seen, seg.size)
                live_seen += seg.size
                seg = seg[cut:]
            else:
                live_seen += seg.size
            if seg.size:
                m = seg[adapter_of[seg] == adapter]
                if m.size:
                    m = m[:limit - got]
                    got += m.size
                    out.append(m)
            chunk *= 2
        if not out:
            return order[:0]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def first_other(self, adapter: int) -> int:
        """First live pool index whose adapter differs; -1 if none."""
        eng = self._eng
        order, active = eng._order, eng._active_f
        adapter_of = eng._adapter
        pos, n = eng._order_head, eng._order_n
        chunk = 64 + eng._ndead
        while pos < n:
            seg = order[pos:min(pos + chunk, n)]
            pos += seg.size
            if eng._ndead:
                seg = seg[active[seg]]
            m = seg[adapter_of[seg] != adapter]
            if m.size:
                return int(m[0])
            chunk *= 2
        return -1


class SoAServingEngine:
    """One GPU's serving loop over parallel request arrays.

    Constructor-compatible with :class:`ServingEngine` so
    :class:`~repro.core.builder.SystemBuilder` can swap it in via
    ``engine_cls`` / ``core="soa"``.  All submissions must land before
    the first :meth:`step`/:meth:`run` — the pool is ingested once into
    fixed-size arrays (request streams are known up front in every
    simulator workload; the object core covers online use).
    """

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        operator: LoRAOperator,
        policy: SchedulingPolicy,
        switcher: ModeSwitcher,
        adapter_manager: AdapterManager,
        memory: Optional[UnifiedMemoryManager] = None,
        config: EngineConfig = EngineConfig(),
        fault_injector=None,
        engine_id: str = "engine-0",
        materialize_records: bool = True,
    ):
        if fault_injector is not None:
            raise ValueError(
                "the SoA core does not support fault injection; "
                "use the object core (--core object)"
            )
        if (config.admission is not None or config.brownout is not None
                or config.breaker is not None):
            raise ValueError(
                "the SoA core does not support overload protection "
                "(admission/brownout/breaker); use the object core"
            )
        if type(policy).schedule_soa is SchedulingPolicy.schedule_soa:
            raise ValueError(
                f"policy {policy.name!r} has no schedule_soa fast path; "
                f"use the object core"
            )
        self.model = model
        self.gpu = gpu
        self.operator = operator
        self.policy = policy
        self.switcher = switcher
        self.adapters = adapter_manager
        self.config = config
        self.engine_id = engine_id
        self.memory = memory or UnifiedMemoryManager(
            model, gpu, adapter_slots=adapter_manager.gpu_slots,
            tp_degree=config.tensor_parallel,
        )
        kv = self.memory.build_kv_cache()
        self._num_blocks = kv.num_blocks
        self._block_size = kv.block_size
        self._free_blocks = kv.num_blocks
        self.iter_costs = IterationCostModel(
            model, gpu, operator.cost_model,
            tp_degree=config.tensor_parallel,
        )
        self.mode_exec = ModeExecutor(
            model, operator, num_projections=NUM_PROJECTIONS
        )
        self.clock = SimClock()
        self.metrics = MetricsCollector()
        self._rng = (
            np.random.default_rng(config.jitter_seed)
            if config.jitter_seed is not None else None
        )
        self.materialize_records = materialize_records

        # -- adapter interning ---------------------------------------------
        table = adapter_manager.adapter_ids
        self._adapter_table: List[str] = table
        self._adapter_index: Dict[str, int] = {
            a: i for i, a in enumerate(table)
        }
        # Lexicographic rank of each adapter id: the _top_adapter
        # tie-break key, precomputed once.
        self._adapter_rank = np.empty(len(table), dtype=np.int64)
        for rank, a in enumerate(sorted(table)):
            self._adapter_rank[self._adapter_index[a]] = rank
        self._spec_rank = np.array(
            [adapter_manager.spec(a).rank for a in table], dtype=np.int64
        )
        self._spec_classes = np.array(
            [adapter_manager.spec(a).task_head_classes or 101
             for a in table], dtype=np.int64
        )

        # -- mode / estimate state -----------------------------------------
        self.current_mode = InferenceMode.UNMERGED
        self._merged_idx = -1
        self._last_iteration_s = 0.03
        self._switch_estimate: Optional[float] = None
        self._last_ctx: Optional[SoAScheduleContext] = None
        self.iter_time_ewma: Optional[float] = None
        self._kv_stalls = 0
        self.quiesced = False
        self.failed = False

        # Component cost memos (see _execute): keyed on the same
        # sufficient statistics as IterationCostCache's component
        # tables, probed directly so no per-iteration BatchSignature is
        # built.  Cleared wholesale past _MEMO_MAX — memoization, not
        # state.
        self._prefill_cache: Dict[tuple, float] = {}
        self._decode_cache: Dict[tuple, float] = {}
        self._extra_cache: Dict[tuple, float] = {}

        # -- staging (pre-ingest submissions) ------------------------------
        self._staged: List[Dict[str, np.ndarray]] = []
        self._staged_n = 0
        self._ingested = False

        # -- prefix interning / entry-granular KV registry -----------------
        self._prefix_index: Dict[str, int] = {}
        self._task_table: List[str] = []
        self._task_index: Dict[str, int] = {}
        # entry id -> [blocks, num_tokens, last_used, refs]
        self._entries: Dict[int, list] = {}
        self._prefix_map: Dict[int, int] = {}  # prefix id -> entry id
        self._entry_ids = itertools.count()

    # -- submission ---------------------------------------------------------

    def submit(self, requests: Sequence[Request]) -> None:
        """Queue request objects (compatibility path).

        Converted into one staged array block; per-request fields that
        the object core mutates in place are *not* mirrored back — the
        SoA core's results live in its metrics and records.
        """
        if self._ingested:
            raise RuntimeError(
                "SoA engine pools are ingested at first step; submit "
                "all requests before run()"
            )
        if self.quiesced and requests:
            raise RuntimeError(
                f"engine {self.engine_id} is quiesced (draining); "
                f"dispatching new work to it is a cluster bug"
            )
        if not requests:
            return
        n = len(requests)
        block = self._empty_block(n)
        for j, r in enumerate(requests):
            self.adapters.spec(r.adapter_id)  # validate adapter exists
            if r.status is not RequestStatus.WAITING or r.generated:
                raise ValueError(
                    f"request {r.request_id} already has progress; the "
                    f"SoA core only serves fresh requests"
                )
            block["rid"][j] = r.request_id
            block["adapter"][j] = self._adapter_index[r.adapter_id]
            block["arrival"][j] = r.arrival_time
            block["inp"][j] = r.input_tokens
            block["out"][j] = r.output_tokens
            block["num_images"][j] = r.num_images
            block["use_task_head"][j] = r.use_task_head
            block["task"][j] = self._intern_task(r.task_name)
            block["prefix"][j] = (
                self._intern_prefix(r.prefix_key)
                if r.prefix_key is not None else -1
            )
            block["prefix_tokens"][j] = r.prefix_tokens
            block["slo"][j] = np.nan if r.slo_s is None else r.slo_s
            block["deadline"][j] = (
                np.nan if r.deadline_s is None else r.deadline_s
            )
            block["priority"][j] = r.priority
        self._staged.append(block)
        self._staged_n += n

    def submit_arrays(
        self,
        adapter_idx: np.ndarray,
        arrival: np.ndarray,
        input_tokens: np.ndarray,
        output_tokens: np.ndarray,
        *,
        use_task_head: bool = False,
        task_name: str = "",
        slo_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        priority: int = PRIORITY_NORMAL,
        num_images: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Bulk submission without materializing ``Request`` objects.

        ``adapter_idx`` indexes :attr:`AdapterManager.adapter_ids`.
        Request ids are drawn from the same global counter the object
        path uses (a contiguous block), so mixed-core runs never
        collide.  Returns the assigned id array.
        """
        if self._ingested:
            raise RuntimeError(
                "SoA engine pools are ingested at first step; submit "
                "all requests before run()"
            )
        n = len(arrival)
        adapter_idx = np.asarray(adapter_idx, dtype=np.int32)
        if adapter_idx.size and (
                adapter_idx.min() < 0
                or adapter_idx.max() >= len(self._adapter_table)):
            raise ValueError("adapter_idx out of range")
        inp = np.asarray(input_tokens, dtype=np.int32)
        out = np.asarray(output_tokens, dtype=np.int32)
        arr = np.asarray(arrival, dtype=np.float64)
        if inp.size and inp.min() <= 0:
            raise ValueError("input_tokens must be positive")
        if out.size and out.min() <= 0:
            raise ValueError("output_tokens must be positive")
        if arr.size and arr.min() < 0:
            raise ValueError("arrival_time must be >= 0")
        if use_task_head and out.size and (out != 1).any():
            raise ValueError("task-head requests decode in exactly 1 round")
        start = next(request_mod._id_counter)
        request_mod.reset_request_ids(start + n)
        block = self._empty_block(n)
        block["rid"][:] = np.arange(start, start + n, dtype=np.int64)
        block["adapter"][:] = adapter_idx
        block["arrival"][:] = arr
        block["inp"][:] = inp
        block["out"][:] = out
        if num_images is not None:
            block["num_images"][:] = np.asarray(num_images, dtype=np.int32)
        block["use_task_head"][:] = use_task_head
        block["task"][:] = self._intern_task(task_name)
        block["slo"][:] = np.nan if slo_s is None else slo_s
        block["deadline"][:] = np.nan if deadline_s is None else deadline_s
        block["priority"][:] = priority
        self._staged.append(block)
        self._staged_n += n
        return block["rid"]

    @staticmethod
    def _empty_block(n: int) -> Dict[str, np.ndarray]:
        return {
            "rid": np.empty(n, dtype=np.int64),
            "adapter": np.empty(n, dtype=np.int32),
            "arrival": np.empty(n, dtype=np.float64),
            "inp": np.empty(n, dtype=np.int32),
            "out": np.empty(n, dtype=np.int32),
            "num_images": np.zeros(n, dtype=np.int32),
            "use_task_head": np.zeros(n, dtype=bool),
            "task": np.zeros(n, dtype=np.int32),
            "prefix": np.full(n, -1, dtype=np.int32),
            "prefix_tokens": np.zeros(n, dtype=np.int32),
            "slo": np.full(n, np.nan),
            "deadline": np.full(n, np.nan),
            "priority": np.full(n, PRIORITY_NORMAL, dtype=np.int64),
        }

    def _intern_task(self, name: str) -> int:
        tid = self._task_index.get(name)
        if tid is None:
            tid = len(self._task_table)
            self._task_table.append(name)
            self._task_index[name] = tid
        return tid

    def _intern_prefix(self, key: str) -> int:
        pid = self._prefix_index.get(key)
        if pid is None:
            pid = len(self._prefix_index)
            self._prefix_index[key] = pid
        return pid

    # -- lifecycle -----------------------------------------------------------

    @property
    def num_live(self) -> int:
        if not self._ingested:
            return self._staged_n
        return (self._pend_n - self._pend_pos) + self._n_active

    def quiesce(self) -> None:
        self.quiesced = True

    @property
    def is_drained(self) -> bool:
        return self.quiesced and self.num_live == 0

    @property
    def current_merged(self) -> Optional[str]:
        """Merged adapter id (object-core-compatible view)."""
        if self._merged_idx < 0:
            return None
        return self._adapter_table[self._merged_idx]

    # -- ingest --------------------------------------------------------------

    def _ingest(self) -> None:
        if self._ingested:
            return
        self._ingested = True
        blocks = self._staged
        self._staged = []
        n = self._staged_n

        def cat(key):
            if not blocks:
                return self._empty_block(0)[key]
            if len(blocks) == 1:
                return blocks[0][key]
            return np.concatenate([b[key] for b in blocks])

        self._rid = cat("rid")
        self._adapter = cat("adapter")
        self._arrival = cat("arrival")
        self._inp = cat("inp")
        self._out = cat("out")
        self._num_images = cat("num_images")
        self._use_task_head = cat("use_task_head")
        self._task = cat("task")
        self._prefix = cat("prefix")
        self._prefix_tokens = cat("prefix_tokens")
        self._slo = cat("slo")
        self._deadline_s = cat("deadline")
        self._priority = cat("priority")

        self._gen = np.zeros(n, dtype=np.int32)
        self._status = np.zeros(n, dtype=np.int8)
        self._prefilled_f = np.zeros(n, dtype=bool)
        self._active_f = np.zeros(n, dtype=bool)
        self._has_kv = np.zeros(n, dtype=bool)
        self._first_token = np.full(n, np.nan)
        self._finish = np.full(n, np.nan)
        self._abort_t = np.full(n, np.nan)
        self._abort_reason = np.full(n, _NO_ABORT, dtype=np.int8)
        self._credit = np.zeros(n)
        self._reused = np.zeros(n, dtype=np.int32)
        self._own_excl = np.zeros(n, dtype=np.int32)
        self._cap_tok = np.zeros(n, dtype=np.int32)
        self._pentry = np.full(n, -1, dtype=np.int32)

        # Pending arrivals presorted by (arrival, rid) — heap pop order.
        pend = np.lexsort((self._rid, self._arrival))
        self._pend = pend.astype(np.int64)
        self._pend_arr = self._arrival[pend]
        self._pend_pos = 0
        self._pend_n = n

        # Effective deadlines (deadline_s, else factor * slo_s) and the
        # presorted expiry schedule.
        eff = self._deadline_s.copy()
        factor = self.config.deadline_slo_factor
        if factor is not None:
            use_slo = np.isnan(eff) & ~np.isnan(self._slo)
            eff[use_slo] = factor * self._slo[use_slo]
        self._eff_deadline = eff
        expiry = self._arrival + eff
        with_dl = np.flatnonzero(~np.isnan(expiry))
        dl_order = with_dl[np.lexsort(
            (self._rid[with_dl], expiry[with_dl])
        )]
        self._dl_order = dl_order.astype(np.int64)
        self._dl_expiry = expiry[dl_order]
        self._dl_ptr = 0

        # Admission order (FCFS) with lazy hole removal.
        self._order = np.empty(n, dtype=np.int64)
        self._order_head = 0
        self._order_n = 0
        self._ndead = 0
        self._n_active = 0
        self._counts = np.zeros(len(self._adapter_table), dtype=np.int64)
        self._prefilled_set: set = set()

        # Terminal-event buffers (materialized into records lazily).
        self._fin_buf = np.empty(n, dtype=np.int64)
        self._fin_n = 0
        self._abort_buf = np.empty(n, dtype=np.int64)
        self._abort_n = 0
        self._mat_fin = 0
        self._mat_abort = 0

        self._view = _SoAQueueView(self)

    # -- main loop -----------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_iterations: int = 2_000_000) -> MetricsCollector:
        """Run until all submitted work completes (or ``until``)."""
        self._ingest()
        for _ in range(max_iterations):
            if until is not None and self.clock.now >= until:
                break
            if self._pend_pos >= self._pend_n and not self._n_active:
                break
            self.step()
        else:
            raise RuntimeError(
                f"engine exceeded {max_iterations} iterations "
                f"(sim time {self.clock.now:.1f}s)"
            )
        self.sync_metrics()
        return self.metrics

    def step(self) -> None:
        """One engine iteration (or a jump to the next arrival)."""
        self._ingest()
        self._admit_arrivals()
        self._expire_deadlines()
        if not self._n_active:
            if self._pend_pos < self._pend_n:
                # float() keeps the clock a python float (np.float64
                # would be IEEE-identical but leak into repr/records).
                self.clock.advance_to(float(self._pend_arr[self._pend_pos]))
                self._admit_arrivals()
                self._expire_deadlines()
            else:
                return
        if not self._n_active:
            return

        ctx = SoAScheduleContext(
            now=self.clock.now,
            current_mode=self.current_mode,
            current_merged=self._merged_idx,
            max_batch_size=self.config.max_batch_size,
            est_iteration_seconds=self._last_iteration_s,
            est_switch_seconds=self._estimate_switch(),
        )
        self._last_ctx = ctx
        decision = self.policy.schedule_soa(self._view, ctx)
        if decision is None:
            return
        mode, merged = decision.mode, decision.merged
        self._apply_mode(mode, merged)
        batch = self._trim_to_adapter_slots(decision.batch, merged)
        # prefilled_b is the batch's prefilled mask, normalized to None
        # for the (dominant, decode-only) all-prefilled case so the
        # downstream passes skip their prefill branches without
        # re-deriving the mask.
        batch, prefilled_b = self._admit_to_kv(batch)
        if not batch.size:
            # KV exhausted: let running requests drain by retrying the
            # already-admitted subset next iteration after evicting
            # stale prefixes.
            self._evict_stale(self.clock.now - PREFIX_TTL_S)
            db = decision.batch
            batch = db[self._prefilled_f[db]]
            prefilled_b = None
            if not batch.size:
                self._handle_kv_starvation()
                return

        gen_b = self._gen[batch]
        ctx_b = self._inp[batch] + gen_b
        # Decode-capacity fast check (the estimate the object core uses:
        # a sequence at a block boundary may need one more block); the
        # preemption loop only runs when it trips.  nb also gates the
        # block-growth pass in _finalize: a sequence can only grow past
        # its capacity when it sits exactly on a block boundary.
        nb = int(np.count_nonzero(ctx_b % self._block_size == 0))
        if nb > self._free_blocks:
            batch = self._ensure_decode_capacity(batch)
            if not batch.size:
                self._handle_kv_starvation()
                return
            gen_b = self._gen[batch]
            ctx_b = self._inp[batch] + gen_b
            nb = int(np.count_nonzero(ctx_b % self._block_size == 0))
            pf = self._prefilled_f[batch]
            prefilled_b = None if pf.all() else pf
        self._kv_stalls = 0

        if mode is InferenceMode.MERGED:
            # A merged decision's batch is single-adapter by
            # construction (match_after / the all-same fast path).
            needed = [self._adapter_table[merged]]
        else:
            needed = self._batch_adapters(batch, merged)
        uniq = list(dict.fromkeys(needed))
        hits = sum(1 for a in uniq if self.adapters.is_resident(a))
        stall = self.adapters.ensure_resident(needed, self.clock.now)
        self.metrics.adapter_cache_hits += hits
        misses = len(uniq) - hits
        if misses:
            self.metrics.adapter_cache_misses += misses
            self.metrics.swap_ins += misses
            self.metrics.swap_in_seconds += stall
        if stall:
            self.clock.advance(stall)

        iteration_s = self._execute(batch, mode, merged, ctx_b, prefilled_b)
        self.clock.advance(iteration_s)
        self._last_iteration_s = iteration_s
        if self.iter_time_ewma is None:
            self.iter_time_ewma = iteration_s
        else:
            self.iter_time_ewma += 0.2 * (iteration_s - self.iter_time_ewma)
        self._finalize(batch, gen_b, ctx_b, prefilled_b, nb)
        self.metrics.iterations += 1
        self.metrics.count_mode(mode.value)
        # FCFS processing retires mostly from the queue front: advancing
        # the head eats those holes at O(1) amortized, and compaction
        # only fires for scattered holes (merged-mode runs finishing
        # mid-queue adapters).
        order, active = self._order, self._active_f
        head, n = self._order_head, self._order_n
        while head < n and not active[order[head]]:
            head += 1
            self._ndead -= 1
        self._order_head = head
        if self._ndead > 64 and self._ndead * 8 > (n - head):
            self._compact_order()

    # -- admission / expiry (masked passes) -----------------------------------

    def _admit_arrivals(self) -> None:
        pos = self._pend_pos
        if pos >= self._pend_n:
            return
        now = self.clock.now
        if self._pend_arr[pos] > now:
            return
        k = int(np.searchsorted(self._pend_arr, now, side="right"))
        idx = self._pend[pos:k]
        self._pend_pos = k
        m = idx.size
        end = self._order_n + m
        self._order[self._order_n:end] = idx
        self._order_n = end
        self._active_f[idx] = True
        self._n_active += m
        if m == 1:
            self._counts[self._adapter[idx[0]]] += 1
        else:
            np.add.at(self._counts, self._adapter[idx], 1)

    def _expire_deadlines(self) -> None:
        """Masked deadline pass: presorted expiries + a moving pointer.

        The sorted expiry array is the object core's heap flattened up
        front: the pointer check replaces the heap-top watermark, and
        one ``searchsorted`` bounds the candidates within margin.  Like
        the heap path, keys can round one ulp away from the exact
        ``now - arrival > deadline`` predicate, so candidates are
        re-checked exactly and non-expired ones stay at the pointer
        (the pushback).
        """
        ptr = self._dl_ptr
        dle = self._dl_expiry
        if ptr >= dle.size:
            return
        now = self.clock.now
        margin = 1e-9 * (1.0 + abs(now))
        cut = now + margin
        if dle[ptr] > cut:
            return
        k = int(np.searchsorted(dle, cut, side="right"))
        sl = self._dl_order[ptr:k]
        live = sl[self._active_f[sl]]
        if live.size:
            expired = live[
                (now - self._arrival[live]) > self._eff_deadline[live]
            ]
            if expired.size:
                self._abort_many(expired, _ABORT_DEADLINE)
        # Advance past departed entries; stop at the first entry that is
        # still live (pushback) or not yet admitted.
        status = self._status
        active = self._active_f
        dlo = self._dl_order
        while ptr < k:
            i = dlo[ptr]
            if active[i]:
                break
            if status[i] == _WAITING:
                break  # not admitted yet (sub-margin deadline)
            ptr += 1
        self._dl_ptr = ptr

    def _abort_many(self, idx: np.ndarray, reason: int) -> None:
        """Vectorized abort of ``idx`` (in order) at the current time."""
        now = self.clock.now
        with_kv = idx[self._has_kv[idx]]
        for i in with_kv.tolist():
            self._free_kv(i)
        self._status[idx] = _ABORTED
        self._abort_t[idx] = now
        self._abort_reason[idx] = reason
        self._active_f[idx] = False
        self._reused[idx] = 0
        if idx.size == 1:
            self._counts[self._adapter[idx[0]]] -= 1
        else:
            np.add.at(self._counts, self._adapter[idx], -1)
        self._n_active -= idx.size
        self._ndead += idx.size
        for i in idx[self._prefilled_f[idx]].tolist():
            self._prefilled_set.discard(i)
        end = self._abort_n + idx.size
        self._abort_buf[self._abort_n:end] = idx
        self._abort_n = end

    def _compact_order(self) -> None:
        seg = self._order[self._order_head:self._order_n]
        live = seg[self._active_f[seg]]
        self._order[:live.size] = live
        self._order_head = 0
        self._order_n = live.size
        self._ndead = 0

    # -- KV accounting (entry-granular) ---------------------------------------

    def _blocks_for(self, num_tokens: int) -> int:
        return -(-num_tokens // self._block_size)

    def _free_kv(self, i: int) -> None:
        self._free_blocks += int(self._own_excl[i])
        self._own_excl[i] = 0
        eid = int(self._pentry[i])
        if eid >= 0:
            e = self._entries[eid]
            e[3] -= 1
            if not e[3]:
                self._free_blocks += e[0]
                del self._entries[eid]
            self._pentry[i] = -1
        self._has_kv[i] = False
        self._cap_tok[i] = 0

    def _evict_stale(self, older_than: float) -> int:
        stale = [
            pk for pk, eid in self._prefix_map.items()
            if self._entries[eid][2] < older_than
        ]
        for pk in stale:
            eid = self._prefix_map.pop(pk)
            e = self._entries[eid]
            e[3] -= 1
            if not e[3]:
                self._free_blocks += e[0]
                del self._entries[eid]
        return len(stale)

    def _admit_to_kv(self, batch: np.ndarray):
        """Admit the batch's unprefilled members to the KV cache.

        Returns ``(batch, prefilled_mask)`` with members that did not
        fit dropped; the mask is ``None`` when every kept member is
        already prefilled (the dominant decode-only case).
        """
        pf = self._prefilled_f[batch]
        if pf.all():
            return batch, None
        now = self.clock.now
        bs = self._block_size
        keep = np.ones(batch.size, dtype=bool)
        dropped = False
        for j in np.flatnonzero(~pf).tolist():
            i = int(batch[j])
            ctx = int(self._inp[i]) + int(self._gen[i])
            need_full = self._blocks_for(ctx)
            if need_full > self._free_blocks:
                self._evict_stale(now - PREFIX_TTL_S)
            if need_full > self._free_blocks:
                keep[j] = False  # stays waiting; retried next iteration
                dropped = True
                continue
            pid = int(self._prefix[i]) if self.config.enable_prefix_reuse \
                else -1
            ptoks = int(self._prefix_tokens[i])
            reused = 0
            if pid >= 0 and ptoks >= bs:
                eid = self._prefix_map.get(pid)
                if eid is not None:
                    e = self._entries[eid]
                    reused = e[1]
                    e[2] = now
                    e[3] += 1
                    remaining = ctx - reused
                    own = self._blocks_for(remaining) if remaining > 0 else 0
                    self._free_blocks -= own
                    self._own_excl[i] = own
                    self._pentry[i] = eid
                    self._cap_tok[i] = (e[0] + own) * bs
                else:
                    own = need_full
                    self._free_blocks -= own
                    full = ptoks // bs
                    eid = next(self._entry_ids)
                    # [blocks, num_tokens, last_used, refs]; refs counts
                    # the registry plus this sequence.
                    self._entries[eid] = [full, full * bs, now, 2]
                    self._prefix_map[pid] = eid
                    self._own_excl[i] = own - full
                    self._pentry[i] = eid
                    self._cap_tok[i] = own * bs
            else:
                own = need_full
                self._free_blocks -= own
                self._own_excl[i] = own
                self._pentry[i] = -1
                self._cap_tok[i] = own * bs
            self._reused[i] = reused
            self._has_kv[i] = True
        if not dropped:
            return batch, pf
        pfk = pf[keep]
        return batch[keep], (None if pfk.all() else pfk)

    def _ensure_decode_capacity(self, batch: np.ndarray) -> np.ndarray:
        """Mirror of the object core's preemption loop (rarely taken)."""
        bs = self._block_size
        while True:
            ctx = self._inp[batch] + self._gen[batch]
            needed = int(np.count_nonzero(ctx % bs == 0))
            if needed <= self._free_blocks:
                return batch
            victim = self._pick_preemption_victim(batch)
            if victim is not None:
                self._preempt(victim)
                batch = batch[batch != victim]
                continue
            fresh = batch[~self._prefilled_f[batch]]
            if batch.size > 1 and fresh.size:
                bounced = int(fresh[-1])
                self._free_kv(bounced)
                self._reused[bounced] = 0
                batch = batch[batch != bounced]
                continue
            for i in fresh.tolist():
                if self._has_kv[i]:
                    self._free_kv(i)
                    self._reused[i] = 0
            return batch[:0]

    def _pick_preemption_victim(self, batch: np.ndarray) -> Optional[int]:
        prefilled_batch = batch[self._prefilled_f[batch]]
        batch_set = set(batch.tolist())
        outside = [i for i in self._prefilled_set if i not in batch_set]
        if not outside:
            if prefilled_batch.size <= 1:
                return None  # never preempt the last runnable request
            pool = prefilled_batch.tolist()
        else:
            pool = outside
        arrival, rid = self._arrival, self._rid
        return max(pool, key=lambda i: (arrival[i], rid[i]))

    def _preempt(self, i: int) -> None:
        self._free_kv(i)
        self._reused[i] = 0
        self._prefilled_f[i] = False
        self._status[i] = _WAITING
        self._prefilled_set.discard(i)
        self.metrics.num_preemptions += 1

    def _handle_kv_starvation(self) -> None:
        """Degrade gracefully when no batch fits in the KV cache."""
        self._evict_stale(float("inf"))
        self._kv_stalls += 1
        self.metrics.kv_stall_iters += 1
        if self._kv_stalls <= KV_STALL_LIMIT:
            self.clock.advance(max(self._last_iteration_s, 1e-3))
            return
        self._kv_stalls = 0
        live = self._view.live_prefix(self._n_active)
        waiting = live[~self._prefilled_f[live]]
        pool = waiting if waiting.size else live
        if self._last_ctx is not None:
            self.policy.refresh_credits_soa(pool, self._view, self._last_ctx)
        # min by (priority, credit, -arrival, -rid): lexsort keys are
        # listed minor-to-major.
        order = np.lexsort((
            -self._rid[pool], -self._arrival[pool],
            self._credit[pool], self._priority[pool],
        ))
        victim = pool[order[0]:order[0] + 1]
        self._abort_many(victim, _ABORT_KV)
        self.metrics.shed_events += 1

    # -- mode / adapters ------------------------------------------------------

    def _estimate_switch(self) -> float:
        if self._switch_estimate is None:
            any_spec = self.adapters.spec(self.adapters.resident_ids[0])
            self._switch_estimate = self.switcher.merge_seconds(any_spec)
        return self._switch_estimate

    def _apply_mode(self, mode: InferenceMode, merged: int) -> float:
        if mode == self.current_mode and merged == self._merged_idx:
            return 0.0
        table = self._adapter_table
        from_spec = (
            self.adapters.spec(table[self._merged_idx])
            if self._merged_idx >= 0 else None
        )
        to_spec = self.adapters.spec(table[merged]) if merged >= 0 else None
        cost = self.switcher.switch_seconds(
            self.current_mode, mode, from_spec, to_spec
        )
        if cost:
            self.clock.advance(cost)
            self.metrics.num_mode_switches += 1
            self.metrics.switch_time_total += cost
        self.current_mode = mode
        self._merged_idx = merged
        return cost

    def _trim_to_adapter_slots(self, batch: np.ndarray,
                               merged: int) -> np.ndarray:
        if len(self._adapter_table) <= self.adapters.gpu_slots:
            # Every adapter fits resident at once: the allowed set can
            # never exceed the slot budget, so nothing is ever trimmed.
            return batch
        allowed = {merged} if merged >= 0 else set()
        budget = self.adapters.gpu_slots
        keep = np.ones(batch.size, dtype=bool)
        for j, a in enumerate(self._adapter[batch].tolist()):
            if a not in allowed:
                if len(allowed) >= budget:
                    keep[j] = False
                    continue
                allowed.add(a)
        return batch if keep.all() else batch[keep]

    def _batch_adapters(self, batch: np.ndarray, merged: int) -> List[str]:
        table = self._adapter_table
        aa = self._adapter[batch]
        a0 = int(aa[0])
        if aa.size == 1 or bool((aa == a0).all()):
            if merged >= 0 and merged != a0:
                return [table[a0], table[merged]]
            return [table[a0]]
        ids = aa.tolist()
        if merged >= 0:
            ids.append(merged)
        return [table[a] for a in dict.fromkeys(ids)]

    # -- execution ------------------------------------------------------------

    def _execute(self, batch: np.ndarray, mode: InferenceMode,
                 merged: int, ctx_b: np.ndarray,
                 prefilled_b) -> float:
        """``prefilled_b`` is the batch's prefilled mask, or ``None``
        when every member is already prefilled (decode-only)."""
        # atok accumulates exact int token sums keyed by adapter
        # *index* (int hashing beats interned-string hashing on this
        # hot path); the string-keyed mapping the cost tower wants is
        # only built on an extra-memo miss, in the identical insertion
        # order (prefills first, then decodes — batch order).
        atok: Dict[int, int] = {}
        launches: tuple = ()
        if prefilled_b is None:
            decodes = batch
            ctxd = ctx_b
        else:
            pre_mask = ~prefilled_b
            prefills = batch[pre_mask]
            decodes = batch[prefilled_b]
            ctxd = ctx_b[prefilled_b]
            effective = np.maximum(
                ctx_b[pre_mask] - self._reused[prefills], 1
            ).tolist()
            images = self._num_images[prefills]
            if self.config.batch_prefills:
                launches = ((tuple(effective), int(images.sum())),)
            else:
                launches = tuple(
                    ((tok,), int(im))
                    for tok, im in zip(effective, images.tolist())
                )
            ap = self._adapter[prefills]
            a0 = int(ap[0])
            if ap.size == 1 or bool((ap == a0).all()):
                atok[a0] = (
                    effective[0] if len(effective) == 1 else sum(effective)
                )
            else:
                for a, tok in zip(ap.tolist(), effective):
                    atok[a] = atok.get(a, 0) + tok

        num_decodes = decodes.size
        total_context = 0
        lm = False
        head_classes = 0
        if num_decodes:
            total_context = int(ctxd.sum())
            heads = self._use_task_head[decodes]
            nh = int(heads.sum())
            lm = nh < num_decodes
            ad = self._adapter[decodes]
            a0 = int(ad[0])
            same = num_decodes == 1 or bool((ad == a0).all())
            if nh:
                if same:
                    head_classes = int(self._spec_classes[a0])
                elif nh == num_decodes:
                    head_classes = int(self._spec_classes[ad].max())
                else:
                    head_classes = int(self._spec_classes[ad[heads]].max())
            if same:
                atok[a0] = atok.get(a0, 0) + num_decodes
            else:
                for a in ad.tolist():
                    atok[a] = atok.get(a, 0) + 1

        # The SoA path bypasses the BatchSignature table: on its
        # decode-heavy array-pool traces full signatures almost never
        # repeat (the decode context total shifts every iteration;
        # measured hit rate 0.2%), so the signature build + hash is
        # pure overhead.  The component memos below are keyed on the
        # same sufficient statistics :class:`IterationCostCache` uses
        # and accumulate in the same order (prefill launches, then
        # decode, extra last), so costs stay bit-identical.  Hit/miss
        # counters track the expensive component — the LoRA extra-mean
        # tower.
        base = 0.0
        if launches:
            pf = self._prefill_cache
            for key in launches:
                t = pf.get(key)
                if t is None:
                    t = self.iter_costs.prefill_seconds(key[0], key[1])
                    if len(pf) >= _MEMO_MAX:
                        pf.clear()
                    pf[key] = t
                base += t
        if num_decodes:
            dkey = (num_decodes, total_context, lm, head_classes)
            dc = self._decode_cache
            t = dc.get(dkey)
            if t is None:
                t = self.iter_costs.decode_seconds_stats(
                    num_decodes, total_context, lm_head=lm,
                    task_head_classes=head_classes,
                )
                if len(dc) >= _MEMO_MAX:
                    dc.clear()
                dc[dkey] = t
            base += t
        if not atok:
            return base
        ekey = (mode, merged, tuple(atok.items()))
        ec = self._extra_cache
        mean = ec.get(ekey)
        if mean is None:
            self.metrics.cost_cache_misses += 1
            table = self._adapter_table
            merged_id = table[merged] if merged >= 0 else None
            adapter_tokens = {table[a]: t for a, t in atok.items()}
            ranks = {
                table[a]: int(self._spec_rank[a]) for a in atok
            }
            if merged_id is not None and merged not in atok:
                ranks[merged_id] = int(self._spec_rank[merged])
            mean = self.mode_exec.mean_extra_seconds(
                mode, adapter_tokens, ranks, merged_adapter=merged_id
            )
            if len(ec) >= _MEMO_MAX:
                ec.clear()
            ec[ekey] = mean
        else:
            self.metrics.cost_cache_hits += 1
        extra = self.mode_exec.extra_seconds_from_mean(mean, self._rng)
        self.metrics.lora_extra_time_total += extra
        return base + extra

    # -- finalize (masked pass) -----------------------------------------------

    def _finalize(self, batch: np.ndarray, gen_b: np.ndarray,
                  ctx_b: np.ndarray, prefilled_b, nb: int) -> None:
        """``prefilled_b`` follows the step convention (``None`` = all
        prefilled); ``nb`` is the batch's block-boundary count, gating
        the growth pass (growth needs ``ctx == cap`` and capacities are
        whole blocks, so ``nb == 0`` means nothing can grow)."""
        now = self.clock.now
        if prefilled_b is not None:
            newly = batch[~prefilled_b]
            self._prefilled_f[newly] = True
            self._status[newly] = _RUNNING
            self._prefilled_set.update(newly.tolist())
            # A request's first token lands in its prefill iteration, so
            # only newly-prefilled members can still lack one (a
            # preempted request re-prefills with its stamp intact).
            ft = newly[np.isnan(self._first_token[newly])]
            if ft.size:
                self._first_token[ft] = now
        # One decode token per batch member: a sequence sitting exactly
        # at its capacity grows by one block.
        grow = batch[ctx_b == self._cap_tok[batch]] if nb else batch[:0]
        if grow.size:
            if grow.size > self._free_blocks:
                raise BlockAllocationError(
                    f"need {grow.size} blocks, only "
                    f"{self._free_blocks} free"
                )
            self._cap_tok[grow] += self._block_size
            self._own_excl[grow] += 1
            self._free_blocks -= grow.size
        newgen = gen_b + 1
        self._gen[batch] = newgen
        finished = batch[newgen >= self._out[batch]]
        if not finished.size:
            return
        self._finish[finished] = now
        self._status[finished] = _FINISHED
        for i in finished.tolist():
            self._free_kv(i)
            self._prefilled_set.discard(i)
        self._reused[finished] = 0
        self._active_f[finished] = False
        if finished.size == 1:
            self._counts[self._adapter[finished[0]]] -= 1
        else:
            np.add.at(self._counts, self._adapter[finished], -1)
        self._n_active -= finished.size
        self._ndead += finished.size
        end = self._fin_n + finished.size
        self._fin_buf[self._fin_n:end] = finished
        self._fin_n = end

    # -- metrics materialization ----------------------------------------------

    def sync_metrics(self) -> MetricsCollector:
        """Materialize terminal-event buffers into metric records.

        Idempotent: each call appends only events recorded since the
        last one, preserving completion order (so the summary's float
        sums accumulate in the same order as the object core's).  With
        ``materialize_records=False`` records are skipped — use
        :meth:`array_summary` at that scale.
        """
        if not self._ingested or not self.materialize_records:
            return self.metrics
        table = self._adapter_table
        tasks = self._task_table
        for i in self._fin_buf[self._mat_fin:self._fin_n].tolist():
            slo = self._slo[i]
            self.metrics.records.append(RequestRecord(
                request_id=int(self._rid[i]),
                adapter_id=table[self._adapter[i]],
                task_name=tasks[self._task[i]],
                arrival_time=float(self._arrival[i]),
                first_token_time=float(self._first_token[i]),
                finish_time=float(self._finish[i]),
                input_tokens=int(self._inp[i]),
                output_tokens=int(self._out[i]),
                slo_s=None if np.isnan(slo) else float(slo),
            ))
        self._mat_fin = self._fin_n
        for i in self._abort_buf[self._mat_abort:self._abort_n].tolist():
            slo = self._slo[i]
            self.metrics.aborts.append(AbortRecord(
                request_id=int(self._rid[i]),
                adapter_id=table[self._adapter[i]],
                task_name=tasks[self._task[i]],
                arrival_time=float(self._arrival[i]),
                abort_time=float(self._abort_t[i]),
                reason=_ABORT_ENUM[int(self._abort_reason[i])].value,
                input_tokens=int(self._inp[i]),
                output_tokens=int(self._out[i]),
                generated=int(self._gen[i]),
                slo_s=None if np.isnan(slo) else float(slo),
            ))
        self._mat_abort = self._abort_n
        return self.metrics

    def array_summary(self) -> Dict[str, float]:
        """Pure-array headline numbers for runs too large to
        materialize per-request records (e.g. the 10M-request bench).

        Float sums here use numpy's pairwise accumulation, so values
        can differ from :meth:`MetricsCollector.summary` in the last
        ulps; counters are exact.
        """
        self._ingest()
        fin = self._fin_buf[:self._fin_n]
        ab = self._abort_buf[:self._abort_n]
        out: Dict[str, float] = {
            "completed": float(fin.size),
            "aborted": float(ab.size),
            "iterations": float(self.metrics.iterations),
            "mode_switches": float(self.metrics.num_mode_switches),
            "preemptions": float(self.metrics.num_preemptions),
            "switch_time_total_s": self.metrics.switch_time_total,
        }
        if fin.size:
            latency = self._finish[fin] - self._arrival[fin]
            tokens = (self._inp[fin] + self._out[fin]).astype(np.float64)
            out["avg_token_latency_ms"] = float(
                latency.sum() / tokens.sum()
            ) * 1e3
            events_start = float(min(
                self._arrival[fin].min(),
                self._arrival[ab].min() if ab.size else np.inf,
            ))
            events_end = float(max(
                self._finish[fin].max(),
                self._abort_t[ab].max() if ab.size else -np.inf,
            ))
            duration = max(events_end - events_start, 1e-9)
            out["goodput_rps"] = fin.size / duration
            start = float(self._arrival[fin].min())
            end = float(self._finish[fin].max())
            out["throughput_rps"] = fin.size / max(end - start, 1e-9)
            out["mean_latency_s"] = float(latency.mean())
            out["p50_latency_s"] = float(np.percentile(latency, 50))
            out["p99_latency_s"] = float(np.percentile(latency, 99))
            out["mean_ttft_s"] = float(
                (self._first_token[fin] - self._arrival[fin]).mean()
            )
        return out

    # -- introspection (tests) ------------------------------------------------

    @property
    def kv_free_blocks(self) -> int:
        return self._free_blocks

    @property
    def kv_num_blocks(self) -> int:
        return self._num_blocks

    def request_status(self, request_id: int) -> RequestStatus:
        """Status of one request by id (test helper; O(n) lookup)."""
        self._ingest()
        pos = np.flatnonzero(self._rid == request_id)
        if not pos.size:
            raise KeyError(f"unknown request {request_id}")
        return _STATUS_ENUM[int(self._status[pos[0]])]

    def check_kv_invariants(self) -> None:
        """Assert block-count conservation (property tests)."""
        if not self._ingested:
            return
        held = int(self._own_excl[self._has_kv].sum())
        held += sum(e[0] for e in self._entries.values())
        if held + self._free_blocks != self._num_blocks:
            raise AssertionError(
                f"block leak: {held} held + {self._free_blocks} free "
                f"!= {self._num_blocks}"
            )
