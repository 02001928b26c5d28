"""Iteration-level discrete-event serving engine.

One :class:`ServingEngine` models one GPU running one LMM with a set of
LoRA adapters.  Like vLLM/LightLLM (§5), scheduling is *iteration-level*:
every iteration the policy re-selects a batch from all live requests
(continuous batching), new requests prefill as they join, and each
running request decodes one token per iteration.

The engine advances a simulated clock by cost-model outputs:

* base-model prefill/decode time (:class:`IterationCostModel`);
* the LoRA operator's extra time for the chosen mode (:class:`ModeExecutor`);
* mode-switch costs (:class:`ModeSwitcher`);
* adapter swap-in stalls (:class:`AdapterManager`);
* KV allocation (with prefix reuse) gates admission.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.kernels.base import LoRAOperator
from repro.models.config import ModelConfig
from repro.models.costs import IterationCostModel
from repro.runtime.adapters import AdapterManager
from repro.runtime.clock import SimClock
from repro.runtime.costcache import BatchSignature, IterationCostCache
from repro.runtime.failure_detection import Completion
from repro.runtime.faults import FaultInjector
from repro.runtime.hedging import RetryBudget, capped_exponential_backoff
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.metrics import AbortRecord, MetricsCollector, RequestRecord
from repro.runtime.modes import InferenceMode, ModeExecutor
from repro.runtime.overload import (
    AdapterBreaker,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    ReplicaHealth,
)
from repro.runtime.request import AbortReason, Request, RequestStatus
from repro.runtime.scheduler import (
    SchedulerDecision,
    SchedulingContext,
    SchedulingPolicy,
    pick_shed_victim,
)
from repro.runtime.switcher import ModeSwitcher


#: Capped exponential backoff for failed adapter swap-ins: the first
#: retry waits the base, each further consecutive failure doubles it.
SWAP_RETRY_BASE_S = 0.02
SWAP_RETRY_CAP_S = 1.0


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs."""

    max_batch_size: int = 32
    num_projections: int = 2
    enable_prefix_reuse: bool = True
    jitter_seed: Optional[int] = 0
    prefix_ttl_s: float = 30.0
    #: Batch prefills of co-arriving requests into one iteration (vLLM
    #: style).  Punica's decode-centric runtime prefills per request.
    batch_prefills: bool = True
    #: Megatron-style tensor parallelism across this many GPUs (the
    #: engine then models one TP *group*, not one GPU).
    tensor_parallel: int = 1
    #: Abort a request once it has been in the system longer than
    #: ``deadline_slo_factor * slo_s`` (requests without an SLO are only
    #: bounded by their own ``deadline_s``).  ``None`` disables.
    deadline_slo_factor: Optional[float] = None
    #: Consecutive KV-starved iterations tolerated before shedding the
    #: lowest-credit waiting request (graceful degradation instead of
    #: the former hard ``RuntimeError``).
    kv_stall_limit: int = 8
    #: Memoize iteration costs per :class:`BatchSignature` (bit-identical
    #: results, large speedup).  ``False`` re-derives every iteration
    #: through the full cost-model tower (the reference path).
    enable_cost_cache: bool = True
    # -- overload protection (all default off; see runtime/overload.py) ----
    #: Admission control at the queue door: token-bucket rate limiting,
    #: queue-depth / KV-headroom watermarks, SLO-aware early rejection.
    #: ``None`` admits everything (legacy behavior).
    admission: Optional[AdmissionConfig] = None
    #: Brownout degraded-service tiers under sustained pressure.
    #: ``None`` never degrades (legacy behavior).
    brownout: Optional[BrownoutConfig] = None
    #: Circuit breakers for failing adapters.  ``None`` uses the
    #: default :class:`BreakerConfig`: a permanent quarantine after
    #: ``failure_threshold`` consecutive swap failures (requests then
    #: abort as ``AbortReason.ADAPTER_UNAVAILABLE``).
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        if self.deadline_slo_factor is not None and self.deadline_slo_factor <= 0:
            raise ValueError("deadline_slo_factor must be positive")
        if self.kv_stall_limit < 1:
            raise ValueError("kv_stall_limit must be >= 1")


class PhaseExecutor:
    """One serving phase (prefill or decode) behind a shared protocol.

    The engine's iteration loop is composed from two of these: each
    phase carves its share out of the mixed continuous batch
    (:meth:`select`), contributes its part of the memoization
    :class:`BatchSignature` (:meth:`signature_fields`), prices itself
    through the analytical cost tower (:meth:`cost_seconds` — the
    uncached reference path), adds its per-adapter token contributions
    to the LoRA-operator cost input (:meth:`accumulate_tokens`), and
    applies its post-iteration request transition (:meth:`advance`).
    Disaggregated serving (:mod:`repro.runtime.disagg`) reuses the same
    executors, with a pool role restricting which phase an engine runs
    to completion.

    Bit-identity contract: the composed executors evaluate every float
    in the same order, and draw from the rng stream at the same points,
    as the pre-refactor monolithic loop — the golden determinism
    digests and the phase-executor equivalence property cover this.
    """

    phase = "?"

    def __init__(self, engine: "ServingEngine"):
        self.engine = engine

    def select(self, batch: Sequence[Request]) -> List[Request]:
        """This phase's share of a mixed continuous batch."""
        raise NotImplementedError

    def plan(self, requests: Sequence[Request]):
        """Phase-specific precomputation shared by the hooks below."""
        return None

    def signature_fields(self, requests: Sequence[Request], plan):
        """This phase's fields of the batch's :class:`BatchSignature`."""
        raise NotImplementedError

    def cost_seconds(self, requests: Sequence[Request], plan) -> float:
        """Base-model cost of this phase (uncached reference path)."""
        raise NotImplementedError

    def accumulate_tokens(self, requests: Sequence[Request], plan,
                          adapter_tokens: Dict[str, int]) -> None:
        """Add this phase's per-adapter token contributions in place."""
        raise NotImplementedError

    def advance(self, request: Request) -> None:
        """Post-iteration transition: every batch member appends one
        token (a prefill's first, a decode's next)."""
        engine = self.engine
        engine.kv.append_token(request.request_id)
        request.generated += 1
        if request.first_token_time is None:
            request.first_token_time = engine.clock.now


class PrefillExecutor(PhaseExecutor):
    """Prefill phase: not-yet-prefilled requests pay prompt compute."""

    phase = "prefill"

    def select(self, batch: Sequence[Request]) -> List[Request]:
        return [r for r in batch if not r.prefilled]

    def plan(self, requests: Sequence[Request]) -> List[int]:
        # Effective prompt tokens after prefix reuse (floor 1: a fully
        # reused prompt still pays one positional launch).
        reused = self.engine._reused_tokens
        return [
            max(r.context_len - reused.get(r.request_id, 0), 1)
            for r in requests
        ]

    def signature_fields(self, requests, plan):
        if not requests:
            return {"prefill_launches": ()}
        if self.engine.config.batch_prefills:
            num_images = sum(r.num_images for r in requests)
            return {"prefill_launches": ((tuple(plan), num_images),)}
        return {"prefill_launches": tuple(
            ((tok,), r.num_images) for r, tok in zip(requests, plan)
        )}

    def cost_seconds(self, requests, plan) -> float:
        if not requests:
            return 0.0
        engine = self.engine
        t = 0.0
        num_images = sum(r.num_images for r in requests)
        if engine.config.batch_prefills:
            t += engine.iter_costs.prefill_seconds(plan, num_images)
        else:
            # Per-request prefill: each pays its own iteration.
            for r, tok in zip(requests, plan):
                t += engine.iter_costs.prefill_seconds([tok], r.num_images)
        return t

    def accumulate_tokens(self, requests, plan, adapter_tokens) -> None:
        for r, tok in zip(requests, plan):
            adapter_tokens[r.adapter_id] = (
                adapter_tokens.get(r.adapter_id, 0) + tok
            )

    def advance(self, request: Request) -> None:
        request.prefilled = True
        request.status = RequestStatus.RUNNING
        super().advance(request)


class DecodeExecutor(PhaseExecutor):
    """Decode phase: prefilled requests each decode one token."""

    phase = "decode"

    def select(self, batch: Sequence[Request]) -> List[Request]:
        return [r for r in batch if r.prefilled]

    def signature_fields(self, requests, plan):
        num_decodes = 0
        total_context = 0
        lm = False
        head_classes = 0
        if requests:
            num_decodes = len(requests)
            for r in requests:
                total_context += r.context_len
                if r.use_task_head:
                    classes = self.engine._task_classes_of(r.adapter_id)
                    if classes > head_classes:
                        head_classes = classes
                else:
                    lm = True
        return {
            "num_decodes": num_decodes,
            "decode_context_total": total_context,
            "lm_head": lm,
            "task_head_classes": head_classes,
        }

    def cost_seconds(self, requests, plan) -> float:
        if not requests:
            return 0.0
        engine = self.engine
        contexts = [r.context_len for r in requests]
        lm = any(not r.use_task_head for r in requests)
        head_classes = max(
            (engine.adapters.spec(r.adapter_id).task_head_classes or 101
             for r in requests if r.use_task_head),
            default=0,
        )
        return engine.iter_costs.decode_seconds(
            contexts, lm_head=lm, task_head_classes=head_classes
        )

    def accumulate_tokens(self, requests, plan, adapter_tokens) -> None:
        for r in requests:
            adapter_tokens[r.adapter_id] = (
                adapter_tokens.get(r.adapter_id, 0) + 1
            )


class ServingEngine:
    """One GPU's serving loop over a simulated clock."""

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
        fault_injector: Optional[FaultInjector] = None,
        engine_id: str = "engine-0",
    ):
        self.model = model
        self.gpu = gpu
        self.operator = operator
        self.policy = policy
        self.switcher = switcher
        self.adapters = adapter_manager
        self.config = config
        self.memory = memory or UnifiedMemoryManager(
            model, gpu, adapter_slots=adapter_manager.gpu_slots,
            tp_degree=config.tensor_parallel,
        )
        self.kv: PagedKVCache = self.memory.build_kv_cache()
        self.iter_costs = IterationCostModel(
            model, gpu, operator.cost_model,
            tp_degree=config.tensor_parallel,
        )
        self.mode_exec = ModeExecutor(
            model, operator, num_projections=config.num_projections
        )
        self.clock = SimClock()
        self.metrics = MetricsCollector()
        self._rng = (
            np.random.default_rng(config.jitter_seed)
            if config.jitter_seed is not None else None
        )
        #: Future arrivals as a min-heap of (arrival_time, request_id, req).
        self._pending: List[Tuple[float, int, Request]] = []
        #: Arrived, not finished; dict preserves admission order and
        #: makes membership updates O(1) (the seed's list paid an O(n)
        #: rebuild per abort/finish).
        self._active: Dict[int, Request] = {}
        self._reused_tokens: Dict[int, int] = {}
        # Incrementally maintained view of _active for the scheduler:
        # adapter -> live request count (zero-count keys are dropped so
        # the mapping always equals a fresh Counter over _active).
        self._adapter_counts: Dict[str, int] = {}
        # Admission-order tracking: while every admit key (arrival, id)
        # is non-decreasing, _active iteration order IS FCFS order and
        # policies can skip their sorts.  Cluster failover requeues can
        # break monotonicity (a requeued arrival is stamped by the dead
        # engine's clock), which flips this flag off for good.
        self._active_in_order = True
        self._last_admit_key: Tuple[float, int] = (float("-inf"), -1)
        # Earliest-deadline heap of (arrival + deadline, request_id);
        # entries for departed requests are dropped lazily on pop.
        self._deadline_heap: List[Tuple[float, int]] = []
        self.current_mode = InferenceMode.UNMERGED
        self.current_merged: Optional[str] = None
        self._last_iteration_s = 0.03
        self._switch_estimate: Optional[float] = None
        self._last_ctx: Optional[SchedulingContext] = None
        #: Optional per-iteration tracer (attach_tracer()).
        self.tracer = None
        # -- resilience state (fault injection / graceful degradation) -----
        self.faults = fault_injector
        self.engine_id = engine_id
        #: Failure-domain placement (``HOST_FAIL`` kills every engine on
        #: a host).  Assigned by the cluster; None = no correlated domain.
        self.host: Optional[str] = None
        self.failed = False
        self.failed_at: Optional[float] = None
        # -- lease fencing (runtime/failure_detection.py) ------------------
        #: Bumped by the cluster when it seizes this replica's lease
        #: (confirmed dead); completions stamped with an older epoch are
        #: fenced on delivery.
        self.lease_epoch = 0
        #: With fencing on, terminal metric recording is deferred: the
        #: engine appends a :class:`Completion` here and the cluster
        #: drains it at epoch boundaries (withheld while partitioned).
        self._fencing = False
        self.completion_outbox: List[Completion] = []
        #: Quiesced engines refuse new work (cluster drain; see
        #: :meth:`quiesce`) but keep running what they already hold.
        self.quiesced = False
        self._kv_stalls = 0
        self._swap_backoff_until: Dict[str, float] = {}
        # Latest backoff expiry ever armed: once the clock passes it,
        # _schedulable skips the per-request backoff filter entirely.
        self._backoff_horizon = float("-inf")
        # -- overload protection (runtime/overload.py) ---------------------
        # Per-adapter circuit breakers, created lazily on first swap
        # failure.  The default BreakerConfig never half-opens: a
        # permanent quarantine after its failure_threshold.
        self._breaker_config = config.breaker or BreakerConfig()
        #: Shared retry budget (attached by the cluster; None = ungated).
        #: Swap retries draw from the same bucket as hedges and failover
        #: requeues, so a fleet-wide swap outage cannot retry-storm.
        self.retry_budget: Optional[RetryBudget] = None
        self._breakers: Dict[str, AdapterBreaker] = {}
        self._admission = (
            AdmissionController(config.admission)
            if config.admission is not None else None
        )
        self._brownout = (
            BrownoutController(config.brownout)
            if config.brownout is not None else None
        )
        #: EWMA of iteration wall time — the cluster's straggler signal.
        self.iter_time_ewma: Optional[float] = None
        # -- memoized cost layer -------------------------------------------
        self.cost_cache: Optional[IterationCostCache] = (
            IterationCostCache(self.iter_costs, self.mode_exec,
                               metrics=self.metrics)
            if config.enable_cost_cache else None
        )
        self._rank_cache: Dict[str, int] = {}
        self._task_class_cache: Dict[str, int] = {}
        # -- composable phase executors ------------------------------------
        self.prefill_exec = PrefillExecutor(self)
        self.decode_exec = DecodeExecutor(self)
        self.phase_executors: Tuple[PhaseExecutor, ...] = (
            self.prefill_exec, self.decode_exec
        )
        # -- disaggregated serving hooks (runtime/disagg.py) ---------------
        #: Prefill-pool engines park finished prefills here instead of
        #: decoding them; the cluster's KV-transfer pass drains it,
        #: prices the move over the wire, and delivers the request to a
        #: decode replica.  Always empty in colocated serving.
        self.handoff_after_prefill = False
        self.handoff_outbox: List[Request] = []
        #: Decode-pool engines allocate local KV for transferred-in
        #: prefilled requests (their sequence lives on the prefill
        #: replica no more).  Off everywhere else so the colocated
        #: admission hot path is untouched.
        self.accepts_kv_transfers = False

    # -- submission ---------------------------------------------------------------

    def submit(self, requests: Sequence[Request],
               not_before: Optional[float] = None) -> None:
        """Queue requests for their arrival times (may be in the future).

        ``not_before`` floors the admission time without touching
        ``arrival_time`` (which anchors TTFT, latency, and deadline
        accounting): the disaggregated transfer pass delivers a
        handed-off request with ``not_before = now + wire_seconds`` so
        the KV move is charged on the wire while the request's
        end-to-end clock keeps running from its original arrival.
        """
        if self.quiesced and requests:
            raise RuntimeError(
                f"engine {self.engine_id} is quiesced (draining); "
                f"dispatching new work to it is a cluster bug"
            )
        for r in requests:
            self.adapters.spec(r.adapter_id)  # validate adapter exists
            if self._fencing:
                r.lease = (self.engine_id, self.lease_epoch)
            due = (r.arrival_time if not_before is None
                   else max(r.arrival_time, not_before))
            heapq.heappush(
                self._pending, (due, r.request_id, r)
            )

    def enable_fencing(self) -> None:
        """Switch terminal recording to the fenced completion outbox.

        The cluster enables this on every replica when a failure
        detector drives the run: dispatch stamps each request with this
        engine's ``(engine_id, lease_epoch)`` token, and terminal events
        go to :attr:`completion_outbox` instead of directly into
        :attr:`metrics` — the cluster accepts or fences them on
        delivery.  Never enabled for standalone engines (bit-identical
        legacy path).
        """
        self._fencing = True

    @property
    def num_live(self) -> int:
        # Finished prefills awaiting their KV transfer still belong to
        # this engine until the cluster's transfer pass collects them.
        return (len(self._pending) + len(self._active)
                + len(self.handoff_outbox))

    # -- drain lifecycle (cluster scale-down) --------------------------------------

    def quiesce(self) -> None:
        """Stop accepting new work; in-flight requests keep running.

        The cluster's scale-down path quiesces a replica before draining
        it: dispatch routes around it, :meth:`submit` rejects stragglers
        (catching dispatch bugs loudly), and once :attr:`is_drained` the
        replica can be retired without losing a request.
        """
        self.quiesced = True

    @property
    def is_drained(self) -> bool:
        """True once a quiesced engine holds no live work."""
        return self.quiesced and self.num_live == 0

    @property
    def pending_requests(self) -> List[Request]:
        """Queued (not yet arrived) requests, in no particular order."""
        return [entry[2] for entry in self._pending]

    def attach_tracer(self, tracer=None):
        """Attach (or create) an :class:`EngineTracer`; returns it."""
        from repro.runtime.tracing import EngineTracer

        self.tracer = tracer or EngineTracer()
        return self.tracer

    # -- main loop --------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_iterations: int = 2_000_000) -> MetricsCollector:
        """Run until all submitted work completes (or ``until`` sim-seconds).

        A fault-injected engine failure stops the loop early; the
        cluster layer can then :meth:`drain_orphans` onto survivors.
        """
        for _ in range(max_iterations):
            if self.failed:
                break
            if until is not None and self.clock.now >= until:
                break
            if not self._pending and not self._active:
                break
            self.step()
        else:
            raise RuntimeError(
                f"engine exceeded {max_iterations} iterations "
                f"(sim time {self.clock.now:.1f}s)"
            )
        return self.metrics

    def step(self) -> None:
        """One engine iteration (or a jump to the next arrival)."""
        if self.failed:
            return
        if (self.faults is not None
                and self.faults.engine_failed(self.engine_id, self.clock.now,
                                              host=self.host)):
            self._fail()
            return
        self._admit_arrivals()
        self._expire_deadlines()
        self._apply_kv_pressure()
        if not self._active:
            if self._pending:
                self.clock.advance_to(self._pending[0][0])
                self._admit_arrivals()
                self._expire_deadlines()
            else:
                return
        if not self._active:
            return
        if self._brownout is not None:
            self._apply_brownout()
            if not self._active:
                return

        schedulable = self._schedulable()
        if not schedulable:
            self._advance_past_backoff()
            return
        ctx = SchedulingContext(
            now=self.clock.now,
            current_mode=self.current_mode,
            current_merged=self.current_merged,
            max_batch_size=self.config.max_batch_size,
            est_iteration_seconds=self._last_iteration_s,
            est_switch_seconds=self._estimate_switch(),
            candidates_fcfs=self._active_in_order,
            adapter_counts=(
                self._adapter_counts
                if len(schedulable) == len(self._active) else None
            ),
        )
        self._last_ctx = ctx
        decision = self.policy.schedule(schedulable, ctx)
        if decision is None:
            return
        if (self._brownout is not None and self._brownout.force_merged
                and decision.mode is not InferenceMode.MERGED):
            forced = self._force_merged_decision(schedulable)
            if forced is not None:
                decision = forced
                self.metrics.brownout_forced_merges += 1

        mode, merged = decision.mode, decision.merged_adapter
        switch_s = self._apply_mode(mode, merged)
        batch = self._trim_to_adapter_slots(decision.batch, merged)
        batch = self._admit_to_kv(batch)
        if not batch:
            # KV exhausted: let running requests drain by retrying the
            # already-admitted subset next iteration after evicting
            # stale prefixes.
            self.kv.evict_stale_prefixes(
                self.clock.now - self.config.prefix_ttl_s
            )
            batch = [r for r in decision.batch if r.prefilled]
            if not batch:
                # Nothing admitted and nothing running: degrade instead
                # of crashing — flush caches, stall briefly for transient
                # pressure, then shed the lowest-credit waiting request.
                self._handle_kv_starvation(decision.batch)
                return

        batch = self._ensure_decode_capacity(batch)
        if not batch:
            # Not even one decode step fits: same degradation path.
            self._handle_kv_starvation(decision.batch)
            return
        self._kv_stalls = 0

        needed = self._batch_adapters(batch, decision)
        uniq = list(dict.fromkeys(needed))
        hits = sum(1 for a in uniq if self.adapters.is_resident(a))
        stall, failed_swaps = self.adapters.try_ensure_resident(
            needed, self.clock.now, injector=self.faults
        )
        self.metrics.adapter_cache_hits += hits
        misses = len(uniq) - hits
        if misses:
            self.metrics.adapter_cache_misses += misses
            self.metrics.swap_ins += misses - len(failed_swaps)
            self.metrics.swap_in_seconds += stall
        if stall:
            self.clock.advance(stall)
        for adapter_id in needed:
            if adapter_id not in failed_swaps:
                self._swap_backoff_until.pop(adapter_id, None)
                if self._breakers:
                    self._record_swap_success(adapter_id)
        if failed_swaps:
            batch, mode, merged = self._handle_swap_failures(
                batch, failed_swaps, mode, merged
            )
            if not batch:
                return

        preempt_before = self.metrics.num_preemptions
        start = self.clock.now
        iteration_s = self._execute(batch, mode, merged)
        if self.faults is not None:
            iteration_s *= max(
                1.0, self.faults.engine_slowdown(self.engine_id, start)
            )
        self.clock.advance(iteration_s)
        self._last_iteration_s = iteration_s
        if self.iter_time_ewma is None:
            self.iter_time_ewma = iteration_s
        else:
            self.iter_time_ewma += 0.2 * (iteration_s - self.iter_time_ewma)
        self._finalize(batch)
        self.metrics.iterations += 1
        self.metrics.count_mode(mode.value)
        if self.tracer is not None:
            self._trace(mode, merged, batch, start, iteration_s, switch_s,
                        stall, preempt_before)

    # -- internals ----------------------------------------------------------------------

    def _admit_arrivals(self) -> None:
        now = self.clock.now
        while self._pending and self._pending[0][0] <= now:
            _, _, req = heapq.heappop(self._pending)
            if self._breakers and not self._breaker_admits(req.adapter_id, now):
                req.abort(now, AbortReason.ADAPTER_UNAVAILABLE)
                self._record_terminal_abort(req)
                continue
            if self._admission is not None and self._reject_at_door(req, now):
                continue
            key = (req.arrival_time, req.request_id)
            if key < self._last_admit_key:
                self._active_in_order = False
            else:
                self._last_admit_key = key
            self._active[req.request_id] = req
            self._adapter_counts[req.adapter_id] = (
                self._adapter_counts.get(req.adapter_id, 0) + 1
            )
            deadline = self._effective_deadline(req)
            if deadline is not None:
                heapq.heappush(
                    self._deadline_heap,
                    (req.arrival_time + deadline, req.request_id),
                )

    def _drop_active(self, req: Request) -> None:
        """O(1) removal from the active set and its adapter-count view."""
        if self._active.pop(req.request_id, None) is None:
            return
        count = self._adapter_counts.get(req.adapter_id, 0) - 1
        if count > 0:
            self._adapter_counts[req.adapter_id] = count
        else:
            self._adapter_counts.pop(req.adapter_id, None)

    # -- overload protection ------------------------------------------------------

    def _breaker_admits(self, adapter_id: str, now: float) -> bool:
        """Gate one arrival through the adapter's circuit breaker."""
        breaker = self._breakers.get(adapter_id)
        if breaker is None:
            return True
        was_open = breaker.state is BreakerState.OPEN
        allowed = breaker.admit_allowed(now)
        if was_open and breaker.state is BreakerState.HALF_OPEN:
            self.metrics.breaker_half_opens += 1
        return allowed

    def _record_swap_success(self, adapter_id: str) -> None:
        breaker = self._breakers.get(adapter_id)
        if breaker is not None and breaker.record_success(self.clock.now):
            self.metrics.breaker_closes += 1

    def _reject_at_door(self, req: Request, now: float) -> bool:
        """Apply admission control to one arrival; True when rejected.

        Rejection happens before the request ever enters the active set:
        no KV, no batch slot, no credit accrual — the cheapest possible
        way to lose a request that was going to miss anyway.
        """
        verdict = self._admission.evaluate(
            req, now,
            queue_depth=len(self._active),
            kv_free_frac=self.kv.free_blocks / self.kv.num_blocks,
            est_iteration_s=self._last_iteration_s,
            max_batch_size=self.config.max_batch_size,
            deadline_s=self._effective_deadline(req),
        )
        if verdict is None:
            return False
        req.abort(now, AbortReason.ADMISSION_REJECTED)
        self._record_terminal_abort(req)
        self.metrics.admission_rejections += 1
        return True

    def _apply_brownout(self) -> None:
        """Sample pressure, transition tiers, shed if in brownout."""
        ctl = self._brownout
        level = ctl.observe(
            self.clock.now,
            len(self._active),
            self.kv.free_blocks / self.kv.num_blocks,
        )
        self.metrics.brownout_transitions = ctl.transitions
        self.metrics.brownout_time_s = ctl.time_degraded
        if level < 1:
            return
        excess = len(self._active) - ctl.config.queue_high
        if excess <= 0:
            return
        waiting = [r for r in self._active.values() if not r.prefilled]
        for victim in ctl.shed_victims(waiting, excess):
            self._abort(victim, AbortReason.BROWNOUT_SHED)
            self.metrics.brownout_sheds += 1

    def _force_merged_decision(
            self, schedulable: Sequence[Request]
    ) -> Optional[SchedulerDecision]:
        """Brownout level 3: run the hottest adapter merged, max batch."""
        counts: Dict[str, int] = {}
        for r in schedulable:
            counts[r.adapter_id] = counts.get(r.adapter_id, 0) + 1
        if not counts:
            return None
        top = min(counts, key=lambda a: (-counts[a], a))
        batch = [r for r in schedulable if r.adapter_id == top]
        batch = batch[: self.config.max_batch_size]
        if not batch:
            return None
        return SchedulerDecision(
            batch=batch, mode=InferenceMode.MERGED, merged_adapter=top
        )

    # -- resilience -------------------------------------------------------------------

    def _abort(self, req: Request, reason: AbortReason) -> None:
        """Abort one active request, releasing any KV it holds."""
        if self.kv.has_sequence(req.request_id):
            self.kv.free(req.request_id)
        self._reused_tokens.pop(req.request_id, None)
        req.abort(self.clock.now, reason)
        self._drop_active(req)
        self._record_terminal_abort(req)

    def _record_terminal_abort(self, req: Request) -> None:
        """Record one abort — directly, or deferred through the outbox.

        All terminal recording funnels through here / :meth:`_finalize`
        so that lease fencing covers every way a request can end on
        this engine, not just the happy path.
        """
        if self._fencing:
            self.completion_outbox.append(Completion(
                request=req, token=req.lease, kind="abort",
                record=AbortRecord.from_request(req), time=self.clock.now,
            ))
        else:
            self.metrics.record_abort(req)

    def _effective_deadline(self, req: Request) -> Optional[float]:
        if req.deadline_s is not None:
            return req.deadline_s
        factor = self.config.deadline_slo_factor
        if factor is not None and req.slo_s is not None:
            return factor * req.slo_s
        return None

    def _expire_deadlines(self) -> None:
        """Abort requests past their deadline, without scanning _active.

        The earliest-deadline heap is a watermark: when its top is in the
        future, nothing can have expired and the whole check is O(1) —
        the seed scanned every active request every step.  Heap keys are
        ``arrival + deadline``, which can round one ulp away from the
        authoritative ``now - arrival > deadline`` predicate, so pops use
        a generous margin and re-check the exact predicate; non-expired
        near-boundary entries are pushed back.
        """
        heap = self._deadline_heap
        if not heap:
            return
        now = self.clock.now
        margin = 1e-9 * (1.0 + abs(now))
        if heap[0][0] > now + margin:
            return
        pushback: List[Tuple[float, int]] = []
        while heap and heap[0][0] <= now + margin:
            expiry, rid = heapq.heappop(heap)
            req = self._active.get(rid)
            if req is None:
                continue  # finished/aborted/drained; stale entry
            deadline = self._effective_deadline(req)
            if deadline is None:
                continue
            if now - req.arrival_time > deadline:
                self._abort(req, AbortReason.DEADLINE_EXCEEDED)
            else:
                pushback.append((expiry, rid))
        for item in pushback:
            heapq.heappush(heap, item)

    def _apply_kv_pressure(self) -> None:
        if self.faults is None:
            return
        frac = self.faults.kv_reserved_fraction(self.clock.now)
        self.kv.set_reserved(int(frac * self.kv.num_blocks))

    def _handle_kv_starvation(self, candidates: Sequence[Request]) -> None:
        """Degrade gracefully when no batch fits in the KV cache.

        First flush every cached prefix (emergency eviction), then stall
        up to ``kv_stall_limit`` iterations so transient pressure (fault
        windows, draining requests) can pass; only then shed the
        lowest-credit waiting request.  Each path either advances the
        clock or removes a request, so the engine always makes progress.
        """
        self.kv.evict_stale_prefixes(float("inf"))
        self._kv_stalls += 1
        self.metrics.kv_stall_iters += 1
        if self._kv_stalls <= self.config.kv_stall_limit:
            self.clock.advance(max(self._last_iteration_s, 1e-3))
            return
        self._kv_stalls = 0
        active = self._active.values()
        pool = [r for r in active if not r.prefilled] or list(active)
        # Fast-path scheduling skips the per-candidate credit writes, so
        # bring the pool's credits up to this step's scheduling context
        # before the credit-keyed victim pick.
        if self._last_ctx is not None:
            self.policy.refresh_credits(pool, self._last_ctx)
        victim = pick_shed_victim(pool, self.clock.now)
        if victim is not None:
            self._abort(victim, AbortReason.KV_EXHAUSTED)
            self.metrics.shed_events += 1

    def _handle_swap_failures(self, batch, failed, mode, merged):
        """Backoff/quarantine failed adapters; degrade the batch.

        Requests whose adapter failed to become resident leave the batch
        (their fresh KV allocations are rolled back) and retry after a
        capped exponential backoff; an adapter that keeps failing trips
        its circuit breaker (open: traffic aborted, then optionally
        half-open probes after a cooldown — see runtime/overload.py).
        When the *merged* target itself failed, the surviving batch
        falls back to UNMERGED mode.
        """
        now = self.clock.now
        for adapter_id in failed:
            breaker = self._breakers.get(adapter_id)
            if breaker is None:
                breaker = AdapterBreaker(adapter_id, self._breaker_config)
                self._breakers[adapter_id] = breaker
            self.metrics.swap_retries += 1
            if breaker.record_failure(now):
                self._open_breaker(adapter_id)
            else:
                backoff = self._swap_retry_backoff(
                    adapter_id, breaker.consecutive_failures, batch)
                self._swap_backoff_until[adapter_id] = now + backoff
                if now + backoff > self._backoff_horizon:
                    self._backoff_horizon = now + backoff
        failed_set = set(failed)
        kept = []
        for r in batch:
            if (r.adapter_id in failed_set
                    and not self.adapters.is_resident(r.adapter_id)):
                if not r.prefilled and self.kv.has_sequence(r.request_id):
                    self.kv.free(r.request_id)
                    self._reused_tokens.pop(r.request_id, None)
                continue
            kept.append(r)
        kept = [r for r in kept if not r.is_aborted]
        if merged in failed_set and not self.adapters.is_resident(merged):
            # The merge target never landed: run what remains unmerged.
            mode = InferenceMode.UNMERGED
            merged = None
            self.current_mode = InferenceMode.UNMERGED
            self.current_merged = None
            if kept:
                self.metrics.mode_fallbacks += 1
        return kept, mode, merged

    def _swap_retry_backoff(self, adapter_id: str, attempt: int,
                            batch: Sequence[Request]) -> float:
        """Backoff before swap retry ``attempt`` for one failed adapter.

        The shared capped-exponential curve from
        ``SWAP_RETRY_BASE_S`` up to ``SWAP_RETRY_CAP_S``.  A
        cluster-attached :class:`RetryBudget` gates the retry — when the
        budget is dry the retry is not forbidden (the adapter's requests
        would strand) but degrades to maximum spacing, the slowest the
        schedule allows.
        """
        backoff = capped_exponential_backoff(
            SWAP_RETRY_BASE_S, attempt, SWAP_RETRY_CAP_S)
        if self.retry_budget is not None:
            priority = max(
                (r.priority for r in batch if r.adapter_id == adapter_id),
                default=0,
            )
            if not self.retry_budget.try_spend(priority):
                self.metrics.retry_budget_exhausted += 1
                backoff = SWAP_RETRY_CAP_S
        return backoff

    def _open_breaker(self, adapter_id: str) -> None:
        """The adapter's breaker just opened: fail its traffic fast.

        Equivalent to the legacy quarantine (``adapters_quarantined``
        keeps counting open events), except an open breaker can
        half-open after its cooldown and serve again.
        """
        self._swap_backoff_until.pop(adapter_id, None)
        self.metrics.adapters_quarantined += 1
        self.metrics.breaker_opens += 1
        victims = [
            r for r in self._active.values() if r.adapter_id == adapter_id
        ]
        for r in victims:
            self._abort(r, AbortReason.ADAPTER_UNAVAILABLE)
        if self._breaker_config.cooldown_s is not None:
            # The breaker can half-open later: future arrivals stay
            # queued and are gated per-arrival by _breaker_admits (the
            # first one after cooldown is the probe).
            return
        still_pending = []
        for entry in self._pending:
            r = entry[2]
            if r.adapter_id == adapter_id:
                # A future arrival cannot be aborted before it arrives.
                r.abort(max(self.clock.now, r.arrival_time),
                        AbortReason.ADAPTER_UNAVAILABLE)
                self._record_terminal_abort(r)
            else:
                still_pending.append(entry)
        heapq.heapify(still_pending)
        self._pending = still_pending

    def _schedulable(self) -> List[Request]:
        """Active requests whose adapter is usable right now.

        A request sits out while its adapter is in swap backoff *and*
        not resident (resident adapters never need the failing swap).
        """
        now = self.clock.now
        # The horizon check makes expired-but-unpruned backoff entries
        # free: once the clock passes the latest expiry ever armed the
        # filter below cannot drop anything.
        if not self._swap_backoff_until or self._backoff_horizon <= now:
            return list(self._active.values())
        out = []
        for r in self._active.values():
            until = self._swap_backoff_until.get(r.adapter_id, 0.0)
            if until > now and not self.adapters.is_resident(r.adapter_id):
                continue
            out.append(r)
        return out

    def _advance_past_backoff(self) -> None:
        """Nothing schedulable: jump to the next backoff expiry/arrival."""
        horizons = [
            t for t in self._swap_backoff_until.values()
            if t > self.clock.now
        ]
        if self._pending:
            horizons.append(self._pending[0][0])
        if horizons:
            self.clock.advance_to(min(horizons))
        else:
            self.clock.advance(max(self._last_iteration_s, 1e-3))

    def _fail(self) -> None:
        """The injected GPU failure: stop serving, keep state for drain."""
        self.failed = True
        self.failed_at = self.clock.now
        self.metrics.engine_failures += 1

    def drain_orphans(self, count_hop: bool = True) -> List[Request]:
        """Hand over this engine's in-flight requests for requeue.

        KV state died with the GPU, so every request rewinds to WAITING
        and will re-prefill on whichever engine adopts it.  Failover
        passes ``count_hop=True`` (the default): each orphan burns one
        unit of its ``max_requeues`` failover budget.  The cluster's
        voluntary drain-timeout path passes ``count_hop=False`` — the
        host did not fail, so re-homing charges ``drain_hops`` instead.
        """
        now = self.clock.now
        orphans: List[Request] = []
        for r in self._active.values():
            if self.kv.has_sequence(r.request_id):
                self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            r.reset_for_requeue(now, count_hop=count_hop)
            orphans.append(r)
        for entry in self._pending:
            r = entry[2]
            r.reset_for_requeue(now, count_hop=count_hop)
            orphans.append(r)
        for r in self.handoff_outbox:
            # A finished prefill the cluster never collected: its KV
            # died with this GPU, so it re-prefills wherever it lands.
            r.reset_for_requeue(now, count_hop=count_hop)
            orphans.append(r)
        self._active = {}
        self._pending = []
        self.handoff_outbox = []
        self._adapter_counts = {}
        self._deadline_heap = []
        self._active_in_order = True
        self._last_admit_key = (float("-inf"), -1)
        return orphans

    def health_snapshot(self):
        """This replica's :class:`~repro.runtime.overload.ReplicaHealth`.

        Death counts both an observed failure (``failed``) and a fault
        schedule that has already killed the engine at its current clock
        (a pre-start ``ENGINE_FAIL``): dispatching to either loses the
        request until failover requeues it.
        """
        dead = self.failed or (
            self.faults is not None
            and self.faults.engine_failed(self.engine_id, self.clock.now,
                                          host=self.host)
        )
        return ReplicaHealth(
            dead=dead,
            queue_depth=self.num_live,
            iter_ewma=self.iter_time_ewma,
        )

    def _estimate_switch(self) -> float:
        if self._switch_estimate is None:
            any_spec = self.adapters.spec(self.adapters.resident_ids[0])
            self._switch_estimate = self.switcher.merge_seconds(any_spec)
        return self._switch_estimate

    def _apply_mode(self, mode: InferenceMode,
                    merged: Optional[str]) -> float:
        """Transition engine state; returns the switch cost paid."""
        if mode == self.current_mode and merged == self.current_merged:
            return 0.0
        from_spec = (
            self.adapters.spec(self.current_merged)
            if self.current_merged else None
        )
        to_spec = self.adapters.spec(merged) if merged else None
        cost = self.switcher.switch_seconds(
            self.current_mode, mode, from_spec, to_spec
        )
        if cost:
            self.clock.advance(cost)
            self.metrics.num_mode_switches += 1
            self.metrics.switch_time_total += cost
        self.current_mode = mode
        self.current_merged = merged
        return cost

    def _trace(self, mode, merged, batch, start, iteration_s, switch_s,
               swap_stall, preempt_before) -> None:
        from repro.runtime.tracing import IterationEvent

        prefill_tokens = sum(
            max(r.context_len - self._reused_tokens.get(r.request_id, 0), 1)
            for r in batch if r.generated == 1 and r.prefilled
            and r.first_token_time == self.clock.now
        )
        # Requests past their first round contributed one decode token.
        decode_tokens = sum(1 for r in batch if r.generated > 1)
        self.tracer.record(IterationEvent(
            index=self.metrics.iterations - 1,
            start=start,
            duration=iteration_s,
            mode=mode.value,
            merged_adapter=merged,
            batch_size=len(batch),
            prefill_tokens=prefill_tokens,
            decode_tokens=decode_tokens,
            adapters=tuple(sorted({r.adapter_id for r in batch})),
            switch_seconds=switch_s,
            swap_stall_seconds=swap_stall,
            preemptions=self.metrics.num_preemptions - preempt_before,
        ))

    def _admit_to_kv(self, batch: Sequence[Request]) -> List[Request]:
        admitted: List[Request] = []
        for r in batch:
            if r.prefilled:
                if (self.accepts_kv_transfers
                        and not self.kv.has_sequence(r.request_id)):
                    # Transferred-in hand-off: the sequence's KV stayed
                    # behind on the prefill replica; seed a local copy
                    # at its full context (the bytes just crossed the
                    # wire — the cluster already charged the move).
                    if not self.kv.can_allocate(r.context_len):
                        self.kv.evict_stale_prefixes(
                            self.clock.now - self.config.prefix_ttl_s
                        )
                    if not self.kv.can_allocate(r.context_len):
                        continue  # stays waiting; retried next iteration
                    self.kv.allocate(
                        r.request_id, r.context_len, now=self.clock.now,
                    )
                    self._reused_tokens[r.request_id] = 0
                admitted.append(r)
                continue
            prefix_key = (
                r.prefix_key if self.config.enable_prefix_reuse else None
            )
            if not self.kv.can_allocate(r.context_len):
                self.kv.evict_stale_prefixes(
                    self.clock.now - self.config.prefix_ttl_s
                )
            if not self.kv.can_allocate(r.context_len):
                continue  # stays waiting; retried next iteration
            # A preempted request re-prefills its prompt plus everything
            # it had already generated (recompute-style restart).
            reused = self.kv.allocate(
                r.request_id, r.context_len,
                prefix_key=prefix_key,
                prefix_tokens=r.prefix_tokens,
                now=self.clock.now,
            )
            self._reused_tokens[r.request_id] = reused
            admitted.append(r)
        return admitted

    def _ensure_decode_capacity(self, batch: Sequence[Request]) -> List[Request]:
        """Guarantee the decode appends of this iteration can allocate.

        When the cache cannot grow every decoding sequence by one token,
        the engine preempts the youngest running requests
        (recompute-style, like vLLM): their blocks are freed and they
        re-prefill later.  Preempted requests stay active and waiting.
        """
        batch = list(batch)
        block = self.kv.block_size
        while True:
            # Every batch member (prefill or decode) appends one token at
            # the end of the iteration; a sequence sitting exactly on a
            # block boundary needs one fresh block for it.  A batch
            # member's KV sequence always holds exactly ``context_len``
            # tokens (allocate() seeds it there, append_token() tracks
            # ``generated``), so no per-request cache lookups are needed.
            needed = sum(1 for r in batch if r.context_len % block == 0)
            if needed <= self.kv.free_blocks:
                return batch
            victim = self._pick_preemption_victim(batch)
            if victim is not None:
                self._preempt(victim)
                batch = [r for r in batch if r.request_id != victim.request_id]
                continue
            # Last resort: bounce a not-yet-prefilled admission back to
            # the waiting set.
            fresh = [r for r in batch if not r.prefilled]
            if len(batch) > 1 and fresh:
                bounced = fresh[-1]
                self.kv.free(bounced.request_id)
                self._reused_tokens.pop(bounced.request_id, None)
                batch = [r for r in batch if r.request_id != bounced.request_id]
                continue
            # Give up: roll back any fresh prefill allocations so the
            # requests can be re-admitted (or shed) cleanly later.
            for r in fresh:
                if self.kv.has_sequence(r.request_id):
                    self.kv.free(r.request_id)
                    self._reused_tokens.pop(r.request_id, None)
            return batch[:0]

    def _pick_preemption_victim(self, batch: Sequence[Request]):
        """Youngest prefilled request (in-batch last, else any active)."""
        prefilled_batch = [r for r in batch if r.prefilled]
        batch_ids = {r.request_id for r in batch}
        outside = [
            r for r in self._active.values()
            if r.prefilled and r.request_id not in batch_ids
        ]
        pool = outside or prefilled_batch
        if len(pool) <= 1 and pool == prefilled_batch:
            return None  # never preempt the last runnable request
        return max(pool, key=lambda r: (r.arrival_time, r.request_id))

    def _preempt(self, req: Request) -> None:
        self.kv.free(req.request_id)
        self._reused_tokens.pop(req.request_id, None)
        req.prefilled = False
        req.status = RequestStatus.WAITING
        self.metrics.num_preemptions += 1

    def _trim_to_adapter_slots(self, batch: Sequence[Request],
                               merged: Optional[str]) -> List[Request]:
        """Keep at most ``gpu_slots`` distinct adapters in one batch.

        A batch can only execute against GPU-resident adapters; requests
        whose adapter would exceed the slot count stay waiting (their
        turn comes once earlier adapters drain).
        """
        allowed = set([merged] if merged else [])
        budget = self.adapters.gpu_slots
        kept: List[Request] = []
        for r in batch:
            if r.adapter_id not in allowed:
                if len(allowed) >= budget:
                    continue
                allowed.add(r.adapter_id)
            kept.append(r)
        return kept

    def _batch_adapters(self, batch: Sequence[Request],
                        decision) -> List[str]:
        ids = [r.adapter_id for r in batch]
        if decision.merged_adapter:
            ids.append(decision.merged_adapter)
        return list(dict.fromkeys(ids))

    def _rank_of(self, adapter_id: str) -> int:
        rank = self._rank_cache.get(adapter_id)
        if rank is None:
            rank = self.adapters.spec(adapter_id).rank
            self._rank_cache[adapter_id] = rank
        return rank

    def _task_classes_of(self, adapter_id: str) -> int:
        classes = self._task_class_cache.get(adapter_id)
        if classes is None:
            classes = self.adapters.spec(adapter_id).task_head_classes or 101
            self._task_class_cache[adapter_id] = classes
        return classes

    def _execute(self, batch: Sequence[Request], mode: InferenceMode,
                 merged: Optional[str]) -> float:
        """Cost one iteration over ``batch`` and return its latency."""
        if self.cost_cache is not None:
            return self._execute_cached(batch, mode, merged)
        return self._execute_uncached(batch, mode, merged)

    def _execute_cached(self, batch: Sequence[Request],
                        mode: InferenceMode,
                        merged: Optional[str]) -> float:
        """Memoized twin of :meth:`_execute_uncached`.

        Builds the :class:`BatchSignature` of this batch and looks up
        ``(base cost, extra-cost mean)``; only the jitter sample on the
        extra cost runs per iteration, drawn from the same rng stream at
        the same points as the uncached path, so runs are bit-identical
        either way.  Each phase executor contributes its slice of the
        signature and its adapter-token share, in prefill-then-decode
        order (the dict insertion order the signature keys on).
        """
        adapter_tokens: Dict[str, int] = {}
        fields: Dict[str, object] = {}
        for executor in self.phase_executors:
            requests = executor.select(batch)
            plan = executor.plan(requests)
            fields.update(executor.signature_fields(requests, plan))
            executor.accumulate_tokens(requests, plan, adapter_tokens)

        groups = tuple(adapter_tokens.items())
        ranks = tuple(
            (a, self._rank_of(a)) for a in adapter_tokens
        )
        if merged is not None and merged not in adapter_tokens:
            ranks += ((merged, self._rank_of(merged)),)

        sig = BatchSignature(
            mode=mode,
            merged_adapter=merged,
            adapter_groups=groups,
            adapter_ranks=ranks,
            **fields,
        )
        base, extra_mean = self.cost_cache.lookup(sig)
        if not adapter_tokens:
            return base
        extra = self.mode_exec.extra_seconds_from_mean(extra_mean, self._rng)
        self.metrics.lora_extra_time_total += extra
        return base + extra

    def _execute_uncached(self, batch: Sequence[Request],
                          mode: InferenceMode,
                          merged: Optional[str]) -> float:
        """Reference path: re-derive every cost through the model tower.

        Phase costs add in prefill-then-decode order — the same float
        evaluation order as the pre-refactor monolithic loop.
        """
        t = 0.0
        adapter_tokens: Dict[str, int] = {}
        for executor in self.phase_executors:
            requests = executor.select(batch)
            plan = executor.plan(requests)
            t += executor.cost_seconds(requests, plan)
            executor.accumulate_tokens(requests, plan, adapter_tokens)

        if adapter_tokens:
            ranks = {
                a: self.adapters.spec(a).rank for a in adapter_tokens
            }
            if merged is not None:
                ranks.setdefault(merged, self.adapters.spec(merged).rank)
            extra = self.mode_exec.extra_seconds(
                mode, adapter_tokens, ranks,
                merged_adapter=merged,
                rng=self._rng,
            )
            t += extra
            self.metrics.lora_extra_time_total += extra
        return t

    def _finalize(self, batch: Sequence[Request]) -> None:
        now = self.clock.now
        # Brownout level >= 2 caps decode lengths: a capped request
        # completes early with a truncated answer (degraded service)
        # instead of holding its batch slot and KV for the full decode.
        cap = self._brownout.decode_cap if self._brownout is not None else None
        finished: List[Request] = []
        handoffs: List[Request] = []
        for r in batch:
            executor = self.decode_exec if r.prefilled else self.prefill_exec
            executor.advance(r)
            if r.is_finished or (cap is not None and r.generated >= cap):
                if not r.is_finished:
                    self.metrics.brownout_truncations += 1
                r.finish_time = now
                r.status = RequestStatus.FINISHED
                finished.append(r)
            elif (self.handoff_after_prefill
                    and executor is self.prefill_exec):
                handoffs.append(r)
        for r in finished:
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            if self._fencing:
                self.completion_outbox.append(Completion(
                    request=r, token=r.lease, kind="finish",
                    record=RequestRecord.from_request(r), time=now,
                ))
            else:
                self.metrics.complete(r)
        for r in handoffs:
            # Disaggregated prefill pool: the request's KV leaves with
            # it over the wire.  The local copy is released here; the
            # cluster's transfer pass prices the move and re-homes the
            # request on a decode replica.
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            self.handoff_outbox.append(r)
