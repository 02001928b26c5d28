"""Overload protection: admission control, brownout, circuit breakers.

PR 1 made the runtime survive injected faults *reactively* (stall, shed,
quarantine, failover).  This module protects the system *before* it is
in trouble, the way production multi-tenant LoRA stacks do (S-LoRA's
early-abort admission control, brownout tiers in overloaded web serving,
circuit breakers around flaky dependencies):

* :class:`AdmissionController` — token-bucket rate limiting plus
  queue-depth / KV-headroom watermarks and SLO-aware early rejection,
  applied the moment a request crosses into the engine's queue
  (``AbortReason.ADMISSION_REJECTED``).  Rejecting at the door is far
  cheaper than aborting after prefill: no KV was allocated, no batch
  slot wasted.
* :class:`BrownoutController` — degraded-service tiers under sustained
  pressure.  Level 1 sheds the lowest-priority waiting work, level 2
  additionally caps decode lengths, level 3 additionally forces merged
  execution of the hottest adapter (maximum throughput mode).  An EWMA
  pressure signal with enter/exit thresholds and a dwell time gives the
  controller hysteresis so it recovers cleanly instead of flapping.
* :class:`AdapterBreaker` — a closed → open → half-open circuit breaker
  per adapter, replacing the engine's permanent quarantine set.  An
  adapter whose swap-ins keep failing is opened (fail fast, abort its
  traffic), then re-probed after a cooldown; a successful probe closes
  the breaker and the adapter serves again.
* :class:`ReplicaHealth` — a per-replica health score (death, EWMA
  iteration slowdown, queue depth) the cluster dispatcher uses to route
  around stragglers and dead replicas.

Every controller is pure simulation state driven by the caller's clock:
deterministic, replayable, and off by default (``None`` config knobs in
:class:`~repro.runtime.engine.EngineConfig` keep the engine bit-identical
to the unprotected runtime).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.runtime.request import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    Request,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionVerdict",
    "BrownoutConfig",
    "BrownoutController",
    "BreakerConfig",
    "BreakerState",
    "AdapterBreaker",
    "EwmaSignal",
    "ReplicaHealth",
]

#: Requests below ``PRIORITY_NORMAL`` meet the queue watermark at this
#: fraction of it, so paid traffic keeps its headroom.
LOW_PRIORITY_FACTOR = 0.5
#: Requests at or above this priority bypass the admission bucket and
#: queue watermarks (never the impossible-deadline check).
ADMISSION_EXEMPT_PRIORITY = PRIORITY_HIGH

#: Brownout pressure rises above 1 once the KV free fraction drops
#: below this floor.
BROWNOUT_KV_LOW = 0.05
#: Smoothed pressure above which brownout escalates one level ...
BROWNOUT_ENTER_PRESSURE = 1.0
#: ... and below which it de-escalates one (the gap is the hysteresis).
BROWNOUT_EXIT_PRESSURE = 0.6
#: Minimum simulated seconds between two brownout transitions.
BROWNOUT_DWELL_S = 0.5
#: Deepest brownout tier (1 shed, 2 decode cap, 3 forced merge).
BROWNOUT_MAX_LEVEL = 3
#: Level 1 sheds only waiting requests below this priority.
BROWNOUT_SHED_PRIORITY_FLOOR = PRIORITY_NORMAL

#: Each re-open of an adapter breaker multiplies its cooldown by this ...
BREAKER_COOLDOWN_MULTIPLIER = 2.0
#: ... up to this ceiling.
BREAKER_MAX_COOLDOWN_S = 60.0


# ---------------------------------------------------------------------------
# Smoothed pressure signals
# ---------------------------------------------------------------------------

class EwmaSignal:
    """An exponentially-weighted moving average of a pressure signal.

    The shared smoothing primitive behind brownout pressure and the
    autoscaler's queue-depth / SLO-miss signals: one sample per
    controller step, ``value += alpha * (raw - value)``.  Deterministic
    and clock-free — the caller decides the sampling cadence.
    """

    def __init__(self, alpha: float, initial: float = 0.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = initial

    def observe(self, raw: float) -> float:
        """Fold one sample in; returns the smoothed value."""
        self.value += self.alpha * (raw - self.value)
        return self.value


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class AdmissionVerdict(enum.Enum):
    """Why the admission controller turned a request away."""

    RATE_LIMITED = "rate_limited"          # token bucket empty
    QUEUE_FULL = "queue_full"              # queue-depth watermark hit
    KV_PRESSURE = "kv_pressure"            # KV headroom below watermark
    DEADLINE_UNMEETABLE = "deadline_unmeetable"  # SLO-aware early reject


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for :class:`AdmissionController` (all checks optional).

    ``rate_tokens_per_s`` meters admission in *tokens* (input + output),
    not requests, so one long generation costs as much as many short
    classifications.  ``burst_tokens`` is the bucket capacity (defaults
    to one second of refill).  ``max_queue_depth`` bounds the live
    request count; requests below ``PRIORITY_NORMAL`` are turned away at
    :data:`LOW_PRIORITY_FACTOR` of the watermark so paid traffic keeps
    its headroom.  ``min_kv_headroom`` rejects arrivals while the free-block
    fraction of the KV cache is below the floor.  ``slo_reject`` aborts
    a deadline-carrying request at admission when the deadline is
    already unmeetable at the current queue depth (a lower bound: every
    ``max_batch_size`` requests ahead of it cost at least one
    iteration).  Requests at or above :data:`ADMISSION_EXEMPT_PRIORITY`
    bypass the bucket and queue watermarks (never the impossible-deadline
    check).
    """

    rate_tokens_per_s: Optional[float] = None
    burst_tokens: Optional[float] = None
    max_queue_depth: Optional[int] = None
    min_kv_headroom: Optional[float] = None
    slo_reject: bool = False

    def __post_init__(self) -> None:
        if self.rate_tokens_per_s is not None and self.rate_tokens_per_s <= 0:
            raise ValueError("rate_tokens_per_s must be positive")
        if self.burst_tokens is not None and self.burst_tokens <= 0:
            raise ValueError("burst_tokens must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if (self.min_kv_headroom is not None
                and not 0.0 <= self.min_kv_headroom < 1.0):
            raise ValueError("min_kv_headroom must be in [0, 1)")


class AdmissionController:
    """Stateful gatekeeper evaluated once per arriving request."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        cap = config.burst_tokens
        if cap is None and config.rate_tokens_per_s is not None:
            cap = config.rate_tokens_per_s
        self._bucket_capacity = cap
        self._tokens = cap if cap is not None else 0.0
        self._last_refill = 0.0

    # -- token bucket --------------------------------------------------------

    def _refill(self, now: float) -> None:
        rate = self.config.rate_tokens_per_s
        if rate is None:
            return
        if now > self._last_refill:
            self._tokens = min(
                self._bucket_capacity,
                self._tokens + (now - self._last_refill) * rate,
            )
        self._last_refill = max(self._last_refill, now)

    # -- the decision --------------------------------------------------------

    def evaluate(
        self,
        req: Request,
        now: float,
        *,
        queue_depth: int,
        kv_free_frac: float,
        est_iteration_s: float,
        max_batch_size: int,
        deadline_s: Optional[float] = None,
    ) -> Optional[AdmissionVerdict]:
        """``None`` to admit, or the verdict that rejected ``req``.

        An admitted request is charged against the token bucket; a
        rejected one is not (it consumed no capacity).
        """
        cfg = self.config
        self._refill(now)
        exempt = req.priority >= ADMISSION_EXEMPT_PRIORITY
        if not exempt:
            depth_limit = cfg.max_queue_depth
            if depth_limit is not None:
                if req.priority < PRIORITY_NORMAL:
                    depth_limit = max(
                        1, int(depth_limit * LOW_PRIORITY_FACTOR)
                    )
                if queue_depth >= depth_limit:
                    return AdmissionVerdict.QUEUE_FULL
            if (cfg.min_kv_headroom is not None
                    and kv_free_frac < cfg.min_kv_headroom):
                return AdmissionVerdict.KV_PRESSURE
            if (cfg.rate_tokens_per_s is not None
                    and self._tokens < req.total_tokens):
                return AdmissionVerdict.RATE_LIMITED
        if cfg.slo_reject and deadline_s is not None:
            # Lower bound on queueing delay: the requests already in the
            # system fill batches of at most ``max_batch_size``, and each
            # batch costs at least one iteration before this arrival can
            # even start.
            rounds_ahead = queue_depth // max(1, max_batch_size)
            wait_floor = rounds_ahead * max(est_iteration_s, 0.0)
            if wait_floor > deadline_s:
                return AdmissionVerdict.DEADLINE_UNMEETABLE
        if cfg.rate_tokens_per_s is not None and not exempt:
            self._tokens -= req.total_tokens
        return None


# ---------------------------------------------------------------------------
# Brownout (degraded service tiers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownoutConfig:
    """Knobs for :class:`BrownoutController`.

    The pressure signal is ``queue_depth / queue_high``, worsened when
    KV free space drops below :data:`BROWNOUT_KV_LOW`; it is
    EWMA-smoothed with ``ewma_alpha`` per engine step.  The controller
    escalates one level when smoothed pressure exceeds
    :data:`BROWNOUT_ENTER_PRESSURE` and de-escalates when it falls below
    :data:`BROWNOUT_EXIT_PRESSURE`, with at least :data:`BROWNOUT_DWELL_S`
    simulated seconds between transitions (hysteresis: the exit
    threshold sits well under the entry threshold so the system must
    genuinely drain before service is restored).

    Tiers (cumulative, up to :data:`BROWNOUT_MAX_LEVEL`):

    1. shed waiting requests below :data:`BROWNOUT_SHED_PRIORITY_FLOOR`;
    2. cap decode lengths at ``decode_cap`` tokens;
    3. force merged execution of the hottest adapter.
    """

    queue_high: int = 64
    ewma_alpha: float = 0.3
    decode_cap: int = 32

    def __post_init__(self) -> None:
        if self.queue_high < 1:
            raise ValueError("queue_high must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.decode_cap < 1:
            raise ValueError("decode_cap must be >= 1")


class BrownoutController:
    """Tracks pressure and the current degradation level."""

    def __init__(self, config: BrownoutConfig):
        self.config = config
        self.level = 0
        self._pressure = EwmaSignal(config.ewma_alpha)
        self._last_transition = float("-inf")
        self._last_observed: Optional[float] = None
        self.time_degraded = 0.0
        self.transitions = 0

    @property
    def pressure(self) -> float:
        return self._pressure.value

    def observe(self, now: float, queue_depth: int,
                kv_free_frac: float) -> int:
        """Fold one engine-step sample into the signal; returns level."""
        cfg = self.config
        raw = queue_depth / cfg.queue_high
        if kv_free_frac < BROWNOUT_KV_LOW:
            raw = max(raw, 1.0 + (BROWNOUT_KV_LOW - kv_free_frac)
                      / BROWNOUT_KV_LOW)
        self._pressure.observe(raw)
        if self._last_observed is not None and self.level > 0:
            self.time_degraded += max(0.0, now - self._last_observed)
        self._last_observed = now
        if now - self._last_transition >= BROWNOUT_DWELL_S:
            if (self.pressure > BROWNOUT_ENTER_PRESSURE
                    and self.level < BROWNOUT_MAX_LEVEL):
                self.level += 1
                self._last_transition = now
                self.transitions += 1
            elif self.pressure < BROWNOUT_EXIT_PRESSURE and self.level > 0:
                self.level -= 1
                self._last_transition = now
                self.transitions += 1
        return self.level

    def shed_victims(self, waiting: Sequence[Request],
                     excess: int) -> List[Request]:
        """Lowest-priority-first victims among waiting requests.

        Level 1 only sheds below :data:`BROWNOUT_SHED_PRIORITY_FLOOR`;
        deeper levels shed any waiting request, still lowest priority
        (then youngest) first so high-priority work survives longest.
        """
        if excess <= 0 or not waiting:
            return []
        pool = list(waiting)
        if self.level <= 1:
            pool = [
                r for r in pool
                if r.priority < BROWNOUT_SHED_PRIORITY_FLOOR
            ]
        pool.sort(key=lambda r: (r.priority, -r.arrival_time, -r.request_id))
        return pool[:excess]

    @property
    def decode_cap(self) -> Optional[int]:
        """Active decode-length cap, or ``None`` below level 2."""
        return self.config.decode_cap if self.level >= 2 else None

    @property
    def force_merged(self) -> bool:
        return self.level >= 3

    @property
    def hedging_allowed(self) -> bool:
        """Tail-tolerance gate: any brownout tier (L1+) disables hedged
        dispatch — a browned-out replica must shed load, not receive
        speculative duplicates of work that already exists elsewhere."""
        return self.level < 1


# ---------------------------------------------------------------------------
# Per-adapter circuit breakers
# ---------------------------------------------------------------------------

class BreakerState(enum.Enum):
    CLOSED = "closed"          # normal service
    OPEN = "open"              # failing fast; traffic aborted
    HALF_OPEN = "half_open"    # cooldown elapsed; probe traffic allowed


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs for :class:`AdapterBreaker`.

    ``failure_threshold`` consecutive swap failures open the breaker
    (the engine's quarantine count).  ``cooldown_s=None`` keeps an opened breaker open forever —
    exactly the old permanent quarantine.  With a cooldown, the breaker
    re-probes (half-open) after ``cooldown_s``, scaled by
    :data:`BREAKER_COOLDOWN_MULTIPLIER` on every re-open up to
    :data:`BREAKER_MAX_COOLDOWN_S`;
    a single failed probe re-opens, a successful one closes.
    """

    failure_threshold: int = 5
    cooldown_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s is not None and self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")


class AdapterBreaker:
    """Circuit breaker guarding one adapter's swap path."""

    def __init__(self, adapter_id: str, config: BreakerConfig):
        self.adapter_id = adapter_id
        self.config = config
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.open_count = 0

    def _cooldown(self) -> Optional[float]:
        base = self.config.cooldown_s
        if base is None:
            return None
        scaled = base * BREAKER_COOLDOWN_MULTIPLIER ** max(
            0, self.open_count - 1
        )
        return min(scaled, BREAKER_MAX_COOLDOWN_S)

    def _maybe_half_open(self, now: float) -> None:
        if self.state is not BreakerState.OPEN:
            return
        cooldown = self._cooldown()
        if cooldown is None or self.opened_at is None:
            return
        if now >= self.opened_at + cooldown:
            self.state = BreakerState.HALF_OPEN

    def admit_allowed(self, now: float) -> bool:
        """May a new request for this adapter enter the queue?"""
        self._maybe_half_open(now)
        return self.state is not BreakerState.OPEN

    def record_failure(self, now: float) -> bool:
        """Count one swap failure; True when this opened the breaker.

        A half-open probe trips straight back to open; a closed breaker
        opens after ``failure_threshold`` consecutive failures.
        """
        self._maybe_half_open(now)
        self.consecutive_failures += 1
        should_open = (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures > self.config.failure_threshold
        )
        if should_open and self.state is not BreakerState.OPEN:
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.open_count += 1
            return True
        return False

    def record_success(self, now: float) -> bool:
        """Count one swap success; True when this closed the breaker."""
        self._maybe_half_open(now)
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.opened_at = None
            return True
        return False


# ---------------------------------------------------------------------------
# Replica health (cluster dispatch)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaHealth:
    """One replica's health snapshot, scored in [0, 1].

    ``0.0`` means dead (never dispatch).  A live replica's score decays
    with its EWMA iteration slowdown relative to its peers and with its
    queue depth relative to ``queue_norm`` — both symptoms precede
    outright failure, which is the point of routing around them early.
    A ``suspected`` replica (failure detector past ``phi_suspect`` but
    not yet confirmed) keeps a nonzero score — it may well be alive —
    but is heavily discounted so dispatch prefers any unsuspected peer.
    """

    dead: bool
    queue_depth: int
    iter_ewma: Optional[float]
    suspected: bool = False

    def score(self, peer_iter_ewma: Optional[float],
              queue_norm: int = 64) -> float:
        if self.dead:
            return 0.0
        slowdown = 1.0
        if (self.iter_ewma is not None and peer_iter_ewma is not None
                and peer_iter_ewma > 0):
            slowdown = max(1.0, self.iter_ewma / peer_iter_ewma)
        queue_penalty = 1.0 + self.queue_depth / max(1, queue_norm)
        score = 1.0 / (slowdown * queue_penalty)
        if self.suspected:
            score *= 0.25
        return score
