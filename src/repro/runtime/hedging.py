"""Tail-tolerant dispatch: hedged requests, retry budgets, timeout policy.

Interactive vision applications are judged by p99 TTFT, not mean
throughput (§6.1) — and at S-LoRA adapter counts one swap-stalled or
straggling replica drags the tail even when the rest of the fleet is
healthy.  This module supplies the three classic tail-tolerance
primitives (Dean & Barroso, "The Tail at Scale"; Google SRE's retry
budgets), built on PR 6's lease-fenced exactly-once machinery:

* :func:`capped_exponential_backoff` — the one shared backoff curve
  behind the engine's swap retries and the cluster's failover requeues
  (previously duplicated ad hoc at both call sites);
* :class:`TimeoutPolicy` — the tail-tolerance deadlines
  (``hedge_after_s``, ``give_up_after_s``);
* :class:`RetryBudget` — a per-priority-class token bucket that gates
  *every* speculative or repeated dispatch (hedges, swap retries,
  failover requeues) so correlated failures degrade to single-shot
  dispatch instead of amplifying load into a retry storm;
* :class:`HedgeConfig` / :class:`HedgeTracker` — percentile-tracked
  hedge thresholds: when a request's time in flight crosses the
  observed p95 (configurable) of recent completions in its priority
  class, the cluster dispatches a second copy to a different healthy
  replica; first completion wins and the loser is fenced
  (``hedge_losses``), never double-terminating the request.

Everything here is plain simulation state driven by the caller's clock:
deterministic, replayable, and **off by default** — a cluster built
without a :class:`HedgeConfig`, :class:`RetryBudget`, or
:class:`TimeoutPolicy` is bit-identical to the pre-hedging runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.runtime.metrics import StreamingQuantile
from repro.runtime.request import Request

__all__ = [
    "capped_exponential_backoff",
    "TimeoutPolicy",
    "RetryBudgetConfig",
    "RetryBudget",
    "HedgeConfig",
    "HedgeTracker",
]


def capped_exponential_backoff(base_s: float, attempt: int,
                               cap_s: float) -> float:
    """Delay before retry number ``attempt`` (1-based): min(base·2^(n-1), cap).

    The single backoff curve shared by the engine's adapter-swap retries
    (``attempt`` = consecutive swap failures) and the cluster's failover
    requeues (``attempt`` = requeue count).  ``attempt <= 1`` pays the
    base delay; the delay doubles per attempt and saturates at ``cap_s``.
    """
    if base_s < 0 or cap_s < 0:
        raise ValueError("backoff base and cap must be >= 0")
    if base_s == 0.0:
        return 0.0
    return min(base_s * 2.0 ** max(0, attempt - 1), cap_s)


@dataclass(frozen=True)
class TimeoutPolicy:
    """The two tail-tolerance deadlines of a served request.

    ``hedge_after_s`` fixes the hedge threshold (bypassing the
    percentile tracker), and ``give_up_after_s`` bounds any request's
    total time in the system — threaded through the engine's existing
    deadline machinery (``AbortReason.DEADLINE_EXCEEDED``) for requests
    that carry no deadline of their own.

    The runtime's other timing constants each live with the mechanism
    they time: swap-retry backoff in :mod:`repro.runtime.engine`,
    breaker cooldown in :class:`~repro.runtime.overload.BreakerConfig`,
    requeue backoff in :class:`~repro.runtime.cluster.MultiGPUServer`
    and the drain timeout in
    :class:`~repro.runtime.autoscaler.AutoscaleConfig`.
    """

    #: Fixed hedge threshold: hedge any request in flight longer than
    #: this.  ``None`` uses the percentile-tracked threshold instead.
    hedge_after_s: Optional[float] = None
    #: Hard bound on any request's time in system; requests without
    #: their own ``deadline_s`` inherit it at submit.
    give_up_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("hedge_after_s", "give_up_after_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def stamp_deadlines(self, requests: Iterable[Request]) -> None:
        """Give every deadline-less request the ``give_up_after_s`` bound.

        The one place the give-up deadline enters the runtime, shared
        by the cluster's submit and single-engine callers.
        """
        if self.give_up_after_s is None:
            return
        for r in requests:
            if r.deadline_s is None:
                r.deadline_s = self.give_up_after_s


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Knobs for :class:`RetryBudget`.

    ``ratio`` is the classic SRE rule ("retries may add at most 10% to
    traffic"): every first-time dispatch earns its priority class
    ``ratio`` tokens, every speculative or repeated dispatch (hedge,
    swap retry, failover requeue) spends one.  ``burst`` caps how many
    tokens a class can bank, so a long quiet period cannot fund an
    unbounded storm later; ``initial`` seeds each bucket so early
    failures are not starved before traffic has accrued credit.
    """

    ratio: float = 0.1
    burst: float = 20.0
    initial: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if not 0.0 <= self.initial <= self.burst:
            raise ValueError(
                f"initial must be in [0, burst], got {self.initial}"
            )


class RetryBudget:
    """Per-priority-class token bucket gating retries and hedges.

    One shared instance sits between the cluster and every replica
    engine, so *all* redundant work — hedged copies, swap retries,
    failover requeues — draws down the same budget.  Under isolated
    failures the bucket stays topped up and every retry is allowed;
    under correlated failure (mass requeue, every adapter failing) the
    bucket drains and the runtime degrades to single-shot dispatch
    instead of amplifying the overload.  ``exhausted`` counts denials
    (surfaced as the ``retry_budget_exhausted`` metric).
    """

    def __init__(self, config: Optional[RetryBudgetConfig] = None):
        self.config = config or RetryBudgetConfig()
        self._tokens: Dict[int, float] = {}
        self.exhausted = 0
        self.spent = 0

    def _bucket(self, priority: int) -> float:
        return self._tokens.setdefault(priority, self.config.initial)

    def tokens(self, priority: int) -> float:
        """Current balance of the class's bucket (for tests/benches)."""
        return self._bucket(priority)

    def deposit(self, priority: int) -> None:
        """Credit one first-time dispatch in ``priority``'s class."""
        self._tokens[priority] = min(
            self._bucket(priority) + self.config.ratio, self.config.burst
        )

    def try_spend(self, priority: int) -> bool:
        """Spend one token for a retry/hedge; False when exhausted."""
        balance = self._bucket(priority)
        if balance >= 1.0:
            self._tokens[priority] = balance - 1.0
            self.spent += 1
            return True
        self.exhausted += 1
        return False


@dataclass(frozen=True)
class HedgeConfig:
    """Knobs for cluster-level hedged dispatch.

    A request whose time in flight exceeds its priority class's
    ``percentile`` of recently observed completion latencies (window of
    ``window`` samples, armed only after ``min_observations``) is
    speculatively re-dispatched to a different healthy replica — at most
    once per request.  ``interval_s`` is the control-epoch length when
    neither an autoscaler nor a failure detector already provides one.
    """

    percentile: float = 95.0
    min_observations: int = 16
    window: int = 256
    interval_s: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile < 100.0:
            raise ValueError(
                f"percentile must be in (0, 100), got {self.percentile}"
            )
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if self.window < self.min_observations:
            raise ValueError("window must be >= min_observations")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


class HedgeTracker:
    """Percentile-tracked hedge thresholds per priority class.

    Observes every accepted completion's end-to-end latency through a
    sliding-window :class:`~repro.runtime.metrics.StreamingQuantile`;
    :meth:`threshold` answers "how long is suspiciously long for this
    class right now?".  ``None`` until enough completions were seen —
    hedging stays disarmed while the system knows nothing (unless a
    :class:`TimeoutPolicy` supplies a fixed ``hedge_after_s``).
    """

    def __init__(self, config: HedgeConfig,
                 policy: Optional[TimeoutPolicy] = None):
        self.config = config
        self.policy = policy
        self._quantiles: Dict[int, StreamingQuantile] = {}

    def observe(self, priority: int, latency_s: float) -> None:
        q = self._quantiles.get(priority)
        if q is None:
            q = StreamingQuantile(window=self.config.window)
            self._quantiles[priority] = q
        q.observe(latency_s)

    def threshold(self, priority: int) -> Optional[float]:
        if self.policy is not None and self.policy.hedge_after_s is not None:
            return self.policy.hedge_after_s
        q = self._quantiles.get(priority)
        if q is None or len(q) < self.config.min_observations:
            return None
        return q.quantile(self.config.percentile)
