"""Scheduling policies: Algorithm 1 and the baselines it is compared to.

The orchestrator's greedy heuristic (§4.4.3):

1. run **merged** whenever possible — fastest, zero extra cost;
2. when starvation appears, prefer **mixture** (no merged->unmerged
   switch cost, extra compute only for the minority), then **unmerged**.

Starvation is tracked by a per-request *credit*: waiting time plus the
estimated execution time in the current mode plus the mode-switch
latency; a request whose credit exceeds the tolerance θ is starving.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.modes import InferenceMode
from repro.runtime.request import Request


@dataclass(slots=True)
class SchedulingContext:
    """What the engine tells the policy about the world."""

    now: float
    current_mode: InferenceMode
    current_merged: Optional[str]
    max_batch_size: int
    est_iteration_seconds: float
    est_switch_seconds: float
    #: True when ``candidates`` already arrive in FCFS order
    #: (arrival_time, request_id); policies may then skip their sorts —
    #: bit-identical, since that key is a total order (ids are unique).
    candidates_fcfs: bool = False
    #: Incrementally maintained ``adapter -> live request count`` equal
    #: to ``Counter(r.adapter_id for r in candidates)``; ``None`` when
    #: the engine filtered the candidate set (counts would be stale).
    #: Policies must treat it as read-only.
    adapter_counts: Optional[Dict[str, int]] = None


@dataclass(slots=True)
class SoAScheduleContext:
    """SoA twin of :class:`SchedulingContext`.

    The struct-of-arrays core identifies adapters by *index* into its
    interned adapter table rather than by id string;
    ``current_merged`` is that index (``-1`` = no merged adapter).
    Candidates are implicit: the queue view passed alongside always
    exposes the full live set in FCFS order with fresh per-adapter
    counts, so the ``candidates_fcfs`` / ``adapter_counts`` flags of the
    object context are structurally always true here.
    """

    now: float
    current_mode: InferenceMode
    current_merged: int
    max_batch_size: int
    est_iteration_seconds: float
    est_switch_seconds: float


@dataclass(slots=True)
class SoADecision:
    """SoA twin of :class:`SchedulerDecision`.

    ``batch`` holds pool indices in batch order; ``merged`` is an
    adapter index (``-1`` = none).  Constructed only by the
    ``schedule_soa`` fast paths, which guarantee the invariants that
    :class:`SchedulerDecision.__post_init__` checks on the object path.
    """

    batch: np.ndarray
    mode: InferenceMode
    merged: int = -1


@dataclass(slots=True)
class SchedulerDecision:
    """What to run next."""

    batch: List[Request]
    mode: InferenceMode
    merged_adapter: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.batch:
            raise ValueError("a decision needs a non-empty batch")
        if self.mode in (InferenceMode.MERGED, InferenceMode.MIXTURE):
            if self.merged_adapter is None:
                raise ValueError(f"{self.mode} requires a merged adapter")
        if self.mode is InferenceMode.MERGED:
            foreign = {
                r.adapter_id for r in self.batch
            } - {self.merged_adapter}
            if foreign:
                raise ValueError(
                    f"merged batch contains foreign adapters {sorted(foreign)}"
                )


def pick_shed_victim(pool: Sequence[Request],
                     now: float) -> Optional[Request]:
    """The cheapest request to abort under overload.

    Lowest priority class goes first (overload protection's contract:
    background work is shed before interactive work), then lowest
    credit.  Credit is the anti-starvation currency (§4.4.3): a low
    credit means the request has waited least and loses least progress.
    Policies that do not maintain credits leave it at 0, so ties break
    toward the youngest arrival (shed the newest work first, like
    S-LoRA's early-abort admission control).  With every request at the
    default priority the pick reduces to the legacy credit-keyed one.
    """
    if not pool:
        return None
    return min(pool, key=lambda r: (r.priority, r.credit,
                                    -r.arrival_time, -r.request_id))


class SchedulingPolicy(abc.ABC):
    """Picks the next batch, mode, and merged adapter."""

    name: str = "abstract"

    @abc.abstractmethod
    def schedule(
        self, candidates: Sequence[Request], ctx: SchedulingContext
    ) -> Optional[SchedulerDecision]:
        """Return the next decision, or ``None`` when nothing to run."""

    def refresh_credits(self, requests: Sequence[Request],
                        ctx: SchedulingContext) -> None:
        """Recompute ``request.credit`` under ``ctx``.

        :meth:`schedule` skips the per-candidate credit writes when the
        engine hands over FCFS order and adapter counts; callers that
        *read* credits (shed-victim selection) invoke this first so the
        values match the scheduling context.  Policies without credits
        no-op.
        """

    # -- struct-of-arrays fast paths (runtime/soa_core.py) -------------------
    #
    # ``view`` is a queue view over the SoA engine's request pool:
    #   view.n_live            -> live candidate count
    #   view.counts            -> int64[num_adapters] live count per adapter
    #   view.adapter_order     -> int64[num_adapters] lexicographic rank of
    #                             each adapter id (the _top_adapter tie-break)
    #   view.arrival           -> float64 pool array (index by pool idx)
    #   view.adapter_idx       -> int32 pool array of adapter indices
    #   view.credit            -> float64 pool array (shed-victim currency)
    #   view.live_prefix(k)    -> first k live pool indices, FCFS order
    #   view.match_after(a, limit, skip) -> first ``limit`` live indices of
    #                             adapter ``a`` after skipping ``skip`` live
    #   view.first_other(a)    -> first live index with adapter != a, or -1
    #
    # Each ``schedule_soa`` is the decision-identical twin of the object
    # path's ordered pass: same branches, same float expressions, same
    # tie-breaks — property-tested in tests/runtime/test_soa_core.py.

    def schedule_soa(self, view, ctx: SoAScheduleContext):
        """Vectorized twin of :meth:`schedule` over an SoA queue view."""
        raise NotImplementedError(
            f"policy {self.name!r} has no SoA scheduling path"
        )

    def refresh_credits_soa(self, idx: np.ndarray, view,
                            ctx: SoAScheduleContext) -> None:
        """SoA twin of :meth:`refresh_credits` (writes ``view.credit``)."""

    @staticmethod
    def _top_adapter_soa(view) -> int:
        """Adapter index with the most live requests; ties break toward
        the lexicographically smallest adapter *id* — the same order
        :meth:`_top_adapter`'s ``min(counts, key=...)`` uses.

        One max over a composite key: ranks are distinct ints in
        ``[0, A)``, so ``counts * A - rank`` is maximal exactly at the
        highest count with the smallest rank, and the keys are unique
        (no reliance on argmax's first-hit tie rule).  Few-adapter pools
        take a plain int loop — three numpy dispatches cost more than
        scanning eight ints — with ``argmax`` kept for wide pools.
        """
        counts = view.counts
        n = counts.size
        if n > 64:
            return int(np.argmax(counts * n - view.adapter_order))
        cl = counts.tolist()
        ao = view.adapter_order_list
        best = 0
        bk = cl[0] * n - ao[0]
        for i in range(1, n):
            k = cl[i] * n - ao[i]
            if k > bk:
                bk = k
                best = i
        return best

    @staticmethod
    def _first_matching(candidates: Sequence[Request], adapter_id: str,
                        limit: int, start: int = 0) -> List[Request]:
        """First ``limit`` requests of one adapter, preserving order."""
        out: List[Request] = []
        if limit <= 0:
            return out
        for i in range(start, len(candidates)):
            r = candidates[i]
            if r.adapter_id == adapter_id:
                out.append(r)
                if len(out) == limit:
                    break
        return out

    @staticmethod
    def _fcfs(requests: Sequence[Request],
              presorted: bool = False) -> List[Request]:
        """FCFS order; ``presorted`` skips the sort for ordered inputs.

        Any order-preserving subset of an FCFS-ordered candidate list is
        itself FCFS-ordered, so call sites may pass
        ``ctx.candidates_fcfs`` for lists derived from ``candidates``
        by filtering.
        """
        if presorted:
            return list(requests)
        return sorted(requests, key=lambda r: (r.arrival_time, r.request_id))

    @classmethod
    def _ordered(cls, candidates: Sequence[Request], ctx: SchedulingContext
                 ) -> Tuple[Sequence[Request], Dict[str, int]]:
        """Candidates in FCFS order with their per-adapter counts.

        The engine hands both over through ``ctx`` when it can vouch for
        them; for any other caller they are computed here, so each
        policy runs one ordered pass over either.
        """
        if not ctx.candidates_fcfs:
            candidates = cls._fcfs(candidates)
        counts = ctx.adapter_counts
        if counts is None:
            counts = Counter(r.adapter_id for r in candidates)
        return candidates, counts

    @staticmethod
    def _top_adapter(
        requests: Sequence[Request],
        counts: Optional[Dict[str, int]] = None,
    ) -> Optional[str]:
        if counts is None:
            if not requests:
                return None
            counts = Counter(r.adapter_id for r in requests)
        if not counts:
            return None
        # Deterministic tie-break by adapter id.
        return min(counts, key=lambda a: (-counts[a], a))


class VLoRAPolicy(SchedulingPolicy):
    """Algorithm 1: merged when possible, mixture then unmerged on starvation.

    Parameters
    ----------
    theta:
        Starvation tolerance in seconds of credit.
    """

    name = "V-LoRA"

    def __init__(self, theta: float = 0.5):
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        self.theta = theta

    def _credit(self, r, ctx):
        # refresh_credits_soa reproduces this float-addition order.
        return (
            r.waiting_time(ctx.now)
            + ctx.est_iteration_seconds
            + ctx.est_switch_seconds
        )

    def refresh_credits(self, requests, ctx):
        for r in requests:
            r.credit = self._credit(r, ctx)

    def _starve_prefix_len(self, candidates, ctx) -> int:
        """Length of the starving prefix of FCFS-ordered candidates.

        Credit is ``max(0, now - arrival) + const`` — monotone
        non-increasing along FCFS order (floating-point subtraction,
        max, and addition are all monotone) — so ``credit > theta``
        holds on exactly a prefix, found by bisection with the same
        per-request float expression :meth:`refresh_credits` writes.
        """
        lo, hi = 0, len(candidates)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._credit(candidates[mid], ctx) > self.theta:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def schedule(self, candidates, ctx):
        """Algorithm 1 in one ordered pass over :meth:`_ordered` input.

        The starving set is the bisected FCFS prefix, the popular
        adapter's tally comes from the adapter counts, and every batch
        is assembled by early-exit scans — O(log n + batch) on the
        engine's hinted input.  Credits are written here only for
        callers without those hints (the seed engine reads them straight
        off the requests); the engine gets them from
        :meth:`refresh_credits` when it needs them.
        """
        if not candidates:
            return None
        if not (ctx.candidates_fcfs and ctx.adapter_counts is not None):
            self.refresh_credits(candidates, ctx)
        candidates, counts = self._ordered(candidates, ctx)
        max_bs = ctx.max_batch_size
        n = len(candidates)
        num_starve = self._starve_prefix_len(candidates, ctx)
        top = self._top_adapter(candidates, counts)
        num_merge_total = counts[top]

        # Principle (1), §4.4.3: merged whenever possible.  When every
        # live request wants the same adapter and nothing starves,
        # merged execution strictly dominates regardless of queue depth
        # (Algorithm 1's |R_merge|/MaxBS > 0.5 test is a hysteresis
        # guard for mixed traffic, not a reason to idle in unmerged
        # mode on single-tenant phases).
        if not num_starve and num_merge_total == n:
            return SchedulerDecision(
                batch=list(candidates[:max_bs]),
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )

        def merged_decision():
            return SchedulerDecision(
                batch=self._first_matching(candidates, top, max_bs),
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )

        def mixture_decision():
            # Starving requests run via deLoRA alongside the merged
            # majority.  Non-starving merge requests all live past the
            # starve prefix, so the fill scan starts there.
            starve = list(candidates[:num_starve])
            fill = self._first_matching(
                candidates, top, max(0, max_bs - num_starve),
                start=num_starve,
            )
            return SchedulerDecision(
                batch=(starve + fill)[:max_bs],
                mode=InferenceMode.MIXTURE,
                merged_adapter=top,
            )

        # Principle (2) hysteresis: while the popular adapter is already
        # merged, leaving merged mode costs an un-merge; stay merged as
        # long as nothing starves, and rescue starving minorities via
        # mixture (whose switch from merged is free) before considering
        # unmerged mode.
        if (ctx.current_merged == top
                and ctx.current_mode in (InferenceMode.MERGED,
                                         InferenceMode.MIXTURE)):
            if not num_starve:
                return merged_decision()
            if num_starve / max_bs <= 0.5:
                return mixture_decision()

        # Lines 6-12: merged, or mixture when some requests starve.
        if (num_starve / max_bs <= 0.5
                and num_merge_total / max_bs > 0.5):
            if not num_starve:
                return merged_decision()
            return mixture_decision()
        # Lines 13-15: unmerged — starving prefix first, then FCFS fill,
        # which together are simply the head of the queue.
        return SchedulerDecision(
            batch=list(candidates[:max_bs]),
            mode=InferenceMode.UNMERGED,
        )

    def refresh_credits_soa(self, idx, view, ctx):
        # Two separate scalar-broadcast adds: a broadcast add of a
        # python float to a float64 array is a per-element IEEE double
        # add, so this matches _credit's ((wait + it) + sw) rounding
        # exactly; pre-summing the constants would round differently.
        view.credit[idx] = (
            np.maximum(0.0, ctx.now - view.arrival[idx])
            + ctx.est_iteration_seconds
        ) + ctx.est_switch_seconds

    def schedule_soa(self, view, ctx):
        n = view.n_live
        if n == 0:
            return None
        max_bs = ctx.max_batch_size
        # One live-prefix fetch serves every branch: the probe is its
        # head (live_prefix(j) is a prefix of live_prefix(k) for j <=
        # k), the UNMERGED batch and the all-same MERGED batch are the
        # whole thing.
        cand = view.live_prefix(max_bs)
        # Credit is monotone non-increasing along FCFS order, so the
        # starving set is a prefix (same argument as
        # _starve_prefix_len).  Every branch that *uses* the exact count
        # requires num_starve <= max_bs // 2, so probing the first
        # max_bs // 2 + 1 live candidates suffices: if all of them
        # starve, the sentinel count max_bs // 2 + 1 fails both the
        # ``== 0`` and the ``2 * num_starve <= max_bs`` tests just like
        # any larger true count would.
        probe = cand[:max_bs // 2 + 1]
        # Arrival is non-decreasing along the probe and every op in the
        # credit formula is weakly monotone in IEEE arithmetic, so the
        # rounded credit is non-increasing and the starving-prefix
        # length bisects with the exact scalar predicate — O(log b)
        # float ops instead of five array passes.  Scalar python floats
        # are the same C doubles numpy uses, so each probe evaluates
        # the identical expression ``(max(0, now - arr) + it) + sw``.
        arrival = view.arrival
        now = ctx.now
        it_s = ctx.est_iteration_seconds
        sw_s = ctx.est_switch_seconds
        theta = self.theta
        lo, hi = 0, probe.size
        while lo < hi:
            mid = (lo + hi) // 2
            wait = now - float(arrival[probe[mid]])
            if wait < 0.0:
                wait = 0.0
            if ((wait + it_s) + sw_s) > theta:
                lo = mid + 1
            else:
                hi = mid
        num_starve = lo
        top = self._top_adapter_soa(view)
        num_merge_total = int(view.counts[top])

        if not num_starve and num_merge_total == n:
            # All candidates share one adapter and nothing starves.
            return SoADecision(
                batch=cand,
                mode=InferenceMode.MERGED,
                merged=top,
            )

        def merged_decision():
            return SoADecision(
                batch=view.match_after(top, max_bs, 0),
                mode=InferenceMode.MERGED,
                merged=top,
            )

        def mixture_decision():
            # Non-starving merge requests all live past the starve
            # prefix, so the fill scan starts there.  num_starve is
            # exact here (<= max_bs // 2 < probe length).
            fill = view.match_after(top, max_bs - num_starve, num_starve)
            return SoADecision(
                batch=np.concatenate((probe[:num_starve], fill)),
                mode=InferenceMode.MIXTURE,
                merged=top,
            )

        # ``num_starve / max_bs <= 0.5`` on the object path is exactly
        # ``2 * num_starve <= max_bs`` for these int magnitudes (the
        # division by a positive int is monotone and 0.5 is exact).
        if (ctx.current_merged == top and num_merge_total
                and ctx.current_mode in (InferenceMode.MERGED,
                                         InferenceMode.MIXTURE)):
            if not num_starve:
                return merged_decision()
            if 2 * num_starve <= max_bs:
                return mixture_decision()

        if 2 * num_starve <= max_bs and 2 * num_merge_total > max_bs:
            if not num_starve:
                return merged_decision()
            return mixture_decision()
        # Unmerged: starving prefix first, then FCFS fill — the head of
        # the queue.
        return SoADecision(
            batch=cand,
            mode=InferenceMode.UNMERGED,
        )


class UnmergedOnlyPolicy(SchedulingPolicy):
    """S-LoRA / Punica: FCFS continuous batching, unmerged always."""

    name = "unmerged-only"

    def schedule(self, candidates, ctx):
        if not candidates:
            return None
        if ctx.candidates_fcfs:
            batch = list(candidates[: ctx.max_batch_size])
        else:
            batch = self._fcfs(candidates)[: ctx.max_batch_size]
        return SchedulerDecision(batch=batch, mode=InferenceMode.UNMERGED)

    def schedule_soa(self, view, ctx):
        if view.n_live == 0:
            return None
        return SoADecision(
            batch=view.live_prefix(ctx.max_batch_size),
            mode=InferenceMode.UNMERGED,
        )


class MergedOnlyPolicy(SchedulingPolicy):
    """Merged-only ablation (Fig. 19): serve one adapter at a time.

    Sticks with the current merged adapter while it has work, then moves
    to the adapter with the oldest waiting request (avoids permanent
    starvation but pays small batches and frequent switches).
    """

    name = "merged-only"

    def schedule(self, candidates, ctx):
        if not candidates:
            return None
        by_adapter = {}
        for r in candidates:
            by_adapter.setdefault(r.adapter_id, []).append(r)
        if ctx.current_merged in by_adapter:
            target = ctx.current_merged
        else:
            # Adapter owning the oldest request goes next.
            target = min(
                by_adapter,
                key=lambda a: min(r.arrival_time for r in by_adapter[a]),
            )
        batch = self._fcfs(
            by_adapter[target], ctx.candidates_fcfs
        )[: ctx.max_batch_size]
        return SchedulerDecision(
            batch=batch, mode=InferenceMode.MERGED, merged_adapter=target
        )

    def schedule_soa(self, view, ctx):
        if view.n_live == 0:
            return None
        if ctx.current_merged >= 0 and view.counts[ctx.current_merged] > 0:
            target = ctx.current_merged
        else:
            # The object path's min-by-oldest-arrival (first-appearance
            # tie-break) always resolves to the adapter of the first
            # live candidate: FCFS order makes that candidate's arrival
            # the global minimum, and on arrival ties its adapter is the
            # first inserted into ``by_adapter``.
            target = int(view.adapter_idx[view.live_prefix(1)[0]])
        return SoADecision(
            batch=view.match_after(target, ctx.max_batch_size, 0),
            mode=InferenceMode.MERGED,
            merged=target,
        )


class DLoRAPolicy(SchedulingPolicy):
    """dLoRA-style dynamic merged/unmerged switching (no mixture mode).

    Merges the dominant adapter when its share of pending requests
    exceeds ``merge_share``; falls back to unmerged FCFS otherwise or
    when any request has waited past ``starvation_s``.
    """

    name = "dLoRA"

    def __init__(self, merge_share: float = 0.5, starvation_s: float = 1.0):
        if not 0.0 < merge_share < 1.0:
            raise ValueError(f"merge_share must be in (0,1), got {merge_share}")
        self.merge_share = merge_share
        self.starvation_s = starvation_s

    def schedule(self, candidates, ctx):
        """One ordered pass: the dominant-adapter share comes from the
        adapter counts; the starvation probe touches only the oldest
        foreign request — FCFS order makes its waiting time the maximum
        over all of them, so one comparison decides whether any starves.
        """
        if not candidates:
            return None
        candidates, counts = self._ordered(candidates, ctx)
        top = self._top_adapter(candidates, counts)
        num_top = counts[top]
        n = len(candidates)
        share = num_top / n
        others_starving = False
        if num_top < n:
            oldest_other = next(
                r for r in candidates if r.adapter_id != top
            )
            others_starving = (
                oldest_other.waiting_time(ctx.now) > self.starvation_s
            )
        if share > self.merge_share and not others_starving:
            return SchedulerDecision(
                batch=self._first_matching(
                    candidates, top, ctx.max_batch_size
                ),
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )
        return SchedulerDecision(
            batch=list(candidates[: ctx.max_batch_size]),
            mode=InferenceMode.UNMERGED,
        )

    def schedule_soa(self, view, ctx):
        n = view.n_live
        if n == 0:
            return None
        top = self._top_adapter_soa(view)
        num_top = int(view.counts[top])
        # Exact float division, as on the object path — comparing
        # 2 * num_top > merge_share * ... would round differently for
        # arbitrary merge_share values.
        share = num_top / n
        others_starving = False
        if num_top < n:
            oldest_other = view.first_other(top)
            others_starving = (
                max(0.0, ctx.now - float(view.arrival[oldest_other]))
                > self.starvation_s
            )
        if share > self.merge_share and not others_starving:
            return SoADecision(
                batch=view.match_after(top, ctx.max_batch_size, 0),
                mode=InferenceMode.MERGED,
                merged=top,
            )
        return SoADecision(
            batch=view.live_prefix(ctx.max_batch_size),
            mode=InferenceMode.UNMERGED,
        )
