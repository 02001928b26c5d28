"""Property-based tests over the scheduling policies.

For arbitrary live-request sets and contexts, every policy's decision
must satisfy structural invariants: batch bounded by MaxBS, merged-mode
purity, starving requests never left behind when capacity allows, and
batch membership drawn from the candidates.
"""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    DLoRAPolicy,
    InferenceMode,
    MergedOnlyPolicy,
    Request,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.scheduler import SchedulerDecision, SchedulingContext

pytestmark = pytest.mark.property

ADAPTERS = ["a", "b", "c", "d"]


@st.composite
def request_sets(draw):
    n = draw(st.integers(1, 24))
    now = draw(st.floats(1.0, 50.0))
    reqs = []
    for _ in range(n):
        arrival = draw(st.floats(0.0, now))
        reqs.append(Request(
            adapter_id=draw(st.sampled_from(ADAPTERS)),
            arrival_time=arrival,
            input_tokens=draw(st.integers(1, 512)),
            output_tokens=draw(st.integers(1, 64)),
        ))
    ctx = SchedulingContext(
        now=now,
        current_mode=draw(st.sampled_from(list(InferenceMode))),
        current_merged=draw(st.sampled_from([None, *ADAPTERS])),
        max_batch_size=draw(st.integers(1, 16)),
        est_iteration_seconds=draw(st.floats(0.001, 0.1)),
        est_switch_seconds=draw(st.floats(0.0, 0.05)),
    )
    return reqs, ctx


POLICIES = [
    VLoRAPolicy(theta=0.5),
    UnmergedOnlyPolicy(),
    MergedOnlyPolicy(),
    DLoRAPolicy(),
]


@settings(max_examples=120, deadline=None)
@given(data=request_sets(), policy_idx=st.integers(0, len(POLICIES) - 1))
def test_decision_invariants(data, policy_idx):
    reqs, ctx = data
    policy = POLICIES[policy_idx]
    decision = policy.schedule(reqs, ctx)
    assert decision is not None  # non-empty candidates always yield work
    # Batch bounded and drawn from candidates, no duplicates.
    assert 1 <= len(decision.batch) <= ctx.max_batch_size
    ids = [r.request_id for r in decision.batch]
    assert len(set(ids)) == len(ids)
    candidate_ids = {r.request_id for r in reqs}
    assert set(ids) <= candidate_ids
    # Mode/adapter consistency (also enforced by SchedulerDecision, but
    # assert the semantic bits beyond construction).
    if decision.mode is InferenceMode.MERGED:
        assert decision.merged_adapter is not None
        assert all(r.adapter_id == decision.merged_adapter
                   for r in decision.batch)
    if decision.mode is InferenceMode.MIXTURE:
        assert decision.merged_adapter is not None


@settings(max_examples=80, deadline=None)
@given(data=request_sets())
def test_vlora_starving_first(data):
    """Every starving request fits in the batch before any fresh one,
    up to capacity."""
    reqs, ctx = data
    policy = VLoRAPolicy(theta=0.5)
    decision = policy.schedule(reqs, ctx)
    starving = [r for r in reqs if r.credit > policy.theta]
    batch_ids = {r.request_id for r in decision.batch}
    if decision.mode is InferenceMode.UNMERGED:
        expected = min(len(starving), ctx.max_batch_size)
        included = sum(1 for r in starving if r.request_id in batch_ids)
        assert included == expected


@settings(max_examples=80, deadline=None)
@given(data=request_sets())
def test_vlora_single_tenant_goes_merged(data):
    """When all requests want one adapter and nothing starves, the
    policy serves merged (principle 1)."""
    reqs, ctx = data
    for r in reqs:
        r.adapter_id = "a"
        r.arrival_time = ctx.now  # fresh: zero waiting time
    policy = VLoRAPolicy(theta=10.0 + ctx.est_iteration_seconds
                         + ctx.est_switch_seconds)
    decision = policy.schedule(reqs, ctx)
    assert decision.mode is InferenceMode.MERGED
    assert decision.merged_adapter == "a"


@settings(max_examples=80, deadline=None)
@given(data=request_sets())
def test_deterministic_decisions(data):
    """Same inputs, same decision (no hidden randomness)."""
    reqs, ctx = data
    a = VLoRAPolicy(theta=0.5).schedule(reqs, ctx)
    b = VLoRAPolicy(theta=0.5).schedule(reqs, ctx)
    assert a.mode == b.mode
    assert a.merged_adapter == b.merged_adapter
    assert [r.request_id for r in a.batch] == [r.request_id for r in b.batch]


# -- oracle: the ordered pass reproduces the retired full passes -----------
#
# The two functions below are the full (sort-and-scan) passes that
# VLoRAPolicy.schedule and DLoRAPolicy.schedule ran for candidates that
# arrived without the engine's FCFS order and adapter counts, kept
# verbatim as references.  Both policies now normalize such input (sort,
# count, and for V-LoRA write every credit) and run their single ordered
# pass; the property pins that fold to the reference decisions and
# credits.


def reference_vlora_full_pass(self, candidates, ctx):
    if not candidates:
        return None
    max_bs = ctx.max_batch_size
    for r in candidates:
        r.credit = (
            r.waiting_time(ctx.now)
            + ctx.est_iteration_seconds
            + ctx.est_switch_seconds
        )
    presorted = ctx.candidates_fcfs
    starve = self._fcfs(
        [r for r in candidates if r.credit > self.theta], presorted
    )
    top = self._top_adapter(candidates, ctx.adapter_counts)
    merge_reqs = self._fcfs(
        [r for r in candidates if r.adapter_id == top], presorted
    )
    slots_after_starve = max(0, max_bs - len(starve))

    # Principle (1), §4.4.3: merged whenever possible.  When every
    # live request wants the same adapter and nothing starves,
    # merged execution strictly dominates regardless of queue depth
    # (Algorithm 1's |R_merge|/MaxBS > 0.5 test is a hysteresis
    # guard for mixed traffic, not a reason to idle in unmerged
    # mode on single-tenant phases).
    if not starve and len(merge_reqs) == len(candidates):
        return SchedulerDecision(
            batch=merge_reqs[:max_bs],
            mode=InferenceMode.MERGED,
            merged_adapter=top,
        )

    # Principle (2) hysteresis: while the popular adapter is already
    # merged, leaving merged mode costs an un-merge; stay merged as
    # long as nothing starves, and rescue starving minorities via
    # mixture (whose switch from merged is free) before considering
    # unmerged mode.
    if (ctx.current_merged == top and merge_reqs
            and ctx.current_mode in (InferenceMode.MERGED,
                                     InferenceMode.MIXTURE)):
        if not starve:
            return SchedulerDecision(
                batch=merge_reqs[:max_bs],
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )
        if len(starve) / max_bs <= 0.5:
            starve_ids = {r.request_id for r in starve}
            fill = [
                r for r in merge_reqs if r.request_id not in starve_ids
            ][:slots_after_starve]
            return SchedulerDecision(
                batch=(starve + fill)[:max_bs],
                mode=InferenceMode.MIXTURE,
                merged_adapter=top,
            )

    if (len(starve) / max_bs <= 0.5
            and len(merge_reqs) / max_bs > 0.5):
        if not starve:
            # Line 6-8: pure merged execution of the popular adapter.
            return SchedulerDecision(
                batch=merge_reqs[:max_bs],
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )
        # Line 9-12: mixture — starving requests run via deLoRA
        # alongside the merged majority.
        starve_ids = {r.request_id for r in starve}
        fill = [
            r for r in merge_reqs if r.request_id not in starve_ids
        ][:slots_after_starve]
        return SchedulerDecision(
            batch=(starve + fill)[:max_bs],
            mode=InferenceMode.MIXTURE,
            merged_adapter=top,
        )
    # Line 13-15: unmerged — starving first, then FCFS fill.
    starve_ids = {r.request_id for r in starve}
    rest = self._fcfs(
        [r for r in candidates if r.request_id not in starve_ids],
        presorted,
    )
    batch = (starve + rest)[:max_bs]
    return SchedulerDecision(batch=batch, mode=InferenceMode.UNMERGED)


def reference_dlora_full_pass(self, candidates, ctx):
    if not candidates:
        return None
    top = self._top_adapter(candidates, ctx.adapter_counts)
    top_reqs = [r for r in candidates if r.adapter_id == top]
    share = len(top_reqs) / len(candidates)
    others_starving = any(
        r.adapter_id != top and r.waiting_time(ctx.now) > self.starvation_s
        for r in candidates
    )
    if share > self.merge_share and not others_starving:
        return SchedulerDecision(
            batch=self._fcfs(
                top_reqs, ctx.candidates_fcfs
            )[: ctx.max_batch_size],
            mode=InferenceMode.MERGED,
            merged_adapter=top,
        )
    batch = self._fcfs(
        candidates, ctx.candidates_fcfs
    )[: ctx.max_batch_size]
    return SchedulerDecision(batch=batch, mode=InferenceMode.UNMERGED)


@st.composite
def oracle_cases(draw):
    """Candidate sets with arrival ties, in FCFS or shuffled order, with
    or without the engine's FCFS hint and adapter counts."""
    n = draw(st.integers(1, 20))
    now = draw(st.floats(0.5, 20.0))
    # A few shared arrival instants make ties (broken by request id).
    instants = draw(st.lists(st.floats(0.0, now), min_size=1, max_size=4))
    adapters = ADAPTERS[:draw(st.integers(1, len(ADAPTERS)))]
    reqs = [
        Request(
            adapter_id=draw(st.sampled_from(adapters)),
            arrival_time=draw(st.one_of(st.sampled_from(instants),
                                        st.floats(0.0, now))),
            input_tokens=8,
            output_tokens=4,
            priority=draw(st.integers(0, 2)),
        )
        for _ in range(n)
    ]
    fcfs = draw(st.booleans())
    if fcfs:
        reqs.sort(key=lambda r: (r.arrival_time, r.request_id))
    else:
        reqs = draw(st.permutations(reqs))
    with_counts = draw(st.booleans())
    ctx = SchedulingContext(
        now=now,
        current_mode=draw(st.sampled_from(list(InferenceMode))),
        current_merged=draw(st.sampled_from([None, *ADAPTERS])),
        max_batch_size=draw(st.integers(1, 16)),
        est_iteration_seconds=draw(st.floats(0.001, 0.2)),
        est_switch_seconds=draw(st.floats(0.0, 0.1)),
        candidates_fcfs=fcfs and draw(st.booleans()),
        adapter_counts=(
            dict(Counter(r.adapter_id for r in reqs)) if with_counts
            else None
        ),
    )
    return reqs, ctx


@settings(max_examples=300, deadline=None)
@given(case=oracle_cases(), theta=st.floats(0.01, 5.0),
       merge_share=st.floats(0.05, 0.95), starvation_s=st.floats(0.0, 5.0),
       use_vlora=st.booleans())
def test_ordered_pass_matches_full_pass_reference(
        case, theta, merge_share, starvation_s, use_vlora):
    reqs, ctx = case
    if use_vlora:
        policy = VLoRAPolicy(theta=theta)
        reference = reference_vlora_full_pass
    else:
        policy = DLoRAPolicy(merge_share=merge_share,
                             starvation_s=starvation_s)
        reference = reference_dlora_full_pass
    ref_reqs = [copy.copy(r) for r in reqs]
    want = reference(policy, ref_reqs, ctx)
    got = policy.schedule(reqs, ctx)

    assert [r.request_id for r in got.batch] == \
        [r.request_id for r in want.batch]
    assert got.mode is want.mode
    assert got.merged_adapter == want.merged_adapter
    if ctx.candidates_fcfs and ctx.adapter_counts is not None:
        # The engine's hinted call skips the credit writes; shed-victim
        # selection refreshes them on demand instead.
        policy.refresh_credits(reqs, ctx)
    assert [r.credit for r in reqs] == [r.credit for r in ref_reqs]
