"""Tests for unified memory planning and adapter residency."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hardware import A10, A100_80GB, TransferModel
from repro.models import LLAVA15_13B, QWEN_VL_7B, LoRAAdapterSpec
from repro.runtime import AdapterManager, UnifiedMemoryManager


class TestUnifiedMemory:
    def test_plan_adds_up(self):
        mm = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=8)
        p = mm.plan
        assert (p.weights_bytes + p.adapter_pool_bytes
                + p.activation_reserve_bytes + p.kv_bytes) <= p.total_bytes
        assert p.kv_bytes > 0

    def test_kv_capacity_reasonable(self):
        """~55 GB of KV at 0.5 MB/token -> ~1e5 tokens on A100-80GB."""
        mm = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=8)
        assert 60_000 < mm.kv_token_capacity < 140_000

    def test_more_slots_less_kv(self):
        few = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=2)
        many = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=64)
        assert many.kv_token_capacity < few.kv_token_capacity

    def test_model_too_big_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            UnifiedMemoryManager(LLAVA15_13B, A10)

    def test_build_kv_cache_matches_plan(self):
        mm = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=4)
        kv = mm.build_kv_cache()
        assert kv.num_blocks == mm.kv_block_count
        assert kv.kv_bytes_per_token == QWEN_VL_7B.kv_bytes_per_token

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=-1)


def specs(n, model=QWEN_VL_7B):
    return [LoRAAdapterSpec(f"a{i}", model) for i in range(n)]


class TestAdapterManager:
    def make(self, n=4, slots=2, async_swap=True):
        return AdapterManager(
            specs(n), gpu_slots=slots,
            transfer_model=TransferModel(A100_80GB),
            async_swap=async_swap,
        )

    def test_warm_start_fills_slots(self):
        mgr = self.make(n=4, slots=2)
        assert len(mgr.resident_ids) == 2

    def test_resident_adapters_are_free(self):
        mgr = self.make()
        stall = mgr.ensure_resident(["a0"], now=0.0)
        assert stall == 0.0

    def test_miss_costs_a_swap(self):
        mgr = self.make()
        stall = mgr.ensure_resident(["a3"], now=0.0)
        assert stall > 0.0
        assert mgr.is_resident("a3")
        assert mgr.total_swap_ins() == 1

    def test_lru_eviction(self):
        mgr = self.make(n=3, slots=2)  # a0, a1 resident
        mgr.ensure_resident(["a1"], now=1.0)
        mgr.ensure_resident(["a2"], now=2.0)  # evicts a0 (older)
        assert not mgr.is_resident("a0")
        assert mgr.is_resident("a1") and mgr.is_resident("a2")

    def test_async_swap_cheaper_than_sync(self):
        sync = self.make(async_swap=False).ensure_resident(["a3"], 0.0)
        async_ = self.make(async_swap=True).ensure_resident(["a3"], 0.0)
        assert async_ < sync

    def test_batch_larger_than_slots_rejected(self):
        mgr = self.make(n=4, slots=2)
        with pytest.raises(RuntimeError):
            mgr.ensure_resident(["a0", "a1", "a2"], now=0.0)

    def test_unknown_adapter_lists_known(self):
        mgr = self.make()
        with pytest.raises(KeyError, match="a0"):
            mgr.ensure_resident(["zz"], now=0.0)

    def test_duplicate_ids_rejected(self):
        bad = specs(2) + [LoRAAdapterSpec("a0", QWEN_VL_7B)]
        with pytest.raises(ValueError):
            AdapterManager(bad, gpu_slots=2,
                           transfer_model=TransferModel(A100_80GB))

    def test_requested_set_never_self_evicts(self):
        mgr = self.make(n=4, slots=2)
        mgr.ensure_resident(["a2", "a3"], now=1.0)
        assert mgr.is_resident("a2") and mgr.is_resident("a3")


# -- residency index vs. a brute-force reference -----------------------------


class _FailingSwaps:
    """Injector stub: swaps of the ids in ``failing`` fail; none slow."""

    def __init__(self, failing):
        self.failing = set(failing)

    def swap_slowdown(self, adapter_id, now):
        return 1.0

    def swap_should_fail(self, adapter_id, now):
        return adapter_id in self.failing


class _ReferenceResidency:
    """The residency rules by full registry scans: LRU on ``(last_used,
    id)`` among non-requested residents, unpinned victims first."""

    def __init__(self, ids, slots):
        self.ids = list(ids)
        self.slots = slots
        self.on_gpu = {a: i < slots for i, a in enumerate(self.ids)}
        self.last_used = {a: 0.0 for a in self.ids}
        self.pinned = set()
        self.victims = []

    def resident(self):
        return [a for a in self.ids if self.on_gpu[a]]

    def _evict_one(self, exclude):
        if len(self.resident()) < self.slots:
            return
        pool = [(self.last_used[a], a) for a in self.resident()
                if a not in exclude]
        unpinned = [p for p in pool if p[1] not in self.pinned]
        victim = sorted(unpinned or pool)[0][1]
        self.on_gpu[victim] = False
        self.victims.append(victim)

    def try_ensure_resident(self, ids, now, failing):
        needed = list(dict.fromkeys(ids))
        failed = []
        for a in needed:
            self.last_used[a] = now
            if self.on_gpu[a]:
                continue
            if a in failing:
                failed.append(a)
                continue
            self._evict_one(set(needed))
            self.on_gpu[a] = True
        return failed

    def make_resident(self, a, now):
        self.last_used[a] = now
        if self.on_gpu[a]:
            return False
        self._evict_one({a})
        self.on_gpu[a] = True
        return True

    def demote(self, a):
        if not self.on_gpu[a] or len(self.resident()) <= 1:
            return False
        self.on_gpu[a] = False
        return True


class ResidencyMachine(RuleBasedStateMachine):
    """The indexed residency set equals a registry-scan reference."""

    N, SLOTS = 7, 3

    def __init__(self):
        super().__init__()
        self.mgr = AdapterManager(
            specs(self.N), gpu_slots=self.SLOTS,
            transfer_model=TransferModel(A100_80GB),
        )
        self.ref = _ReferenceResidency(self.mgr.adapter_ids, self.SLOTS)
        self.now = 0.0

    def _tick(self):
        self.now += 1.0
        return self.now

    @rule(ids=st.lists(st.integers(0, N - 1), min_size=1, max_size=SLOTS),
          failing=st.sets(st.integers(0, N - 1), max_size=2))
    def ensure(self, ids, failing):
        names = [f"a{i}" for i in ids]
        fail = {f"a{i}" for i in failing}
        now = self._tick()
        before = len(self.ref.victims)
        _, failed = self.mgr.try_ensure_resident(
            names, now, injector=_FailingSwaps(fail))
        assert failed == self.ref.try_ensure_resident(names, now, fail)
        evicted = self.ref.victims[before:]
        assert all(not self.mgr.is_resident(a) for a in evicted)

    @rule(i=st.integers(0, N - 1))
    def make_resident(self, i):
        now = self._tick()
        assert (self.mgr.make_resident(f"a{i}", now)
                == self.ref.make_resident(f"a{i}", now))

    @rule(i=st.integers(0, N - 1))
    def demote(self, i):
        assert self.mgr.demote(f"a{i}") == self.ref.demote(f"a{i}")

    @rule(i=st.integers(0, N - 1))
    def pin(self, i):
        self.mgr.pin(f"a{i}")
        self.ref.pinned.add(f"a{i}")

    @rule(i=st.integers(0, N - 1))
    def unpin(self, i):
        self.mgr.unpin(f"a{i}")
        self.ref.pinned.discard(f"a{i}")

    @invariant()
    def resident_set_matches(self):
        ids = self.mgr.resident_ids
        assert ids == [a for a in self.mgr.adapter_ids
                       if self.mgr.is_resident(a)]
        assert ids == self.ref.resident()
        assert len(ids) <= self.SLOTS


TestResidencyEquivalence = ResidencyMachine.TestCase
TestResidencyEquivalence.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
