"""Tests for the paged KV cache, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.runtime import BlockAllocationError, PagedKVCache

pytestmark = pytest.mark.property


class TestBasics:
    def test_capacity_accounting(self):
        kv = PagedKVCache(num_blocks=10, block_size=16)
        assert kv.free_blocks == 10
        kv.allocate(1, 40)  # 3 blocks
        assert kv.used_blocks == 3
        assert kv.free_tokens() == 7 * 16

    def test_allocate_free_roundtrip(self):
        kv = PagedKVCache(num_blocks=4, block_size=16)
        kv.allocate(1, 64)
        assert kv.free_blocks == 0
        kv.free(1)
        assert kv.free_blocks == 4
        kv.check_invariants()

    def test_over_allocation_rejected(self):
        kv = PagedKVCache(num_blocks=2, block_size=16)
        with pytest.raises(BlockAllocationError):
            kv.allocate(1, 100)

    def test_duplicate_sequence_rejected(self):
        kv = PagedKVCache(num_blocks=4, block_size=16)
        kv.allocate(1, 16)
        with pytest.raises(BlockAllocationError):
            kv.allocate(1, 16)

    def test_unknown_sequence_rejected(self):
        kv = PagedKVCache(num_blocks=4, block_size=16)
        with pytest.raises(BlockAllocationError):
            kv.free(9)
        with pytest.raises(BlockAllocationError):
            kv.append_token(9)

    def test_append_grows_at_block_boundary(self):
        kv = PagedKVCache(num_blocks=4, block_size=4)
        kv.allocate(1, 4)
        assert kv.used_blocks == 1
        kv.append_token(1)  # 5th token -> new block
        assert kv.used_blocks == 2
        assert kv.sequence_tokens(1) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVCache(num_blocks=0)
        kv = PagedKVCache(num_blocks=2)
        with pytest.raises(ValueError):
            kv.allocate(1, 0)
        with pytest.raises(ValueError):
            kv.allocate(1, 10, prefix_tokens=20)


class TestPrefixReuse:
    """§5 'KV cache reuse': repeated images share KV blocks."""

    def test_first_request_registers_prefix(self):
        kv = PagedKVCache(num_blocks=32, block_size=16)
        reused = kv.allocate(1, 300, prefix_key="img-A", prefix_tokens=256)
        assert reused == 0
        assert kv.has_prefix("img-A")

    def test_second_request_reuses_blocks(self):
        kv = PagedKVCache(num_blocks=64, block_size=16)
        kv.allocate(1, 300, prefix_key="img-A", prefix_tokens=256)
        used_before = kv.used_blocks
        reused = kv.allocate(2, 300, prefix_key="img-A", prefix_tokens=256)
        assert reused == 256  # 16 full blocks
        # Only the non-shared remainder allocates fresh blocks.
        assert kv.used_blocks == used_before + ((300 - 256 + 15) // 16)

    def test_shared_blocks_survive_owner_free(self):
        kv = PagedKVCache(num_blocks=64, block_size=16)
        kv.allocate(1, 256, prefix_key="img-A", prefix_tokens=256)
        kv.allocate(2, 256, prefix_key="img-A", prefix_tokens=256)
        kv.free(1)
        kv.check_invariants()
        # Sequence 2 still reads the shared prefix.
        assert kv.sequence_tokens(2) == 256
        kv.free(2)
        # Prefix still cached until dropped.
        assert kv.has_prefix("img-A")
        kv.drop_prefix("img-A")
        assert kv.free_blocks == 64

    def test_tiny_prefix_not_shared(self):
        kv = PagedKVCache(num_blocks=8, block_size=16)
        kv.allocate(1, 20, prefix_key="img-A", prefix_tokens=8)
        assert not kv.has_prefix("img-A")

    def test_stale_prefix_eviction(self):
        kv = PagedKVCache(num_blocks=64, block_size=16)
        kv.allocate(1, 256, prefix_key="old", prefix_tokens=256, now=0.0)
        kv.free(1)
        kv.allocate(2, 256, prefix_key="new", prefix_tokens=256, now=100.0)
        dropped = kv.evict_stale_prefixes(older_than=50.0)
        assert dropped == 1
        assert not kv.has_prefix("old")
        assert kv.has_prefix("new")

    def test_drop_unknown_prefix_rejected(self):
        with pytest.raises(KeyError):
            PagedKVCache(num_blocks=4).drop_prefix("nope")

    @pytest.mark.xfail(strict=True, reason=(
        "known bug: allocate() reuses the cached entry's num_tokens "
        "whatever the caller's own prefix_tokens or length"))
    def test_prefix_reuse_capped_at_own_prefix(self):
        kv = PagedKVCache(num_blocks=32, block_size=16)
        kv.allocate(1, 100, prefix_key="img", prefix_tokens=64)
        reused = kv.allocate(2, 20, prefix_key="img", prefix_tokens=16)
        # At most the caller's own full prefix blocks are shared, and a
        # 20-token sequence holds the 2 blocks its length needs.
        assert reused <= 16
        assert len(kv._sequences[2].blocks) == 2


class KVCacheMachine(RuleBasedStateMachine):
    """Stateful property test: invariants hold under arbitrary op orders."""

    def __init__(self):
        super().__init__()
        self.kv = PagedKVCache(num_blocks=24, block_size=4)
        self.live = set()
        self.next_id = 0

    @rule(tokens=st.integers(1, 40),
          with_prefix=st.booleans(),
          key=st.sampled_from(["a", "b", "c"]))
    def allocate(self, tokens, with_prefix, key):
        seq = self.next_id
        self.next_id += 1
        kwargs = {}
        if with_prefix:
            kwargs = {"prefix_key": key, "prefix_tokens": min(tokens, 8)}
        try:
            self.kv.allocate(seq, tokens, **kwargs)
            self.live.add(seq)
        except BlockAllocationError:
            pass  # full cache is a legal outcome

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def append(self, data):
        seq = data.draw(st.sampled_from(sorted(self.live)))
        before = self.kv.sequence_tokens(seq)
        try:
            self.kv.append_token(seq)
            assert self.kv.sequence_tokens(seq) == before + 1
        except BlockAllocationError:
            pass

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        seq = data.draw(st.sampled_from(sorted(self.live)))
        self.kv.free(seq)
        self.live.remove(seq)

    @rule(key=st.sampled_from(["a", "b", "c"]))
    def drop_prefix(self, key):
        if self.kv.has_prefix(key):
            self.kv.drop_prefix(key)

    @invariant()
    def blocks_conserved(self):
        self.kv.check_invariants()
        assert self.kv.free_blocks + self.kv.used_blocks == self.kv.num_blocks

    @invariant()
    def no_live_sequence_overflows(self):
        for seq in self.live:
            assert self.kv.sequence_tokens(seq) >= 1


TestKVCacheStateful = KVCacheMachine.TestCase
TestKVCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


# -- the block manager vs. a brute-force reference ----------------------------


class _ReferenceKV:
    """The block manager's rules one block at a time: a refcount per
    block, a LIFO free list popped once per block, per-token appends."""

    def __init__(self, num_blocks, block_size):
        self.size = block_size
        self.refcount = {b: 0 for b in range(num_blocks)}
        self.free = list(range(num_blocks - 1, -1, -1))
        self.seqs = {}       # seq id -> [blocks, tokens]
        self.prefixes = {}   # key -> [blocks, tokens, last_used]
        self.reserved = 0

    def _take(self, count):
        if count > max(0, len(self.free) - self.reserved):
            raise BlockAllocationError("full")
        taken = []
        for _ in range(count):
            b = self.free.pop()
            self.refcount[b] = 1
            taken.append(b)
        return taken

    def _release(self, blocks):
        for b in blocks:
            self.refcount[b] -= 1
            if self.refcount[b] == 0:
                self.free.append(b)

    def allocate(self, seq, tokens, key, prefix_tokens, now):
        reused, shared = 0, []
        if key is not None and prefix_tokens >= self.size:
            entry = self.prefixes.get(key)
            if entry is not None:
                shared, reused = list(entry[0]), entry[1]
                entry[2] = now
                for b in shared:
                    self.refcount[b] += 1
        remaining = tokens - reused
        own = self._take(-(-remaining // self.size) if remaining > 0 else 0)
        self.seqs[seq] = [shared + own, tokens]
        if key is not None and reused == 0 and prefix_tokens >= self.size:
            full = prefix_tokens // self.size
            for b in own[:full]:
                self.refcount[b] += 1
            self.prefixes[key] = [own[:full], full * self.size, now]
        return reused

    def append(self, seq):
        blocks_tokens = self.seqs[seq]
        if blocks_tokens[1] + 1 > len(blocks_tokens[0]) * self.size:
            blocks_tokens[0].extend(self._take(1))
        blocks_tokens[1] += 1

    def free_seq(self, seq):
        self._release(self.seqs.pop(seq)[0])

    def drop_prefix(self, key):
        self._release(self.prefixes.pop(key)[0])


class KVEquivalenceMachine(RuleBasedStateMachine):
    """The refcount-array manager hands out and takes back exactly the
    blocks the per-block reference does, in the same order."""

    def __init__(self):
        super().__init__()
        self.kv = PagedKVCache(num_blocks=20, block_size=4)
        self.ref = _ReferenceKV(20, 4)
        self.next_id = 0
        self.freed = []
        self.now = 0.0

    def _live(self):
        return sorted(self.ref.seqs)

    @rule(tokens=st.integers(1, 30), prefix=st.integers(0, 12),
          key=st.sampled_from([None, "a", "b"]))
    def allocate(self, tokens, prefix, key):
        seq = self.next_id
        self.next_id += 1
        self.now += 1.0
        prefix = min(prefix, tokens)
        try:
            expect = self.ref.allocate(seq, tokens, key, prefix, self.now)
        except BlockAllocationError:
            with pytest.raises(BlockAllocationError):
                self.kv.allocate(seq, tokens, prefix_key=key,
                                 prefix_tokens=prefix, now=self.now)
            return
        assert self.kv.allocate(seq, tokens, prefix_key=key,
                                prefix_tokens=prefix, now=self.now) == expect

    @precondition(lambda self: self.ref.seqs)
    @rule(data=st.data())
    def append_one(self, data):
        seq = data.draw(st.sampled_from(self._live()))
        self._append([seq], single=True)

    @precondition(lambda self: self.ref.seqs)
    @rule(data=st.data())
    def append_batch(self, data):
        seqs = data.draw(st.lists(st.sampled_from(self._live()),
                                  min_size=1, max_size=6))
        self._append(seqs, single=False)

    def _append(self, seqs, single):
        ref_error = False
        try:
            for seq in seqs:
                self.ref.append(seq)
        except BlockAllocationError:
            ref_error = True
        try:
            if single:
                self.kv.append_token(seqs[0])
            else:
                self.kv.append_tokens(seqs)
        except BlockAllocationError:
            assert ref_error
        else:
            assert not ref_error

    @precondition(lambda self: self.ref.seqs)
    @rule(data=st.data())
    def free(self, data):
        seq = data.draw(st.sampled_from(self._live()))
        self.ref.free_seq(seq)
        self.kv.free(seq)
        self.freed.append(seq)

    @precondition(lambda self: self.freed)
    @rule(data=st.data())
    def double_free(self, data):
        seq = data.draw(st.sampled_from(self.freed))
        with pytest.raises(BlockAllocationError):
            self.kv.free(seq)

    @rule(key=st.sampled_from(["a", "b"]))
    def drop_prefix(self, key):
        if key in self.ref.prefixes:
            self.ref.drop_prefix(key)
            self.kv.drop_prefix(key)
        else:
            with pytest.raises(KeyError):
                self.kv.drop_prefix(key)

    @rule(age=st.floats(0.0, 10.0))
    def evict_stale(self, age):
        cutoff = self.now - age
        stale = [k for k, e in self.ref.prefixes.items() if e[2] < cutoff]
        for key in stale:
            self.ref.drop_prefix(key)
        assert self.kv.evict_stale_prefixes(cutoff) == len(stale)

    @rule(blocks=st.integers(0, 8))
    def reserve(self, blocks):
        self.ref.reserved = blocks
        self.kv.set_reserved(blocks)

    @invariant()
    def same_blocks(self):
        self.kv.check_invariants()
        assert self.kv._free == self.ref.free
        assert {s: (q.blocks, q.num_tokens)
                for s, q in self.kv._sequences.items()} == {
            s: tuple(v) for s, v in self.ref.seqs.items()}
        assert {k: (e.blocks, e.num_tokens)
                for k, e in self.kv._prefixes.items()} == {
            k: (v[0], v[1]) for k, v in self.ref.prefixes.items()}
        assert self.kv._refcount == [
            self.ref.refcount[b] for b in range(self.kv.num_blocks)]


TestKVEquivalence = KVEquivalenceMachine.TestCase
TestKVEquivalence.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_released_block_cannot_be_released_again():
    kv = PagedKVCache(num_blocks=4, block_size=4)
    kv.allocate(1, 8)
    blocks = list(kv._sequences[1].blocks)
    kv.free(1)
    with pytest.raises(BlockAllocationError, match="double free"):
        kv._release_blocks(blocks)
    with pytest.raises(BlockAllocationError, match="unknown sequence"):
        kv.free(1)
