"""Paged KV-cache block manager with prefix reuse.

A faithful (if simplified) PagedAttention-style block manager: KV state
lives in fixed-size blocks; a sequence owns a chain of blocks; blocks of
a shared prefix are reference-counted so multiple requests over the same
image reuse one copy (§5 "KV cache reuse", after CacheBlend / SGLang).

Block state is one ``refcount`` int list indexed by block id plus a LIFO
free list: a run of blocks is taken with one list slice (handing ids
out in the same order as repeated ``pop()``), and a release walks its
block list once.  :meth:`PagedKVCache.append_tokens` extends a whole
batch by one token each (the engine calls it once per full iteration);
:meth:`PagedKVCache.append_token` is its one-element form, so a single
growth rule covers both.  The engine's steady decode steps split an
append in two: :meth:`PagedKVCache.grow` takes the blocks right away
(only the sequences on a block boundary need one) and
:meth:`PagedKVCache.advance` writes the token counts later, several
steps at once.  A lagging count never breaks the invariants below,
because the blocks are always taken first.

Invariants (property-tested in ``tests/runtime/test_kv_cache.py``):

* ``free_blocks + used_blocks == num_blocks`` at all times;
* every block's refcount is >= 1 while referenced, 0 once freed;
* a sequence's token capacity always covers its token count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class BlockAllocationError(RuntimeError):
    """Raised when the cache cannot serve an allocation."""


@dataclass(slots=True)
class _Sequence:
    seq_id: int
    blocks: List[int] = field(default_factory=list)
    num_tokens: int = 0
    prefix_blocks: int = 0      # leading blocks shared via a prefix entry


@dataclass(slots=True)
class _PrefixEntry:
    key: str
    blocks: List[int]
    num_tokens: int
    last_used: float = 0.0


class PagedKVCache:
    """Block-granular KV cache for one model on one GPU."""

    def __init__(self, num_blocks: int, block_size: int = 16,
                 kv_bytes_per_token: int = 0):
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.kv_bytes_per_token = kv_bytes_per_token
        #: Per-block reference count (0 exactly when the block is free).
        self._refcount: List[int] = [0] * num_blocks
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        self._sequences: Dict[int, _Sequence] = {}
        self._prefixes: Dict[str, _PrefixEntry] = {}
        #: Blocks made temporarily unusable (injected memory pressure).
        self.reserved_blocks: int = 0

    # -- capacity ----------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return max(0, len(self._free) - self.reserved_blocks)

    def set_reserved(self, num_blocks: int) -> None:
        """Reserve ``num_blocks`` blocks away from the allocatable pool.

        Models transient memory pressure (fault injection): reserved
        blocks cannot be allocated but already-allocated sequences are
        untouched.  Pass 0 to lift the pressure.
        """
        if num_blocks < 0:
            raise ValueError(f"reserved blocks must be >= 0, got {num_blocks}")
        self.reserved_blocks = min(num_blocks, self.num_blocks)

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    def free_tokens(self) -> int:
        return self.free_blocks * self.block_size

    def can_allocate(self, num_tokens: int) -> bool:
        return self._blocks_for(num_tokens) <= self.free_blocks

    def _blocks_for(self, num_tokens: int) -> int:
        return -(-num_tokens // self.block_size)

    # -- allocation ------------------------------------------------------------------

    def _take_blocks(self, count: int) -> List[int]:
        if count > self.free_blocks:
            raise BlockAllocationError(
                f"need {count} blocks, only {self.free_blocks} free "
                f"({self.reserved_blocks} reserved)"
            )
        if count == 0:
            return []
        free = self._free
        taken = free[-count:]
        del free[-count:]
        taken.reverse()  # the order repeated pop() would hand them out
        refcount = self._refcount
        for b in taken:
            refcount[b] = 1
        return taken

    def allocate(self, seq_id: int, num_tokens: int,
                 prefix_key: Optional[str] = None,
                 prefix_tokens: int = 0,
                 now: float = 0.0) -> int:
        """Allocate KV space for a new sequence's prefill.

        Returns the number of tokens *reused* from a cached prefix (0 if
        no prefix hit).  On a miss with a ``prefix_key``, the prefix's
        full blocks are registered for future reuse.
        """
        if seq_id in self._sequences:
            raise BlockAllocationError(f"sequence {seq_id} already allocated")
        if num_tokens <= 0:
            raise ValueError(f"num_tokens must be positive, got {num_tokens}")
        if not 0 <= prefix_tokens <= num_tokens:
            raise ValueError(
                f"prefix_tokens {prefix_tokens} outside [0, {num_tokens}]"
            )

        reused_tokens = 0
        shared_blocks: List[int] = []
        if prefix_key is not None and prefix_tokens >= self.block_size:
            entry = self._prefixes.get(prefix_key)
            if entry is not None:
                shared_blocks = list(entry.blocks)
                reused_tokens = entry.num_tokens
                entry.last_used = now
                refcount = self._refcount
                for b in shared_blocks:
                    refcount[b] += 1

        remaining = num_tokens - reused_tokens
        own = self._take_blocks(self._blocks_for(remaining) if remaining > 0 else 0)
        seq = _Sequence(
            seq_id=seq_id,
            blocks=shared_blocks + own,
            num_tokens=num_tokens,
            prefix_blocks=len(shared_blocks),
        )
        self._sequences[seq_id] = seq

        # Register a fresh prefix for future requests (only full blocks
        # are shareable).
        if (prefix_key is not None and reused_tokens == 0
                and prefix_tokens >= self.block_size):
            full = prefix_tokens // self.block_size
            prefix_blocks = own[:full]
            refcount = self._refcount
            for b in prefix_blocks:
                refcount[b] += 1
            self._prefixes[prefix_key] = _PrefixEntry(
                key=prefix_key,
                blocks=list(prefix_blocks),
                num_tokens=full * self.block_size,
                last_used=now,
            )
        return reused_tokens

    def append_token(self, seq_id: int) -> None:
        """Extend a sequence by one decoded token, growing it if needed."""
        self.append_tokens((seq_id,))

    def append_tokens(self, seq_ids: Iterable[int]) -> None:
        """Extend each sequence by one token, in order, growing as needed.

        Equivalent to :meth:`append_token` per id: a sequence sitting on
        a block boundary takes one fresh block.  An unknown id or an
        exhausted cache raises :class:`BlockAllocationError`, leaving the
        ids before it extended.
        """
        sequences = self._sequences
        size = self.block_size
        for seq_id in seq_ids:
            seq = sequences.get(seq_id)
            if seq is None:
                raise BlockAllocationError(f"unknown sequence {seq_id}")
            if seq.num_tokens >= len(seq.blocks) * size:
                seq.blocks += self._take_blocks(1)
            seq.num_tokens += 1

    def grow(self, seq_ids: Iterable[int], lag: int = 0) -> None:
        """Take the block each sequence's next token needs, in order.

        The growth rule of :meth:`append_tokens` without the count:
        ``lag`` is how many tokens each sequence already holds beyond
        its recorded count (grown for, not yet recorded by
        :meth:`advance`), so a sequence takes one fresh block exactly
        when its true count fills its blocks.  Errors as in
        :meth:`append_tokens`.
        """
        sequences = self._sequences
        size = self.block_size
        for seq_id in seq_ids:
            seq = sequences.get(seq_id)
            if seq is None:
                raise BlockAllocationError(f"unknown sequence {seq_id}")
            if seq.num_tokens + lag >= len(seq.blocks) * size:
                seq.blocks += self._take_blocks(1)

    def advance(self, seq_ids: Iterable[int], num_tokens: int) -> None:
        """Record ``num_tokens`` more tokens on each sequence.

        The blocks must already hold them (:meth:`grow`); a count that
        would overflow its blocks raises :class:`BlockAllocationError`,
        leaving the ids before it advanced.
        """
        sequences = self._sequences
        size = self.block_size
        for seq_id in seq_ids:
            seq = sequences.get(seq_id)
            if seq is None:
                raise BlockAllocationError(f"unknown sequence {seq_id}")
            count = seq.num_tokens + num_tokens
            if count > len(seq.blocks) * size:
                raise BlockAllocationError(
                    f"sequence {seq_id} has no room for {num_tokens} tokens"
                )
            seq.num_tokens = count

    def free(self, seq_id: int) -> None:
        """Release a sequence; shared prefix blocks survive while cached."""
        seq = self._sequences.pop(seq_id, None)
        if seq is None:
            raise BlockAllocationError(f"unknown sequence {seq_id}")
        self._release_blocks(seq.blocks)

    def _release_blocks(self, blocks: List[int]) -> None:
        """Drop one reference to each block; free the ones that hit 0."""
        refcount = self._refcount
        free = self._free
        for b in blocks:
            count = refcount[b]
            if count <= 0:
                raise BlockAllocationError(f"double free of block {b}")
            refcount[b] = count - 1
            if count == 1:
                free.append(b)

    # -- prefix management ----------------------------------------------------------------

    def drop_prefix(self, prefix_key: str) -> None:
        """Evict a cached prefix (its blocks free once no sequence uses them)."""
        entry = self._prefixes.pop(prefix_key, None)
        if entry is None:
            raise KeyError(f"unknown prefix {prefix_key!r}")
        self._release_blocks(entry.blocks)

    def evict_stale_prefixes(self, older_than: float) -> int:
        """Drop prefixes unused since ``older_than``; returns count dropped."""
        stale = [k for k, e in self._prefixes.items() if e.last_used < older_than]
        for k in stale:
            self.drop_prefix(k)
        return len(stale)

    @property
    def num_prefixes(self) -> int:
        return len(self._prefixes)

    def has_prefix(self, prefix_key: str) -> bool:
        return prefix_key in self._prefixes

    # -- introspection -------------------------------------------------------------------------

    def sequence_tokens(self, seq_id: int) -> int:
        return self._seq(seq_id).num_tokens

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._sequences

    def _seq(self, seq_id: int) -> _Sequence:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise BlockAllocationError(f"unknown sequence {seq_id}")
        return seq

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            raise AssertionError("duplicate blocks on the free list")
        for block_id, refcount in enumerate(self._refcount):
            if block_id in free_set:
                if refcount != 0:
                    raise AssertionError(
                        f"free block {block_id} has refcount {refcount}"
                    )
            elif refcount <= 0:
                raise AssertionError(
                    f"used block {block_id} has refcount {refcount}"
                )
        for seq in self._sequences.values():
            if seq.num_tokens > len(seq.blocks) * self.block_size:
                raise AssertionError(
                    f"sequence {seq.seq_id} overflows its blocks"
                )
