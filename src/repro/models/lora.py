"""LoRA adapter specifications and size accounting.

§4.4.1 hinges on the size asymmetry this module encodes:

* the factorized adapter (A and B) is tiny — tens of MB for rank 64 on a
  7B model — so V-LoRA keeps adapters resident on GPU (or swaps them
  cheaply) and computes ΔW = B x A *at runtime* with ATMM;
* the materialized ΔW is as large as the target weights themselves
  (~GBs for all layers), so the alternative design — pre-computing ΔW in
  host memory and swapping it in on a mode switch — pays ~1 s per swap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.hardware.memory import FP16_BYTES
from repro.models.config import ModelConfig

#: Default rank used throughout the paper's evaluation (§6.1).
DEFAULT_RANK = 64
#: LoRA-targeted projection matrices per layer (q and v, the classic
#: recipe): the default of every adapter spec, operator, switcher and
#: mode executor, and the count the serving engine prices with.
NUM_PROJECTIONS = 2


@dataclass(frozen=True)
class LoRAAdapterSpec:
    """Static description of one LoRA adapter for a given base model.

    Attributes
    ----------
    adapter_id:
        Stable identifier used by the scheduler and memory manager.
    model:
        Base model this adapter targets.
    rank:
        Low-rank dimension ``r``.
    num_projections:
        LoRA-targeted projection matrices per layer.  The default
        :data:`NUM_PROJECTIONS` (q and v, the classic recipe) best
        reconciles the paper's own
        size and latency arithmetic (43 MB adapters, ~3 GB ΔW per
        adapter, 53 ms dLoRA switch, <10 ms swift switch).
    task_head_classes:
        Output cardinality of the vision task head bundled with the
        adapter (§4.2.2); 0 means the adapter answers through the LM head.
    """

    adapter_id: str
    model: ModelConfig
    rank: int = DEFAULT_RANK
    num_projections: int = NUM_PROJECTIONS
    task_head_classes: int = 0

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.num_projections <= 0:
            raise ValueError("num_projections must be positive")
        if self.task_head_classes < 0:
            raise ValueError("task_head_classes must be >= 0")
        if self.rank > self.model.hidden_dim:
            raise ValueError(
                f"rank {self.rank} exceeds hidden dim {self.model.hidden_dim}"
            )

    # -- sizes ---------------------------------------------------------------

    @property
    def ab_params(self) -> int:
        """Parameters of the factorized adapter (A: d x r, B: r x d, per layer)."""
        d = self.model.hidden_dim
        per_layer = 2 * d * self.rank * self.num_projections
        head = d * self.task_head_classes
        return self.model.num_layers * per_layer + head

    @property
    def ab_bytes(self) -> int:
        """FP16 bytes of A and B — what V-LoRA stores and swaps."""
        return self.ab_params * FP16_BYTES

    @property
    def delta_w_bytes(self) -> int:
        """FP16 bytes of the materialized all-layer ΔW — what V-LoRA avoids."""
        d = self.model.hidden_dim
        return self.model.num_layers * self.num_projections * d * d * FP16_BYTES

    @property
    def has_task_head(self) -> bool:
        return self.task_head_classes > 0

    # -- math bookkeeping ------------------------------------------------------

    def delta_w_gemm_shape(self) -> Tuple[int, int, int]:
        """(m, k, n) of one per-layer ΔW = B x A product."""
        d = self.model.hidden_dim
        return (d, self.rank, d)

    def with_head(self, num_classes: int) -> "LoRAAdapterSpec":
        """A copy of this spec carrying a vision task head."""
        return LoRAAdapterSpec(
            adapter_id=self.adapter_id,
            model=self.model,
            rank=self.rank,
            num_projections=self.num_projections,
            task_head_classes=num_classes,
        )
