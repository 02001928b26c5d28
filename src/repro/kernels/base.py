"""Common interface for LoRA-adapter batching operators.

An operator answers one question for the serving engine: *how long does it
take to apply a batch of heterogeneous LoRA adapters to one projection's
activations?*  That cost is two grouped GEMMs (shrink + expand, Fig. 2a)
plus an elementwise add of the LoRA output onto the base output, and it is
exactly where S-LoRA, Punica, dLoRA, and ATMM differ (§3.2 C2, §6.3.2).
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.hardware.memory import FP16_BYTES
from repro.kernels.cost_model import GemmCostModel
from repro.kernels.shapes import lora_gemm_shapes
from repro.models.lora import NUM_PROJECTIONS


class LoRAOperator(abc.ABC):
    """Latency model for one LoRA-batching operator implementation.

    Attributes
    ----------
    name:
        Operator name as used in figures ("ATMM", "S-LoRA", ...).
    jitter_frac:
        Run-to-run latency fluctuation as a fraction of the mean; drives
        the stability comparison (Fig. 18).  ATMM's adaptive tiling keeps
        SM occupancy and memory phases regular, so its jitter is the
        smallest.
    """

    name: str = "abstract"
    jitter_frac: float = 0.0

    def __init__(self, cost_model: GemmCostModel):
        self.cost_model = cost_model

    # -- required per-implementation pieces ---------------------------------

    @abc.abstractmethod
    def pair_seconds(
        self,
        token_counts: Sequence[int],
        ranks: Sequence[int],
        hidden_dim: int,
    ) -> float:
        """Latency of shrink + expand grouped GEMMs for one projection."""

    # -- shared pieces -------------------------------------------------------

    def add_seconds(self, total_tokens: int, hidden_dim: int) -> float:
        """Elementwise add of the LoRA output onto the base output.

        Memory bound: read base output + read LoRA output + write result.
        """
        nbytes = 3 * total_tokens * hidden_dim * FP16_BYTES
        return (
            self.cost_model.elementwise_seconds(nbytes)
            + self.cost_model.launch_seconds(1)
        )

    def layer_seconds(
        self,
        token_counts: Sequence[int],
        ranks: Sequence[int],
        hidden_dim: int,
        num_projections: int = NUM_PROJECTIONS,
    ) -> float:
        """Full extra latency one transformer layer pays for unmerged LoRA."""
        total = sum(token_counts)
        per_proj = self.pair_seconds(token_counts, ranks, hidden_dim)
        per_proj += self.add_seconds(total, hidden_dim)
        return per_proj * num_projections

    def sample_seconds(
        self, mean_seconds: float, rng: Optional[np.random.Generator] = None
    ) -> float:
        """One latency sample with this operator's run-to-run jitter.

        Deterministic (returns the mean) when ``rng`` is ``None``.
        """
        if rng is None or self.jitter_frac == 0.0:
            return mean_seconds
        sample = rng.normal(mean_seconds, self.jitter_frac * mean_seconds)
        # A run can never beat the in-kernel lower bound by much; clamp.
        return max(sample, mean_seconds * 0.5)

    # -- convenience ----------------------------------------------------------

    @staticmethod
    def _validated(token_counts: Sequence[int], ranks: Sequence[int]):
        if len(token_counts) == 0:
            raise ValueError("need at least one request group")
        if len(token_counts) != len(ranks):
            raise ValueError("token_counts and ranks must align")
        if any(t <= 0 for t in token_counts):
            raise ValueError(f"token counts must be positive: {token_counts}")
        if any(r <= 0 for r in ranks):
            raise ValueError(f"ranks must be positive: {ranks}")
        return list(token_counts), list(ranks)

    def _grouped(self, token_counts, ranks, hidden_dim):
        token_counts, ranks = self._validated(token_counts, ranks)
        return lora_gemm_shapes(token_counts, hidden_dim, ranks)
