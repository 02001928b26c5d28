"""Inference-mode switchers: V-LoRA's swift switch vs. dLoRA's (§4.4.1).

A switch from serving adapter ``i`` merged to serving adapter ``j``
merged (or to unmerged/mixture) requires un-merging and/or merging
all-layer ΔW = B x A into the base weights.

* **SwiftSwitcher** — computes all-layer ΔW in one grouped ATMM launch
  with the merge/unmerge fused into the epilogue, over pre-allocated
  contiguous weight memory (no tensor-reshape copies).  <10 ms on the
  paper's setup; ~5 ms of that is the ATMM ΔW pass (§6.3.2).
* **DLoRASwitcher** — per-layer ``torch.addmm``: one GEMM launch + one
  add pass per layer per projection, each round-tripping ΔW through HBM,
  plus a memory copy caused by non-contiguous adapter tensors and
  per-layer framework dispatch.  ~53 ms (Fig. 7).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.hardware.memory import FP16_BYTES
from repro.kernels.atmm import ATMMOperator
from repro.kernels.cost_model import GemmCostModel
from repro.kernels.shapes import GemmShape
from repro.kernels.tiling import TilingConfig
from repro.models.config import ModelConfig
from repro.models.lora import NUM_PROJECTIONS, LoRAAdapterSpec
from repro.runtime.modes import InferenceMode


class ModeSwitcher(abc.ABC):
    """Costs the transition between inference modes / merged adapters."""

    def __init__(self, model: ModelConfig,
                 num_projections: int = NUM_PROJECTIONS):
        self.model = model
        self.num_projections = num_projections

    @abc.abstractmethod
    def merge_seconds(self, adapter: LoRAAdapterSpec) -> float:
        """Cost of merging one adapter's all-layer ΔW into the base."""

    def unmerge_seconds(self, adapter: LoRAAdapterSpec) -> float:
        """Cost of subtracting it back out (same math as merging)."""
        return self.merge_seconds(adapter)

    def switch_seconds(
        self,
        from_mode: InferenceMode,
        to_mode: InferenceMode,
        from_adapter: Optional[LoRAAdapterSpec],
        to_adapter: Optional[LoRAAdapterSpec],
    ) -> float:
        """Total transition cost between two scheduler states.

        The merged adapter changes whenever the target state merges a
        different adapter than the current state has folded in.
        """
        current = from_adapter if from_mode in (
            InferenceMode.MERGED, InferenceMode.MIXTURE) else None
        target = to_adapter if to_mode in (
            InferenceMode.MERGED, InferenceMode.MIXTURE) else None
        cost = 0.0
        if current is not None and (
            target is None or target.adapter_id != current.adapter_id
        ):
            cost += self.unmerge_seconds(current)
        if target is not None and (
            current is None or current.adapter_id != target.adapter_id
        ):
            if target is None:
                raise ValueError("target mode requires a merged adapter")
            cost += self.merge_seconds(target)
        return cost


class SwiftSwitcher(ModeSwitcher):
    """V-LoRA's one-shot, ATMM-backed switcher (§4.4.1)."""

    #: Residual software cost: one fused launch + stream sync.
    SOFTWARE_OVERHEAD_S = 0.3e-3

    def __init__(self, model: ModelConfig, atmm: ATMMOperator,
                 num_projections: int = NUM_PROJECTIONS):
        super().__init__(model, num_projections)
        self.atmm = atmm

    def merge_seconds(self, adapter: LoRAAdapterSpec) -> float:
        t = self.atmm.delta_w_seconds(
            num_layers=self.model.num_layers,
            hidden_dim=self.model.hidden_dim,
            rank=adapter.rank,
            num_projections=self.num_projections,
            fuse_merge=True,
        )
        return t + self.SOFTWARE_OVERHEAD_S


class DLoRASwitcher(ModeSwitcher):
    """dLoRA's per-layer addmm switcher (§3.2 C3, Fig. 7)."""

    #: Framework dispatch per layer per projection: python -> aten ->
    #: cuBLAS plus the host synchronization dLoRA's implementation issues
    #: to reuse its staging buffers between layers.
    PER_CALL_OVERHEAD_S = 620e-6

    #: cuBLAS-ish static config used for the per-layer ΔW GEMM.
    GEMM_CONFIG = TilingConfig(bm=128, bk=32, bn=64, wm=64, wk=32, wn=32,
                               double_buffered=False)

    def __init__(self, model: ModelConfig, cost_model: GemmCostModel,
                 num_projections: int = NUM_PROJECTIONS):
        super().__init__(model, num_projections)
        self.cost_model = cost_model

    def merge_seconds(self, adapter: LoRAAdapterSpec) -> float:
        d = self.model.hidden_dim
        shape = GemmShape(d, adapter.rank, d)
        calls = self.model.num_layers * self.num_projections
        per_layer = 0.0
        # 1) ΔW = B x A — a standalone GEMM writing ΔW to HBM.
        per_layer += self.cost_model.gemm_with_launch(shape, self.GEMM_CONFIG)
        # 2) addmm: read W and ΔW, write W (a separate elementwise pass).
        w_bytes = d * d * FP16_BYTES
        per_layer += self.cost_model.elementwise_seconds(3 * w_bytes)
        per_layer += self.cost_model.launch_seconds(1)
        # 3) non-contiguous adapter tensors force a reshape copy of ΔW.
        per_layer += self.cost_model.elementwise_seconds(2 * w_bytes)
        per_layer += self.cost_model.launch_seconds(1)
        per_layer += self.PER_CALL_OVERHEAD_S
        return calls * per_layer
