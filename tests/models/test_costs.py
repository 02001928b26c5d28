"""Tests for the per-iteration base-model cost model."""

import pytest

from repro.hardware import A100_80GB, H100_80GB
from repro.models import (
    LLAVA15_13B,
    LLAVA15_7B,
    QWEN_VL_7B,
    IterationCostModel,
)


@pytest.fixture(scope="module")
def costs():
    return IterationCostModel(QWEN_VL_7B, A100_80GB)


class TestDecode:
    def test_single_decode_step_magnitude(self, costs):
        """7B on A100: one decode step is roughly 9-15 ms (weights-bound)."""
        t = costs.decode_seconds([512])
        assert 0.006 < t < 0.02

    def test_batching_amortizes_weights(self, costs):
        """32 requests decode in far less than 32x one request."""
        one = costs.decode_seconds([512])
        batch = costs.decode_seconds([512] * 32)
        assert batch < 4 * one

    def test_longer_context_costs_more(self, costs):
        short = costs.decode_seconds([128] * 8)
        long = costs.decode_seconds([4096] * 8)
        assert long > short

    def test_task_head_cheaper_than_lm_head(self, costs):
        """§4.2.2: a ~100-class head beats the 152k-vocab LM head."""
        lm = costs.decode_seconds([512] * 8, lm_head=True)
        head = costs.decode_seconds([512] * 8, lm_head=False,
                                    task_head_classes=101)
        assert head < lm

    def test_validation(self, costs):
        with pytest.raises(ValueError):
            costs.decode_seconds([])
        with pytest.raises(ValueError):
            costs.decode_seconds([0])


class TestPrefill:
    def test_per_token_under_1ms(self, costs):
        """§6.2: prefill tokens cost '<1 ms per token'."""
        t = costs.prefill_seconds([1024])
        assert t / 1024 < 1e-3

    def test_prefill_scales_with_tokens(self, costs):
        assert costs.prefill_seconds([2048]) > costs.prefill_seconds([256])

    def test_images_add_encoder_time(self, costs):
        plain = costs.prefill_seconds([256])
        with_img = costs.prefill_seconds([256], num_images=1)
        assert with_img > plain
        assert with_img - plain == pytest.approx(
            costs.vision_encode_seconds(1), rel=0.01
        )

    def test_validation(self, costs):
        with pytest.raises(ValueError):
            costs.prefill_seconds([])
        with pytest.raises(ValueError):
            costs.prefill_seconds([-5])


class TestVisionEncoder:
    def test_zero_images_free(self, costs):
        assert costs.vision_encode_seconds(0) == 0.0

    def test_qwen_encoder_heavier_than_llava(self):
        """Openclip-ViT 1.9B vs CLIP-ViT 0.3B."""
        qwen = IterationCostModel(QWEN_VL_7B, A100_80GB)
        # LLaVA has more tokens/image but ~6x fewer parameters.
        llava = IterationCostModel(LLAVA15_7B, A100_80GB)
        assert qwen.vision_encode_seconds(1) > llava.vision_encode_seconds(1)

    def test_negative_rejected(self, costs):
        with pytest.raises(ValueError):
            costs.vision_encode_seconds(-1)


class TestCrossModelAndGPU:
    def test_13b_slower_than_7b(self):
        small = IterationCostModel(LLAVA15_7B, A100_80GB)
        big = IterationCostModel(LLAVA15_13B, A100_80GB)
        assert big.decode_seconds([512] * 8) > small.decode_seconds([512] * 8)

    def test_h100_faster_than_a100(self):
        a = IterationCostModel(QWEN_VL_7B, A100_80GB)
        h = IterationCostModel(QWEN_VL_7B, H100_80GB)
        assert h.decode_seconds([512] * 8) < a.decode_seconds([512] * 8)

    def test_head_seconds_validation(self):
        costs = IterationCostModel(QWEN_VL_7B, A100_80GB)
        with pytest.raises(ValueError):
            costs.head_seconds(0, 10)
