"""Configuration for the Ecco codec.

Every compressed unit is one *group* of ``group_size`` values packed into a
fixed 64-byte *block* — the size of two 32-byte memory sectors, which is what
lets the hardware address compressed data with no indirection tables.  A
tensor shares a small library of ``num_patterns`` k-means patterns (15
centroids each; the 16th code is the group's scale slot) and
``num_codebooks`` Huffman codebooks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["EccoConfig", "WEIGHT_CONFIG", "KV_CONFIG", "ACT_CONFIG"]


@dataclass(frozen=True)
class EccoConfig:
    """Knobs of the codec; the defaults are the paper's weight settings."""

    group_size: int = 128
    num_patterns: int = 64  # S: shared k-means patterns per tensor
    num_codebooks: int = 4  # H: shared Huffman codebooks per tensor
    pattern_values: int = 15  # centroids per pattern (code 15 = scale slot)
    block_bytes: int = 64  # fixed compressed block size
    pattern_select: str = "mse"  # "mse" (offline) or "minmax" (hardware)
    scale_index: int = 0  # |value| rank used as the group scale (0 = absmax)
    max_code_len: int = 8  # Huffman length limit (8-bit decode windows)
    correction_scale: int = 64  # residual quantization step = scale / 64
    # Outlier slots the rate control keeps free in every block: symbols are
    # shed (cheaply, via the lambda ladder) until this much payload is
    # spare, and the slots then hold 8-bit corrections for the block's
    # worst residuals.  Trading marginal symbol precision for targeted
    # outlier precision is the clip/pad balance of the paper's Step 9.
    outlier_reserve_slots: int = 2
    mse_candidates: int = 8  # patterns short-listed before the exact MSE pass
    # Entropy-aware pattern shaping: each fitted pattern is blended toward
    # a uniform grid spanning its own range.  Pure k-means (blend 0)
    # minimizes distortion but its near-balanced symbol usage defeats the
    # Huffman stage; a grid-leaning blend keeps the per-group span/shape
    # adaptivity while the skewed code usage buys back the rate that the
    # outlier slots then spend on the worst residuals.  The default suits
    # near-Gaussian weight tensors; the KV preset keeps more k-means
    # character for the outlier-heavy cache distributions.
    grid_blend: float = 0.95

    @property
    def block_bits(self) -> int:
        return self.block_bytes * 8

    @property
    def scale_pos_bits(self) -> int:
        return max(1, (self.group_size - 1).bit_length())

    #: Fixed-width id fields (byte-aligned library of up to 256 patterns
    #: and 16 codebooks), so the block format is invariant to S and H.
    pattern_id_bits: int = 8
    codebook_id_bits: int = 4

    #: Outlier-count field width (up to 31 slots; a block never fits more).
    outlier_count_bits: int = 5

    @property
    def max_outliers(self) -> int:
        return (1 << self.outlier_count_bits) - 1

    @property
    def outlier_bits(self) -> int:
        """One outlier slot: position + 8-bit quantized correction."""
        return self.scale_pos_bits + 8

    @property
    def header_bits(self) -> int:
        """Per-block header: fp16 signed scale + scale position + pattern
        id + codebook id + outlier count, all at minimal widths."""
        return (
            16
            + self.scale_pos_bits
            + self.pattern_id_bits
            + self.codebook_id_bits
            + self.outlier_count_bits
        )

    @property
    def num_symbols(self) -> int:
        """Distinct Huffman symbols (the scale slot is not entropy-coded)."""
        return self.pattern_values

    def replace(self, **kwargs) -> "EccoConfig":
        return replace(self, **kwargs)


#: Offline weight compression: large pattern library, full-MSE selection.
#: Weight groups are near-Gaussian, so the patterns lean almost fully to
#: per-span grids (low code entropy) and only one outlier slot is held.
WEIGHT_CONFIG = EccoConfig(outlier_reserve_slots=1)

#: Online KV-cache compression: the 16-pattern hardware library with the
#: sorted-landmark (min/max) pattern selector the compressor implements.
#: KV tensors carry per-channel outliers, so more slots are reserved.
KV_CONFIG = EccoConfig(
    num_patterns=16,
    pattern_select="minmax",
    outlier_reserve_slots=3,
    grid_blend=0.7,
)

#: The 2x activation path (FP16 -> 8-bit blocks, no Huffman stage).
ACT_CONFIG = EccoConfig(num_patterns=1, num_codebooks=1)
