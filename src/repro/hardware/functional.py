"""Bit-exact functional models of the compressor and decompressor units.

These wrap the software codec's planning/packing passes with the counters a
microarchitect cares about (comparators fired, speculative sub-decodes,
merge operations), so the walkthrough example can show the Section 4 view
while staying bit-identical to :class:`repro.core.EccoTensorCodec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import pack_block, unpack_block
from repro.core.codec import EncodingPlan, plan_encoding, reconstruct
from repro.core.patterns import SCALE_SYMBOL, TensorMeta, select_patterns_minmax
from repro.core.grouping import normalize_groups

__all__ = ["HardwareCompressor", "ParallelHuffmanDecoder", "CompressedBlock",
           "CompressorOutput", "DecodedBlock"]

#: 128-input bitonic sorting network: 28 stages of 64 comparators.
BITONIC_STAGES = 28
BITONIC_COMPARATORS_PER_STAGE = 64

#: Speculative decode: 64 window starts, 8 candidate bit offsets each.
SPECULATIVE_WINDOWS = 64
SPECULATIVE_OFFSETS = 8


@dataclass
class CompressedBlock:
    """One packed 64-byte block plus its header fields."""

    data: bytes
    pattern_id: int
    codebook_id: int
    padded_outliers: int
    clipped_symbols: int


@dataclass
class CompressorOutput:
    """What the compressor datapath exposes for one group."""

    block: CompressedBlock
    comparators_used: int
    pattern_fitness: np.ndarray  # (num_patterns,) lower wins
    encoder_lengths: np.ndarray  # payload bits under each parallel encoder


@dataclass
class DecodedBlock:
    """What the decompressor datapath recovers from one block."""

    values: np.ndarray
    symbols_decoded: int
    outliers_applied: int
    sub_decodes_performed: int
    merge_operations: int


class HardwareCompressor:
    """The online 4x compressor: min/max selection, 4 parallel encoders."""

    def __init__(self, meta: TensorMeta):
        self.meta = meta

    def encode_group(self, group: np.ndarray) -> CompressorOutput:
        meta = self.meta
        config = meta.config
        group = np.asarray(group, dtype=np.float32).reshape(1, -1)
        if group.shape[1] != config.group_size:
            raise ValueError(
                f"hardware compressor takes one {config.group_size}-value group"
            )

        # The selector's view: fitness of every pattern from the sorter's
        # min/max outputs (the full plan recomputes this identically).
        norm = normalize_groups(group, meta.tensor_exp, config)
        _, _, fitness = select_patterns_minmax(
            norm.normalized, norm.absmax_pos, meta.patterns
        )

        plan = plan_encoding(meta, group.ravel())
        coded = plan.symbols[0] != SCALE_SYMBOL
        safe = np.where(coded, plan.symbols[0], 0)
        encoder_lengths = (meta.code_lengths[:, safe] * coded[None, :]).sum(axis=1)

        out_pos = np.flatnonzero(plan.corrections[0])
        data = pack_block(
            config,
            plan.scales[0],
            int(plan.scale_pos[0]),
            int(plan.pattern_ids[0]),
            int(plan.codebook_ids[0]),
            plan.symbols[0],
            meta.codebook_lengths[plan.codebook_ids[0]],
            meta.codebook_codes[plan.codebook_ids[0]],
            out_pos,
            plan.corrections[0, out_pos],
        )
        block = CompressedBlock(
            data=data,
            pattern_id=int(plan.pattern_ids[0]),
            codebook_id=int(plan.codebook_ids[0]),
            padded_outliers=int(plan.padded_outliers[0]),
            clipped_symbols=int(plan.clipped_symbols[0]),
        )
        return CompressorOutput(
            block=block,
            comparators_used=BITONIC_STAGES * BITONIC_COMPARATORS_PER_STAGE,
            pattern_fitness=fitness[0],
            encoder_lengths=encoder_lengths,
        )


class ParallelHuffmanDecoder:
    """The speculative parallel Huffman decoder (paper Fig. 8).

    Functionally it is the block unpacker; the counters describe the
    hardware schedule: every 8-bit window is decoded at all candidate bit
    offsets in parallel, then a binary merge tree keeps the consistent
    chain.
    """

    def __init__(self, meta: TensorMeta):
        self.meta = meta

    def decode(self, data: bytes) -> DecodedBlock:
        meta = self.meta
        config = meta.config
        scale, pos, pid, cid, symbols, out_pos, out_q = unpack_block(
            config, bytes(data), meta.codebook_lengths
        )
        if pid >= meta.num_patterns:
            raise ValueError("corrupt block: pattern id out of range")
        corrections = np.zeros((1, config.group_size), dtype=np.int64)
        corrections[0, out_pos] = out_q
        plan = EncodingPlan(
            shape=(config.group_size,),
            pad=0,
            scales=np.array([scale], dtype=np.float32),
            scale_pos=np.array([pos], dtype=np.int64),
            pattern_ids=np.array([pid], dtype=np.int64),
            codebook_ids=np.array([cid], dtype=np.int64),
            symbols=symbols.reshape(1, -1),
            corrections=corrections,
            clipped_symbols=np.zeros(1, dtype=np.int64),
            padded_outliers=np.zeros(1, dtype=np.int64),
        )
        values = reconstruct(meta, plan)
        return DecodedBlock(
            values=values,
            symbols_decoded=int(symbols.size),
            outliers_applied=int(out_pos.size),
            sub_decodes_performed=SPECULATIVE_WINDOWS * SPECULATIVE_OFFSETS,
            merge_operations=SPECULATIVE_WINDOWS - 1,
        )
