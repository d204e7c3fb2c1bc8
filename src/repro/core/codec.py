"""The Ecco tensor codec: bit-exact block path and vectorized fast path.

Both paths run the same array-level planning pass (:func:`plan_encoding`):
normalize groups, select patterns, choose codebooks, clip over-budget
groups, and fill leftover bits with outlier corrections.  The bit path then
serializes each group into a 64-byte block; the fast path reconstructs
directly from the planned arrays.  Because reconstruction is one shared
vectorized routine, ``decode(encode(x))`` and ``simulate_roundtrip`` agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    pack_blocks,
    unpack_blocks,
    window_tables as build_window_tables,
)
from .config import WEIGHT_CONFIG, EccoConfig
from .grouping import normalize_groups, to_groups
from .patterns import (
    SCALE_SYMBOL,
    TensorMeta,
    fit_tensor_meta,
    select_patterns_minmax,
    select_patterns_mse,
)

__all__ = [
    "EccoTensorCodec",
    "CompressedTensor",
    "SimulationResult",
    "simulate_roundtrip",
    "compress_weight",
    "ActivationCodec",
    "plan_encoding",
]


@dataclass
class EncodingPlan:
    """Everything needed to emit (or reconstruct) every block of a tensor."""

    shape: tuple
    pad: int
    scales: np.ndarray  # (G,) signed fp16-rounded group scales
    scale_pos: np.ndarray  # (G,)
    pattern_ids: np.ndarray  # (G,)
    codebook_ids: np.ndarray  # (G,)
    symbols: np.ndarray  # (G, group_size), SCALE_SYMBOL at the scale slot
    corrections: np.ndarray  # (G, group_size) int outlier corrections (0 = none)
    clipped_symbols: np.ndarray  # (G,) count per group
    padded_outliers: np.ndarray  # (G,) count per group

    @property
    def num_groups(self) -> int:
        return int(self.symbols.shape[0])


@dataclass
class CompressedTensor:
    """A tensor as a stack of fixed 64-byte blocks plus bookkeeping."""

    blocks: np.ndarray  # (G, block_bytes) uint8
    shape: tuple
    pad: int
    clipping_ratio: float
    padding_ratio: float
    #: Set by the batched token path: the (num_tokens, token_dim) view the
    #: blocks decode to, before stripping the per-token group padding.
    token_shape: tuple | None = None

    @property
    def num_groups(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.blocks.nbytes)

    @property
    def compression_ratio(self) -> float:
        """Versus the FP16 original (the paper's 4x target)."""
        shape = self.token_shape if self.token_shape is not None else self.shape
        original = (int(np.prod(shape))) * 2
        return original / self.nbytes


@dataclass
class SimulationResult:
    """Fast-path roundtrip output."""

    values: np.ndarray
    clipping_ratio: float
    padding_ratio: float
    pattern_ids: np.ndarray


def plan_encoding(
    meta: TensorMeta,
    tensor: np.ndarray,
    act_weights: np.ndarray | None = None,
) -> EncodingPlan:
    """The shared planning pass: groups -> symbols, clips and outliers."""
    config = meta.config
    tensor = np.asarray(tensor, dtype=np.float32)
    groups, pad = to_groups(tensor, config.group_size)
    aw = None
    if act_weights is not None:
        aw, _ = to_groups(act_weights, config.group_size)

    norm = normalize_groups(groups, meta.tensor_exp, config)
    if config.pattern_select == "minmax":
        pattern_ids, symbols, _ = select_patterns_minmax(
            norm.normalized, norm.absmax_pos, meta.patterns
        )
    else:
        pattern_ids, symbols = select_patterns_mse(
            norm.normalized, norm.absmax_pos, meta.patterns,
            scale_index=config.scale_index, act_weights=aw,
            max_candidates=config.mse_candidates,
        )

    G, group_size = symbols.shape
    rows = np.arange(G)[:, None]
    cols = np.arange(group_size)
    coded_mask = symbols != SCALE_SYMBOL
    safe_syms = np.where(coded_mask, symbols, 0)
    lengths = meta.code_lengths  # (H, num_symbols) int64
    header_bits = config.header_bits

    # Choose the codebook that encodes each group's nearest-symbol stream
    # shortest: a stream's length under a codebook is its symbol histogram
    # (the scale slot's bin dropped) times that codebook's code lengths.
    bins = SCALE_SYMBOL + 1
    hist = np.bincount(
        (rows * bins + symbols).ravel(), minlength=G * bins
    ).reshape(G, bins)[:, : lengths.shape[1]]
    totals = lengths @ hist.T  # (H, G)
    codebook_ids = totals.argmin(axis=0)
    bits_used = totals.min(axis=0) + header_bits

    def payload_bits(sel: np.ndarray) -> np.ndarray:
        """Block bits of groups ``sel`` under their current symbols/codebook."""
        value_bits = lengths[codebook_ids[sel][:, None], safe_syms[sel]]
        return (value_bits * coded_mask[sel]).sum(axis=1) + header_bits

    def centroid_dist2(sel: np.ndarray) -> np.ndarray:
        """Squared distance of each value of groups ``sel`` to each centroid
        of its pattern, (n, group_size, 15) — built only for the groups rate
        control touches, never for the whole tensor."""
        cents = meta.patterns[pattern_ids[sel]]
        return (norm.normalized[sel][:, :, None] - cents[:, None, :]) ** 2

    # Per-group rate control: groups whose nearest-centroid stream fits
    # the payload budget (minus the reserved outlier slots) are untouched;
    # over-budget groups shed exactly the excess bits by greedily
    # remapping the values with the best distortion-per-saved-bit ratio
    # to shorter-coded symbols.  Most such remaps are re-roundings to an
    # adjacent centroid at a near-boundary value; remaps that skip past a
    # neighbor genuinely lose resolution and are counted as the "clipped"
    # symbols of the paper's Step 9.
    target_bits = config.block_bits - (
        config.outlier_reserve_slots * config.outlier_bits
    )

    clipped = np.zeros(G, dtype=np.int64)
    for _ in range(8):  # almost always one pass; stragglers re-enter
        over = (bits_used > target_bits).nonzero()[0]
        if over.size == 0:
            break
        n = over.size
        local = np.arange(n)[:, None]
        dist2 = centroid_dist2(over)
        cb = lengths[codebook_ids[over]]  # (n, 15)
        cur = safe_syms[over]  # (n, gs)
        cur_len = cb[local, cur]  # (n, gs)
        cur_dist = dist2[local, cols, cur]
        # Best strictly-shorter alternative per value.
        shorter = cb[:, None, :] < cur_len[:, :, None]  # (n, gs, 15)
        alt = np.argmin(np.where(shorter, dist2, np.inf), axis=2)  # (n, gs)
        alt_dist = dist2[local, cols, alt]
        alt_len = cb[local, alt]
        saved = (cur_len - alt_len).astype(np.float64)
        feasible = (saved > 0) & coded_mask[over]
        added = np.where(feasible, alt_dist - cur_dist, np.inf)
        ratio = added / np.maximum(saved, 1e-9)
        order = ratio.argsort(axis=1, kind="stable")
        saved_sorted = np.where(feasible, saved, 0.0)[local, order]
        need = (bits_used[over] - target_bits).astype(np.float64)
        cumsave = saved_sorted.cumsum(axis=1)
        # Minimal prefix of the ratio-sorted list covering the deficit.
        take_sorted = (cumsave - saved_sorted < need[:, None]) & (
            saved_sorted > 0
        )
        take = np.zeros((n, group_size), dtype=bool)
        take[local, order] = take_sorted
        new_syms = np.where(take, alt, cur)  # still 0 at the scale slot
        symbols[over] = np.where(coded_mask[over], new_syms, SCALE_SYMBOL)
        safe_syms[over] = new_syms
        bits_used[over] = payload_bits(over)
        clipped[over] += (take & (np.abs(new_syms - cur) > 1)).sum(axis=1)

    # Guaranteed-fit fallback: a group the greedy loop could not shed below
    # the raw block budget (every symbol already at its codebook's minimum
    # length, yet still over) would overflow the 64-byte writer.  Force such
    # groups onto the codebook with the globally shortest codes and map
    # every value to the nearest of that codebook's minimum-length symbols.
    over = (bits_used > config.block_bits).nonzero()[0]
    if over.size:
        min_len = lengths.min(axis=1)  # (H,)
        forced_cb = np.where(
            min_len[codebook_ids[over]] == min_len.min(),
            codebook_ids[over],
            int(np.argmin(min_len)),
        )
        cb = lengths[forced_cb]  # (n, num_symbols)
        is_min = cb == cb.min(axis=1, keepdims=True)
        cost = np.where(is_min[:, None, :], centroid_dist2(over), np.inf)
        forced = np.argmin(cost, axis=2)
        cur = safe_syms[over]
        codebook_ids[over] = forced_cb
        symbols[over] = np.where(coded_mask[over], forced, SCALE_SYMBOL)
        safe_syms[over] = np.where(coded_mask[over], forced, 0)
        bits_used[over] = payload_bits(over)
        clipped[over] += ((np.abs(forced - cur) > 1) & coded_mask[over]).sum(axis=1)
        if np.any(bits_used[over] > config.block_bits):
            raise ValueError(
                "group cannot fit its block: even the shortest codes of "
                "every codebook overflow the 64-byte budget"
            )

    # Outlier padding: leftover bits hold (position, correction) slots for
    # the values with the largest (activation-weighted) residuals of the
    # normalized-domain reconstruction from the final symbols.
    recon_norm = meta.patterns[pattern_ids[:, None], safe_syms]
    resid = norm.normalized - recon_norm.astype(np.float32, copy=False)
    # A non-finite residual (a NaN/inf input value) has no correction to
    # store: left in, it would claim an outlier slot whose 8-bit field
    # packs to 0, a slot unpack -> re-pack cannot reproduce.  Zeroed, not
    # rejected — one request's bad row must not fail a whole step's batch.
    resid = np.where(coded_mask & np.isfinite(resid), resid, 0.0)
    q = np.minimum(
        np.maximum(np.rint(resid * config.correction_scale), -127), 127
    ).astype(np.int64)
    capacity = np.minimum(
        (config.block_bits - bits_used) // config.outlier_bits,
        config.max_outliers,
    )
    priority = np.abs(resid)
    if aw is not None:
        priority = priority * (aw + 1e-12)
    order = (-priority).argsort(axis=1, kind="stable")
    eligible_sorted = (q != 0)[rows, order]  # q is 0 at the scale slot
    rank = eligible_sorted.cumsum(axis=1)
    take = np.zeros((G, group_size), dtype=bool)
    take[rows, order] = eligible_sorted & (rank <= capacity[:, None])
    corrections = np.where(take, q, 0)
    padded = take.sum(axis=1)

    return EncodingPlan(
        shape=tensor.shape,
        pad=pad,
        scales=norm.scales,
        scale_pos=norm.absmax_pos,
        pattern_ids=pattern_ids,
        codebook_ids=codebook_ids,
        symbols=symbols,
        corrections=corrections,
        clipped_symbols=clipped,
        padded_outliers=padded,
    )


def reconstruct(
    meta: TensorMeta, plan: EncodingPlan, apply_outliers: bool = True
) -> np.ndarray:
    """Shared vectorized reconstruction (used by every decode path)."""
    config = meta.config
    coded_mask = plan.symbols != SCALE_SYMBOL
    safe_syms = np.where(coded_mask, plan.symbols, 0)
    recon = meta.patterns[plan.pattern_ids[:, None], safe_syms].astype(np.float32)
    if apply_outliers:
        recon = recon + (
            plan.corrections.astype(np.float32)
            * np.float32(1.0 / config.correction_scale)
        )
    abs_scales = np.abs(plan.scales).astype(np.float32)
    recon = recon * abs_scales[:, None]
    rows = np.arange(plan.num_groups)
    recon[rows, plan.scale_pos] = plan.scales
    recon = recon * np.float32(2.0**meta.tensor_exp)
    flat = recon.ravel()
    if plan.pad:
        flat = flat[: -plan.pad]
    return flat.reshape(plan.shape)


def simulate_roundtrip(
    meta: TensorMeta,
    tensor: np.ndarray,
    act_weights: np.ndarray | None = None,
    apply_outliers: bool = True,
) -> SimulationResult:
    """Vectorized fast path: what the tensor decodes to, without packing."""
    plan = plan_encoding(meta, tensor, act_weights=act_weights)
    values = reconstruct(meta, plan, apply_outliers=apply_outliers)
    size = float(np.prod(plan.shape))
    return SimulationResult(
        values=values,
        clipping_ratio=float(plan.clipped_symbols.sum()) / size,
        padding_ratio=float(plan.padded_outliers.sum()) / size,
        pattern_ids=plan.pattern_ids,
    )


class EccoTensorCodec:
    """Bit-exact block codec for one tensor's shared metadata.

    The Huffman decode tables are derived from the metadata once, lazily,
    and cached on the codec instance — never rebuilt per ``decode`` call.
    """

    def __init__(self, meta: TensorMeta):
        self.meta = meta
        self._window_tables: tuple | None = None

    @property
    def window_tables(self) -> tuple:
        """Speculative-window decode tables for the vectorized path."""
        if self._window_tables is None:
            self._window_tables = build_window_tables(
                self.meta.codebook_lengths, int(self.meta.config.max_code_len)
            )
        return self._window_tables

    def encode(
        self, tensor: np.ndarray, act_weights: np.ndarray | None = None
    ) -> CompressedTensor:
        plan = plan_encoding(self.meta, tensor, act_weights=act_weights)
        return self.encode_plan(plan)

    def encode_plan(self, plan: EncodingPlan) -> CompressedTensor:
        """Serialize an already-planned tensor (all groups at once)."""
        meta = self.meta
        blocks = pack_blocks(
            meta.config,
            plan.scales,
            plan.scale_pos,
            plan.pattern_ids,
            plan.codebook_ids,
            plan.symbols,
            plan.corrections,
            meta.code_lengths,
            meta.code_values,
        )
        size = float(math.prod(plan.shape))
        return CompressedTensor(
            blocks=blocks,
            shape=plan.shape,
            pad=plan.pad,
            clipping_ratio=float(plan.clipped_symbols.sum()) / size,
            padding_ratio=float(plan.padded_outliers.sum()) / size,
        )

    def plan_from_blocks(
        self, blocks: np.ndarray, shape: tuple, pad: int
    ) -> EncodingPlan:
        """Deserialize a block stack back into an :class:`EncodingPlan`."""
        meta = self.meta
        G = int(blocks.shape[0])
        (scales, scale_pos, pattern_ids, codebook_ids, symbols, corrections) = (
            unpack_blocks(
                meta.config,
                blocks,
                meta.codebook_lengths,
                tables=self.window_tables,
            )
        )
        if (pattern_ids >= meta.num_patterns).any():
            raise ValueError("corrupt block: pattern id out of range")
        return EncodingPlan(
            shape=shape,
            pad=pad,
            scales=scales,
            scale_pos=scale_pos,
            pattern_ids=pattern_ids,
            codebook_ids=codebook_ids,
            symbols=symbols,
            corrections=corrections,
            clipped_symbols=np.zeros(G, dtype=np.int64),
            padded_outliers=np.zeros(G, dtype=np.int64),
        )

    def decode(self, compressed: CompressedTensor) -> np.ndarray:
        plan = self.plan_from_blocks(
            compressed.blocks, compressed.shape, compressed.pad
        )
        return reconstruct(self.meta, plan)

    def roundtrip(
        self, tensor: np.ndarray, act_weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Encode + decode through the bit-exact block path."""
        return self.decode(self.encode(tensor, act_weights=act_weights))

    def fast_roundtrip(
        self, tensor: np.ndarray, act_weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized roundtrip; identical values to :meth:`roundtrip`."""
        return simulate_roundtrip(self.meta, tensor, act_weights=act_weights).values


def compress_weight(
    weight: np.ndarray,
    act_weights: np.ndarray | None = None,
    config: EccoConfig = WEIGHT_CONFIG,
    seed: int = 0,
    max_calibration_groups: int | None = 1024,
) -> tuple[CompressedTensor, TensorMeta]:
    """Calibrate on the tensor and compress it, in one call."""
    meta = fit_tensor_meta(
        weight,
        act_weights=act_weights,
        config=config,
        seed=seed,
        max_calibration_groups=max_calibration_groups,
    )
    compressed = EccoTensorCodec(meta).encode(weight, act_weights=act_weights)
    return compressed, meta


class ActivationCodec:
    """The 2x activation path: FP16 -> 8-bit codes in fixed-size blocks.

    Activations keep their outliers through the same scale-slot trick as
    the 4x path but skip the Huffman stage: each group stores a signed fp16
    scale, the scale position, and an 8-bit code per remaining value.
    """

    def __init__(self, group_size: int = 128):
        self.group_size = group_size

    def roundtrip(self, tensor: np.ndarray) -> np.ndarray:
        tensor = np.asarray(tensor, dtype=np.float32)
        groups, pad = to_groups(tensor, self.group_size)
        absmax_pos = np.argmax(np.abs(groups), axis=1)
        rows = np.arange(groups.shape[0])
        scales = np.float16(groups[rows, absmax_pos]).astype(np.float32)
        safe = np.where(np.abs(scales) > 0, np.abs(scales), np.float32(1.0))
        q = np.clip(np.rint(groups / safe[:, None] * 127.0), -127, 127)
        recon = (q.astype(np.float32) / np.float32(127.0)) * safe[:, None]
        recon[rows, absmax_pos] = scales
        flat = recon.ravel()
        if pad:
            flat = flat[:-pad]
        return flat.reshape(tensor.shape)
