"""Shared k-means pattern library and Huffman codebook calibration.

``fit_tensor_meta`` is the offline calibration pass (Steps 1-6 of the
paper's flow): sample groups, normalize by the per-group scale element,
cluster the groups' value distributions into ``S`` shared patterns (each a
sorted vector of 15 centroids), then fit ``H`` Huffman codebooks over the
resulting symbol streams with a Lloyd iteration in code-length space.

``calibrate_kv_meta`` is the online variant: the 16-pattern hardware
library with min/max pattern selection, fit on captured KV-cache data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import KV_CONFIG, WEIGHT_CONFIG, EccoConfig
from .grouping import normalize_groups, tensor_exponent, to_groups
from .huffman import canonical_codes, limited_code_lengths

__all__ = [
    "TensorMeta",
    "fit_tensor_meta",
    "calibrate_kv_meta",
    "select_patterns_mse",
    "select_patterns_minmax",
    "nearest_symbols",
]

#: Symbol value reserved for the group's scale element (not entropy-coded).
SCALE_SYMBOL = 15


@dataclass
class TensorMeta:
    """Per-tensor shared metadata: the pattern library and codebooks."""

    patterns: np.ndarray  # (S, 15) sorted centroids in ~[-1, 1]
    codebook_lengths: np.ndarray  # (H, 15) Huffman code lengths in bits
    tensor_exp: int
    config: EccoConfig
    codebook_codes: np.ndarray = field(default=None)  # (H, 15) canonical codes

    def __post_init__(self):
        if self.codebook_codes is None:
            self.codebook_codes = np.stack(
                [canonical_codes(row) for row in self.codebook_lengths]
            )
        # Lookup forms of the codebooks for the planner and the packer,
        # derived once here instead of on every call.  Not stored with the
        # tensor, so :meth:`metadata_bits` does not count them.
        self.code_lengths = self.codebook_lengths.astype(np.int64)
        self.code_values = self.codebook_codes.astype(np.int64)

    @property
    def num_patterns(self) -> int:
        return int(self.patterns.shape[0])

    def metadata_bits(self) -> int:
        """Size of the shared metadata (what rides along with the tensor).

        Patterns are stored as fp16 centroids, codebooks as 4-bit code
        lengths (canonical codes are implied), plus the 8-bit shared
        exponent and one byte each for S and H.
        """
        pattern_bits = self.patterns.size * 16
        codebook_bits = self.codebook_lengths.size * 4
        return pattern_bits + codebook_bits + 8 + 16


def nearest_symbols(values: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Nearest-centroid symbols for ``values`` under one sorted pattern."""
    mids = (pattern[1:] + pattern[:-1]) / 2.0
    return np.searchsorted(mids, values).astype(np.int64)


def select_patterns_mse(
    normalized: np.ndarray,
    absmax_pos: np.ndarray,
    patterns: np.ndarray,
    scale_index: int = 0,
    act_weights: np.ndarray | None = None,
    max_candidates: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-MSE pattern selection (the offline weight path).

    Returns ``(pattern_ids, symbols)`` where ``symbols`` is the per-value
    code matrix with :data:`SCALE_SYMBOL` marking each group's scale slot
    (rank ``scale_index`` by magnitude, whose position is ``absmax_pos``).

    With a large library, each group first short-lists ``max_candidates``
    patterns by quantile-descriptor distance, then runs the exact MSE only
    on the short list.  The short-list metric is unweighted, so when
    ``act_weights`` are given the prefilter is skipped — a mismatched
    shortlist would systematically miss the weighted-best pattern.
    """
    if act_weights is not None:
        max_candidates = None
    num_groups, group_size = normalized.shape
    num_patterns = patterns.shape[0]
    rows = np.arange(num_groups)
    mask = np.ones_like(normalized, dtype=bool)
    mask[rows, absmax_pos] = False
    weights = mask.astype(np.float32)
    if act_weights is not None:
        weights = weights * act_weights.astype(np.float32)

    best_cost = np.full(num_groups, np.inf, dtype=np.float64)
    pattern_ids = np.zeros(num_groups, dtype=np.int64)
    symbols = np.zeros((num_groups, group_size), dtype=np.int64)

    if max_candidates is not None and num_patterns > max_candidates:
        # Short-list by distance between the group's sorted-value profile
        # and each pattern (both are sorted 15-vectors).
        srt = np.sort(normalized, axis=1)
        idx = np.round(np.linspace(0, group_size - 1, patterns.shape[1])).astype(int)
        desc = srt[:, idx]
        d2 = np.sum((desc[:, None, :] - patterns[None, :, :]) ** 2, axis=2)
        cand = np.argpartition(d2, max_candidates - 1, axis=1)[:, :max_candidates]
        for k in range(max_candidates):
            pid = cand[:, k]
            pats = patterns[pid]  # (G, 15), a different pattern per group
            mids = (pats[:, 1:] + pats[:, :-1]) / 2.0
            syms = np.sum(normalized[:, :, None] > mids[:, None, :], axis=2)
            cvals = pats[rows[:, None], syms]
            cost = np.sum((normalized - cvals) ** 2 * weights, axis=1)
            better = cost < best_cost
            best_cost[better] = cost[better]
            pattern_ids[better] = pid[better]
            symbols[better] = syms[better]
    else:
        for pid, pattern in enumerate(patterns):
            syms = nearest_symbols(normalized, pattern)
            err = (normalized - pattern[syms]) ** 2
            cost = np.sum(err * weights, axis=1)
            better = cost < best_cost
            best_cost[better] = cost[better]
            pattern_ids[better] = pid
            symbols[better] = syms[better]
    symbols[rows, absmax_pos] = SCALE_SYMBOL
    return pattern_ids, symbols


@lru_cache(maxsize=None)
def _landmark_index(group_size: int, num_values: int) -> np.ndarray:
    """Ranks of the sorted group the selector compares to the centroids:
    the min, the max and evenly spaced order statistics between them."""
    index = np.round(np.linspace(0, group_size - 1, num_values)).astype(int)
    index.flags.writeable = False
    return index


def select_patterns_minmax(
    normalized: np.ndarray,
    absmax_pos: np.ndarray,
    patterns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hardware order-statistic pattern selection (the online KV path).

    The compressor's 128-input bitonic sorter produces the fully sorted
    group, so the selector compares a ladder of sorted landmarks — the
    min, the max, and evenly spaced interior order statistics — against
    each pattern's centroids and picks the closest.  This is the
    simplified in-pipeline selection (no per-value search like the
    offline MSE path), at a small fidelity cost the §5 ablation
    quantifies.  Returns ``(pattern_ids, symbols, fitness)``.
    """
    num_groups, group_size = normalized.shape
    rows = np.arange(num_groups)
    # The scale slot takes the group median (what ``np.median`` returns,
    # read off the sorted group) so it does not pull a landmark outward.
    ranked = np.sort(normalized, axis=1)
    half = group_size // 2
    if group_size % 2:
        med = ranked[:, half]
    else:
        med = (ranked[:, half - 1] + ranked[:, half]) / 2
    med = np.where(np.isnan(ranked[:, -1]), np.nan, med)
    work = normalized.copy()
    work[rows, absmax_pos] = med
    work.sort(axis=1)
    landmarks = work[:, _landmark_index(group_size, patterns.shape[1])]
    fitness = ((landmarks[:, None, :] - patterns[None, :, :]) ** 2).sum(axis=2)
    # The two best-fitness patterns go through a trial quantization and
    # the lower-error one wins (the compressor's parallel encoders make
    # the second trial free); everything stays one pipeline pass.
    if patterns.shape[0] > 1:
        cand = np.argpartition(fitness, 1, axis=1)[:, :2]
    else:
        cand = np.zeros((num_groups, 1), dtype=np.int64)
    mask = np.ones_like(normalized, dtype=bool)
    mask[rows, absmax_pos] = False
    pats = patterns[cand]  # (G, trials, 15)
    mids = (pats[:, :, 1:] + pats[:, :, :-1]) / 2.0
    # A value's symbol is how many midpoints lie below it, counted along
    # the leading axis: 14 whole-array adds instead of a reduction per value.
    syms = (
        normalized[None, :, None, :] > mids.transpose(2, 0, 1)[:, :, :, None]
    ).sum(axis=0)
    cvals = patterns[cand[:, :, None], syms]
    cost = ((normalized[:, None, :] - cvals) ** 2 * mask[:, None, :]).sum(axis=2)
    # First strictly-lowest trial wins; a group none of whose trials has a
    # finite cost (NaN input) keeps pattern 0 and all-zero symbols.
    cost = np.where(cost < np.inf, cost, np.inf)
    best = cost.argmin(axis=1)
    scored = cost[rows, best] < np.inf
    pattern_ids = np.where(scored, cand[rows, best], 0)
    symbols = np.where(scored[:, None], syms[rows, best], 0)
    symbols[rows, absmax_pos] = SCALE_SYMBOL
    return pattern_ids, symbols, fitness


def _quantile_descriptors(
    normalized: np.ndarray, absmax_pos: np.ndarray, num_values: int
) -> np.ndarray:
    """Per-group descriptor: quantiles of the non-scale values.

    The outer entries are the group's actual min/max so the pattern library
    keeps centroids out at the extremes (the Fig. 7 "wide span" signature);
    the interior entries are evenly spaced quantiles.
    """
    num_groups, group_size = normalized.shape
    rows = np.arange(num_groups)
    work = normalized.copy()
    # Drop the scale slot by replacing it with the group median so it does
    # not distort the quantiles.
    med = np.median(normalized, axis=1)
    work[rows, absmax_pos] = med
    qs = np.concatenate(
        [[0.0], (np.arange(1, num_values - 1) + 0.5) / (num_values - 1), [1.0]]
    )
    return np.quantile(work, qs, axis=1).T.astype(np.float32)


def _fit_patterns(
    normalized: np.ndarray,
    absmax_pos: np.ndarray,
    config: EccoConfig,
    seed: int,
    act_weights: np.ndarray | None,
    iterations: int = 4,
) -> np.ndarray:
    """K-means over group quantile descriptors, Lloyd-refined on values."""
    descriptors = _quantile_descriptors(normalized, absmax_pos, config.pattern_values)
    num_groups = descriptors.shape[0]
    # Each pattern needs enough member groups to estimate a stable shape;
    # single-group patterns overfit their own quantiles, which flattens
    # symbol usage and wastes the entropy budget.
    S = max(1, min(config.num_patterns, num_groups // 4))

    # Deterministic balanced clustering: order the groups by descriptor
    # span (the dominant axis of variation once groups are absmax
    # normalized) and cut into S equal-count bins.  Monotone in S and
    # immune to the seeding noise k-means++ suffers on homogeneous data.
    span = descriptors[:, -1] - descriptors[:, 0]
    order = np.argsort(span, kind="stable")
    patterns = np.empty((S, config.pattern_values), dtype=np.float64)
    for s in range(S):
        sel = order[(s * num_groups) // S : ((s + 1) * num_groups) // S]
        if sel.size == 0:
            sel = order[-1:]
        patterns[s] = descriptors[sel].mean(axis=0)

    patterns = np.sort(patterns, axis=1)

    # Lloyd refinement on the actual member values: reassign groups by MSE,
    # then move each centroid to the (activation-weighted) mean of the
    # values it quantizes.  This is the "activation-aware k-means" step;
    # converging toward the MSE-optimal quantizer also skews the symbol
    # usage (dense centroids near zero soak up most values), which is what
    # gives the Huffman stage its entropy headroom.
    rows = np.arange(normalized.shape[0])
    mask = np.ones_like(normalized, dtype=bool)
    mask[rows, absmax_pos] = False
    weights = mask.astype(np.float32)
    if act_weights is not None:
        weights = weights * (act_weights.astype(np.float32) + 1e-12)
    for _ in range(6):
        pattern_ids, symbols = select_patterns_mse(
            normalized, absmax_pos, patterns, act_weights=act_weights
        )
        for s in range(S):
            sel = pattern_ids == s
            if not np.any(sel):
                continue
            vals = normalized[sel]
            syms = symbols[sel]
            wts = weights[sel]
            for c in range(config.pattern_values):
                hit = syms == c
                wsum = float(np.sum(wts[hit]))
                if wsum > 0:
                    patterns[s, c] = float(np.sum(vals[hit] * wts[hit]) / wsum)
        patterns = np.sort(patterns, axis=1)

    # Entropy-aware shaping: lean each pattern toward the uniform grid
    # over its own span (see EccoConfig.grid_blend).
    beta = config.grid_blend
    if beta > 0:
        grids = np.linspace(patterns[:, 0], patterns[:, -1], patterns.shape[1]).T
        patterns = (1.0 - beta) * patterns + beta * grids
    return np.sort(patterns, axis=1).astype(np.float32)


def _fit_codebooks(
    symbols: np.ndarray,
    pattern_ids: np.ndarray,
    config: EccoConfig,
    seed: int,
    refine_iterations: int = 3,
) -> np.ndarray:
    """Fit ``H`` length-limited Huffman codebooks (Lloyd in length space).

    Groups are clustered by which codebook encodes them shortest; each
    codebook is rebuilt from the aggregate symbol histogram of its cluster.
    """
    rng = np.random.default_rng(seed)
    H = config.num_codebooks
    num_symbols = config.num_symbols
    num_groups = symbols.shape[0]

    # Per-group histograms over the coded symbols (scale slot excluded).
    coded = symbols[symbols < num_symbols].reshape(num_groups, -1)
    hists = np.zeros((num_groups, num_symbols), dtype=np.float64)
    for s in range(num_symbols):
        hists[:, s] = np.sum(coded == s, axis=1)

    # Initial split: order groups by symbol-distribution entropy so the
    # codebooks specialize from flat to peaked distributions.
    probs = hists / np.maximum(hists.sum(axis=1, keepdims=True), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.nansum(np.where(probs > 0, probs * np.log2(probs), 0.0), axis=1)
    order = np.argsort(ent + 1e-9 * rng.random(num_groups))
    assign = np.zeros(num_groups, dtype=np.int64)
    for h in range(H):
        assign[order[(h * num_groups) // H : ((h + 1) * num_groups) // H]] = h

    lengths = np.zeros((H, num_symbols), dtype=np.uint8)

    def rebuild() -> None:
        for h in range(H):
            sel = assign == h
            counts = hists[sel].sum(axis=0) if np.any(sel) else hists.sum(axis=0)
            lengths[h] = limited_code_lengths(counts + 1.0, config.max_code_len)

    rebuild()
    for _ in range(max(refine_iterations, 0)):
        # Reassign each group to the codebook that encodes it shortest.
        cost = hists @ lengths.T.astype(np.float64)
        assign = np.argmin(cost, axis=1)
        rebuild()
    return lengths


def fit_tensor_meta(
    tensor: np.ndarray,
    act_weights: np.ndarray | None = None,
    config: EccoConfig = WEIGHT_CONFIG,
    seed: int = 0,
    max_calibration_groups: int | None = None,
) -> TensorMeta:
    """Calibrate the shared pattern library + Huffman codebooks on a tensor."""
    groups, _pad = to_groups(tensor, config.group_size)
    aw_groups = None
    if act_weights is not None:
        aw_groups, _ = to_groups(act_weights, config.group_size)

    if max_calibration_groups is not None and groups.shape[0] > max_calibration_groups:
        rng = np.random.default_rng(seed)
        pick = rng.choice(groups.shape[0], size=max_calibration_groups, replace=False)
        pick.sort()
        groups = groups[pick]
        if aw_groups is not None:
            aw_groups = aw_groups[pick]

    exp = tensor_exponent(tensor)
    norm = normalize_groups(groups, exp, config)
    patterns = _fit_patterns(
        norm.normalized, norm.absmax_pos, config, seed, aw_groups
    )
    if config.pattern_select == "minmax":
        pattern_ids, symbols, _ = select_patterns_minmax(
            norm.normalized, norm.absmax_pos, patterns
        )
    else:
        pattern_ids, symbols = select_patterns_mse(
            norm.normalized, norm.absmax_pos, patterns,
            scale_index=config.scale_index, act_weights=aw_groups,
        )
    codebook_lengths = _fit_codebooks(symbols, pattern_ids, config, seed)
    return TensorMeta(
        patterns=patterns,
        codebook_lengths=codebook_lengths,
        tensor_exp=exp,
        config=config,
    )


def calibrate_kv_meta(
    kv: np.ndarray,
    seed: int = 0,
    config: EccoConfig = KV_CONFIG,
    max_calibration_groups: int = 512,
) -> TensorMeta:
    """Fit the online 16-pattern hardware library on captured KV data."""
    return fit_tensor_meta(
        kv, config=config, seed=seed, max_calibration_groups=max_calibration_groups
    )
