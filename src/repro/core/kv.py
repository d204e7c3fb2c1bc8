"""Online KV-cache compression for the decode loop.

``KVCacheCodec`` wraps the block codec with the online (min/max) pattern
library; ``KVCacheStream`` is the per-(layer, head) cache that compresses
every generated token's key and value vectors as they are appended and
serves decompressed reads back to attention.

The decode loop is amortized O(new tokens): per side the stream keeps a
read cursor (segments and tokens already decoded) and a decoded buffer
grown geometrically.  A read decodes only the segments past the cursor,
writes them behind the rows already there and returns a read-only view of
the filled prefix — no walk over the segment list and no copy of the
rows decoded earlier, so its cost does not grow with the context.
``invalidate_decoded`` is the hook eviction and segment-rewriting passes
use to roll the cursor back.

The codec's cost is mostly per call, not per group, so callers batch:
``encode_tokens`` over many tokens (of many streams) is cut back into
per-stream segments by :func:`slice_token_segment`, and
:func:`read_streams` decodes the pending segments of many streams with
one ``decode_all``.  Both are bit-exact against the one-stream calls
because every group is planned, packed and unpacked on its own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codec import CompressedTensor, EccoTensorCodec, plan_encoding, reconstruct
from .patterns import TensorMeta

__all__ = [
    "KVCacheCodec",
    "KVCacheStream",
    "merge_token_segments",
    "read_streams",
    "slice_token_segment",
    "split_token_segment",
]


def merge_token_segments(segments: list[CompressedTensor]) -> CompressedTensor:
    """Concatenate token segments into one segment, bit for bit.

    Per-token group padding makes a multi-token segment's block stack the
    exact concatenation of its tokens' blocks, so merging is pure
    bookkeeping: no decode, no re-encode, and the merged segment decodes
    to the same values as the parts.  This is what turns a run of
    one-token decode appends into a page-granular segment.
    """
    if not segments:
        raise ValueError("no segments to merge")
    shapes = {c.token_shape for c in segments if c.token_shape is not None}
    if any(c.token_shape is None for c in segments):
        raise ValueError("segments must be token batches (token_shape set)")
    dims = {shape[1] for shape in shapes}
    padded_dims = {c.shape[1] for c in segments}
    if len(dims) != 1 or len(padded_dims) != 1:
        raise ValueError("segments must share one token dim")
    if len(segments) == 1:
        return segments[0]
    (dim,) = dims
    (padded_dim,) = padded_dims
    num_tokens = sum(c.token_shape[0] for c in segments)
    sizes = np.array([float(np.prod(c.shape)) for c in segments])
    total = float(sizes.sum())
    return CompressedTensor(
        blocks=np.concatenate([c.blocks for c in segments], axis=0),
        shape=(num_tokens, padded_dim),
        pad=0,
        clipping_ratio=float(
            sum(c.clipping_ratio * s for c, s in zip(segments, sizes)) / total
        ),
        padding_ratio=float(
            sum(c.padding_ratio * s for c, s in zip(segments, sizes)) / total
        ),
        token_shape=(num_tokens, dim),
    )


def slice_token_segment(
    segment: CompressedTensor, token_counts: Sequence[int]
) -> list[CompressedTensor]:
    """Cut a token segment at token boundaries into consecutive parts of
    ``token_counts`` tokens each, bit for bit.

    The inverse of :func:`merge_token_segments`: per-token group padding
    makes a segment's block stack the exact concatenation of its tokens'
    blocks, so slicing is pure bookkeeping — slice the block rows at the
    token boundaries and every part decodes to exactly the rows the
    whole segment would have produced (and, because every group is
    encoded independently, to exactly the blocks a fresh encode of that
    part's rows would emit).  This is what lets one ``encode_tokens``
    call cover a whole engine step or a whole prompt and still hand every
    request, page and tail the bytes a call of its own would have made.

    The block slices are copied so evicting one part actually frees its
    bytes instead of pinning the parent's whole block stack (a single
    part *is* the segment and is returned as it stands).  A part's
    ``clipping_ratio``/``padding_ratio`` are the parent's: the per-group
    ratios are stats, not decode state, and the encode call's averages
    are the best per-part estimate available without re-planning.
    Nothing in ``repro.serve``, the tests, the baselines or the harness
    reads them off a sliced part.
    """
    if segment.token_shape is None:
        raise ValueError("not a token segment (token_shape unset)")
    num_tokens, dim = segment.token_shape
    counts = [int(count) for count in token_counts]
    if min(counts, default=0) < 1 or sum(counts) != num_tokens:
        raise ValueError(
            f"parts of {counts} tokens do not tile the segment's "
            f"{num_tokens} tokens"
        )
    padded_dim = segment.shape[1]
    groups = segment.blocks.shape[0]
    if groups % num_tokens:
        raise ValueError(
            f"{groups} block groups do not divide evenly over "
            f"{num_tokens} tokens; not a per-token-padded segment"
        )
    if len(counts) == 1:
        return [segment]
    groups_per_token = groups // num_tokens
    parts = []
    start = 0
    for tokens in counts:
        end = start + tokens * groups_per_token
        parts.append(
            CompressedTensor(
                blocks=segment.blocks[start:end].copy(),
                shape=(tokens, padded_dim),
                pad=0,
                clipping_ratio=segment.clipping_ratio,
                padding_ratio=segment.padding_ratio,
                token_shape=(tokens, dim),
            )
        )
        start = end
    return parts


def split_token_segment(
    segment: CompressedTensor, num_head_tokens: int
) -> tuple[CompressedTensor, CompressedTensor]:
    """Cut a token segment in two at a token boundary, bit for bit: the
    two-part case of :func:`slice_token_segment` (which rejects a split
    point outside the segment).  This is what lets a prefix-cache page be
    split at a divergence point without re-encoding either side."""
    if segment.token_shape is None:
        raise ValueError("not a token segment (token_shape unset)")
    tail_tokens = segment.token_shape[0] - num_head_tokens
    head, tail = slice_token_segment(segment, (num_head_tokens, tail_tokens))
    return head, tail


class KVCacheCodec(EccoTensorCodec):
    """Block codec bound to an online-calibrated KV pattern library."""

    def __init__(self, meta: TensorMeta):
        if meta.config.pattern_select != "minmax":
            raise ValueError(
                "KV codecs use the hardware min/max selector; calibrate with "
                "calibrate_kv_meta()"
            )
        super().__init__(meta)

    def _pad_tokens(self, vectors: np.ndarray) -> np.ndarray:
        """Zero-pad each token row to a whole number of groups.

        Per-token padding (rather than padding the flattened batch once)
        keeps every token's group boundaries — and therefore its packed
        blocks — identical to what the one-token-at-a-time path produces.
        """
        group_size = self.meta.config.group_size
        pad = (-vectors.shape[1]) % group_size
        if not pad:
            return vectors
        return np.concatenate(
            [vectors, np.zeros((vectors.shape[0], pad), dtype=vectors.dtype)],
            axis=1,
        )

    def encode_token(self, vector: np.ndarray) -> CompressedTensor:
        """Compress one token's K or V vector (padded to whole groups)."""
        return self.encode_tokens(
            np.asarray(vector, dtype=np.float32).reshape(1, -1)
        )

    def encode_tokens(self, vectors: np.ndarray) -> CompressedTensor:
        """Compress a (num_tokens, dim) batch in one planning pass.

        All tokens' groups go through a single :func:`plan_encoding` call
        and one vectorized pack, instead of one Python iteration per
        token; the emitted blocks are byte-identical to per-token encodes.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        num_tokens, dim = vectors.shape
        padded = self._pad_tokens(vectors)
        plan = plan_encoding(self.meta, padded)
        compressed = self.encode_plan(plan)
        compressed.token_shape = (num_tokens, dim)
        return compressed

    def decode_tokens(self, compressed: CompressedTensor) -> np.ndarray:
        """Decode a batched-token segment back to (num_tokens, dim)."""
        if compressed.token_shape is None:
            raise ValueError("not a token segment; use decode()")
        values = self.decode(compressed)
        num_tokens, dim = compressed.token_shape
        return values.reshape(num_tokens, -1)[:, :dim]

    def decode_all(self, segments: list[CompressedTensor]) -> np.ndarray:
        """Decode many token segments with one vectorized unpack.

        Stacks every segment's blocks and runs a single
        :meth:`plan_from_blocks` + reconstruction over all of them, so the
        per-call overhead is paid once regardless of segment count.
        """
        if not segments:
            return np.zeros((0, 0), dtype=np.float32)
        dims = {c.token_shape[1] for c in segments if c.token_shape is not None}
        if len(dims) != 1 or any(c.token_shape is None for c in segments):
            raise ValueError("segments must be token batches of one dim")
        (dim,) = dims
        blocks = (
            segments[0].blocks
            if len(segments) == 1
            else np.concatenate([c.blocks for c in segments], axis=0)
        )
        group_size = self.meta.config.group_size
        num_tokens = sum(c.token_shape[0] for c in segments)
        padded_dim = blocks.shape[0] * group_size // num_tokens
        plan = self.plan_from_blocks(blocks, (num_tokens, padded_dim), 0)
        return reconstruct(self.meta, plan)[:, :dim]


class KVCacheStream:
    """An append-only compressed KV cache for one attention head group.

    Reads return (num_tokens, dim) arrays — the shape attention consumes.
    Decoded rows are kept: ``read_keys``/``read_values`` decode only the
    segments appended since the previous read, so a T-step decode loop
    performs O(T) total block decodes instead of O(T^2), and a read costs
    O(fresh segments) whatever the context length.  The ``decoded_tokens``
    counters expose exactly how much decode work was done, and
    ``invalidate_decoded`` rolls the read cursor back (the hook eviction
    or segment-rewriting passes must call).  Rows only ever enter the
    decoded buffer out of a block decode — a read's, or one the caller
    already ran and hands over with ``prime_decoded`` — never from the
    encoder's own reconstruction.
    """

    def __init__(self, key_codec: KVCacheCodec, value_codec: KVCacheCodec):
        self.key_codec = key_codec
        self.value_codec = value_codec
        self._segments: dict[str, list[CompressedTensor]] = {
            "keys": [], "values": []
        }
        #: Decoded rows per side, in a buffer that grows by half when full.
        #: Rows below the cursor are never written again, so the read-only
        #: prefix views handed to callers stay valid as the stream grows.
        self._buffer: dict[str, np.ndarray | None] = {
            "keys": None, "values": None
        }
        #: The read cursor per side: how many segments, and how many tokens,
        #: are decoded into the buffer.  Always on a segment boundary of the
        #: current segment list (reads decode whole segments; invalidation
        #: rounds down to a boundary; ``coalesce`` re-counts it).
        self._cached_segments = {"keys": 0, "values": 0}
        self._cached_tokens = {"keys": 0, "values": 0}
        #: Tokens actually run through block decode, per side (the decode
        #: work counter the O(new tokens) guarantee is tested against).
        self.decoded_tokens = {"keys": 0, "values": 0}
        self._num_tokens = 0
        self.original_nbytes = 0
        self.compressed_nbytes = 0

    def __len__(self) -> int:
        return self._num_tokens

    @property
    def num_segments(self) -> int:
        return len(self._segments["keys"])

    @staticmethod
    def _prefix_index(
        segments: list[CompressedTensor], token_limit: int
    ) -> tuple[int, int]:
        """(index, tokens) of the longest segment prefix of <= token_limit
        tokens — the boundary a mid-segment position rounds down to.

        A walk over the segment list: only the cursor rewrites
        (``_truncate_cache``, ``coalesce``) may call it, never a read.
        """
        covered = 0
        for idx, segment in enumerate(segments):
            tokens = segment.token_shape[0]
            if covered + tokens > token_limit:
                return idx, covered
            covered += tokens
        return len(segments), covered

    def append(self, key: np.ndarray, value: np.ndarray) -> None:
        """Append one token's K and V vectors."""
        self.append_tokens(
            np.asarray(key, dtype=np.float32).reshape(1, -1),
            np.asarray(value, dtype=np.float32).reshape(1, -1),
        )

    def append_tokens(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append a (num_tokens, dim) batch of K and V vectors at once."""
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        if keys.ndim == 1:
            keys = keys.reshape(1, -1)
        if values.ndim == 1:
            values = values.reshape(1, -1)
        if keys.shape[0] != values.shape[0]:
            raise ValueError(
                f"keys and values must cover the same tokens: got "
                f"{keys.shape[0]} key tokens but {values.shape[0]} value tokens"
            )
        ck = self.key_codec.encode_tokens(keys)
        cv = self.value_codec.encode_tokens(values)
        self.append_compressed(ck, cv)

    def append_compressed(
        self, key_segment: CompressedTensor, value_segment: CompressedTensor
    ) -> None:
        """Append pre-encoded K and V token segments (no re-encode).

        This is the page-sharing path: a segment encoded once for one
        stream (e.g. a shared prompt page) is appended by reference to
        every other stream that covers the same tokens.
        """
        if key_segment.token_shape is None or value_segment.token_shape is None:
            raise ValueError("segments must be token batches (token_shape set)")
        kt, vt = key_segment.token_shape[0], value_segment.token_shape[0]
        if kt != vt:
            raise ValueError(
                f"keys and values must cover the same tokens: got "
                f"{kt} key tokens but {vt} value tokens"
            )
        self._segments["keys"].append(key_segment)
        self._segments["values"].append(value_segment)
        self._num_tokens += kt
        self.original_nbytes += (
            kt * key_segment.token_shape[1] + vt * value_segment.token_shape[1]
        ) * 2
        self.compressed_nbytes += key_segment.nbytes + value_segment.nbytes

    @property
    def compression_ratio(self) -> float:
        if self.compressed_nbytes == 0:
            return 1.0
        return self.original_nbytes / self.compressed_nbytes

    def _codec(self, side: str) -> KVCacheCodec:
        return self.key_codec if side == "keys" else self.value_codec

    def _store_decoded(self, side: str, rows: np.ndarray) -> None:
        """Write block-decoded ``rows`` behind the cursor and move the
        cursor to the end of the stream — the only write into the decoded
        buffer, so ``decoded_tokens`` counts every token that enters it."""
        cached = self._cached_tokens[side]
        total = cached + rows.shape[0]
        buffer = self._buffer[side]
        if buffer is None or total > buffer.shape[0]:
            # Geometric growth keeps appends amortized O(1).  Half again
            # (not double) halves the idle slack: decoded float32 rows
            # are the largest thing a finished stream keeps alive.
            capacity = max(total, cached + max(cached // 2, 16))
            grown = np.empty((capacity, rows.shape[1]), dtype=np.float32)
            if cached:
                grown[:cached] = buffer[:cached]
            buffer = self._buffer[side] = grown
        buffer[cached:total] = rows
        self.decoded_tokens[side] += rows.shape[0]
        self._cached_segments[side] = len(self._segments[side])
        self._cached_tokens[side] = total

    def _decoded_view(self, side: str) -> np.ndarray:
        buffer = self._buffer[side]
        if buffer is None:
            return np.zeros((0, 0), dtype=np.float32)
        view = buffer[: self._cached_tokens[side]]
        view.flags.writeable = False
        return view

    def prime_decoded(self, side: str, rows: np.ndarray) -> None:
        """Adopt ``rows`` a caller already block-decoded from this side's
        segments past the cursor, so the next read does not decode them a
        second time (the prefill roundtrip hands its rows over this way).

        ``rows`` must be the ``decode_all`` of exactly those segments; the
        work was done, so it is counted in ``decoded_tokens`` like a read.
        """
        pending = self._num_tokens - self._cached_tokens[side]
        if rows.ndim != 2 or rows.shape[0] != pending:
            raise ValueError(
                f"{side}: got decoded rows of shape {rows.shape} for "
                f"{pending} tokens past the read cursor"
            )
        self._store_decoded(side, rows)

    def _truncate_cache(self, side: str, token_limit: int) -> None:
        """Roll one side's cursor back to the last segment boundary at or
        below ``token_limit`` (a no-op when it is already there)."""
        if self._cached_tokens[side] <= token_limit:
            return
        idx, covered = self._prefix_index(self._segments[side], token_limit)
        # Keep exactly the surviving rows: arrays already handed out alias
        # the rows past them, so those must not be decoded into again.  A
        # buffer with no spare capacity makes the next read grow into
        # fresh memory instead.
        self._buffer[side] = self._buffer[side][:covered] if covered else None
        self._cached_segments[side] = idx
        self._cached_tokens[side] = covered

    def read_keys(self) -> np.ndarray:
        """The decoded (num_tokens, dim) key cache attention reads.

        Only tokens appended since the last read are decoded; the rest
        are already in the decoded buffer.  The returned array is a
        read-only view of that buffer, not a copy, and later appends,
        invalidations and rewrites never change it.
        """
        return read_streams([self], "keys")[0]

    def read_values(self) -> np.ndarray:
        """The decoded (num_tokens, dim) value cache attention reads."""
        return read_streams([self], "values")[0]

    def invalidate_decoded(self, from_token: int | None = None) -> None:
        """Drop cached decoded state from ``from_token`` onward.

        With no argument everything is dropped (the blunt eviction hook:
        the next read re-decodes the whole stream).  With ``from_token``
        only the tail is dropped — the hook page-granular eviction and
        segment rewrites use so they do not throw away the decoded prefix.
        ``from_token`` rounds *down* to a segment boundary (decode is
        segment-granular), so at most one extra segment is re-decoded.
        The compressed segments are untouched either way.
        """
        limit = 0 if from_token is None else max(from_token, 0)
        for side in ("keys", "values"):
            self._truncate_cache(side, limit)

    def coalesce(
        self, from_token: int
    ) -> tuple[CompressedTensor, CompressedTensor]:
        """Merge every segment from ``from_token`` to the end into one
        page-granular segment per side; returns the (key, value) pair.

        ``from_token`` must lie on a segment boundary.  Merging is a pure
        block concatenation (see :func:`merge_token_segments`) so decoded
        values are unchanged bit for bit; decoded-cache state whose
        boundary fell strictly inside the merged range is dropped back to
        ``from_token`` (segment-granular reads could no longer resume from
        it), which is the only re-decode this rewrite can cost.
        """
        segments = self._segments["keys"]
        idx, covered = self._prefix_index(segments, from_token)
        if covered != from_token:
            raise ValueError(
                f"from_token {from_token} is not a segment boundary"
            )
        if idx >= len(segments):
            raise ValueError(f"no segments at or after token {from_token}")
        merged_k = merge_token_segments(segments[idx:])
        merged_v = merge_token_segments(self._segments["values"][idx:])
        self._segments["keys"][idx:] = [merged_k]
        self._segments["values"][idx:] = [merged_v]
        for side in ("keys", "values"):
            if self._cached_tokens[side] == self._num_tokens:
                self._cached_segments[side] = idx + 1
            else:
                self._truncate_cache(side, from_token)
        return merged_k, merged_v


def read_streams(
    streams: Sequence[KVCacheStream], side: str
) -> list[np.ndarray]:
    """Each stream's decoded ``(num_tokens, dim)`` cache of one side, from
    a single block decode.

    Gathers every stream's segments past its read cursor into one
    :meth:`KVCacheCodec.decode_all`, so the codec's per-call cost is paid
    once per batch instead of once per stream, and scatters the rows back
    behind each stream's cursor.  Every group decodes independently, so
    the rows are exactly those a read of each stream alone produces;
    :meth:`KVCacheStream.read_keys` is the one-stream case.  The streams
    must share one codec (a serving backend's requests do, per layer).
    """
    codec = streams[0]._codec(side)
    fresh: list[CompressedTensor] = []
    for stream in streams:
        if stream._codec(side) is not codec:
            raise ValueError("streams read together must share one codec")
        fresh += stream._segments[side][stream._cached_segments[side]:]
    if fresh:
        rows = codec.decode_all(fresh)
        start = 0
        for stream in streams:
            end = start + len(stream) - stream._cached_tokens[side]
            if end > start:
                stream._store_decoded(side, rows[start:end])
            start = end
    return [stream._decoded_view(side) for stream in streams]
