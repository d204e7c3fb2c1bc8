"""Online KV-cache compression for the decode loop.

``KVCacheCodec`` wraps the block codec with the online (min/max) pattern
library; ``KVCacheStream`` is the per-(layer, head) cache that compresses
every generated token's key and value vectors as they are appended and
serves decompressed reads back to attention.

Attention always reads keys and values together, so the stream codes
them together: :meth:`KVCacheCodec.pair_with` stacks the key and value
libraries into one two-library codec (see
:class:`~repro.core.patterns.MetaStack`), an append plans and packs both
sides in one call and a read unpacks and reconstructs both sides' fresh
segments in one call.  Each block keeps its own side's ids, so the bytes
are exactly those of two one-side calls; only the codec's per-call cost
is paid once instead of twice.

The decode loop is amortized O(new tokens): per side the stream keeps a
read cursor (segments and tokens already decoded) and a decoded buffer
grown geometrically.  A read decodes only the segments past the cursor,
writes them behind the rows already there and returns a read-only view of
the filled prefix — no walk over the segment list and no copy of the
rows decoded earlier, so its cost does not grow with the context.
``invalidate_decoded`` rolls the cursor back; ``coalesce`` keeps the
cursor on a boundary itself, so ``repro.serve`` calls it only to drop a
finished request's decoded rows.

The stream does not know the storage format: it asks its codec for a
segment's ``token_shape``, to ``merge`` segments and to ``decode_all``
them.  :class:`KVCacheCodec` answers for Ecco blocks; the serving fp16
baseline answers with raw fp16 arrays, so both formats share one store.

The codec's cost is mostly per call, not per group, so callers batch:
``encode_sides`` over many tokens (of many streams) is cut back into
per-stream segments by :func:`slice_token_segment`, and
:func:`read_streams` decodes the pending segments of both sides of many
streams with one ``decode_sides``.  Both are bit-exact against the
one-stream, one-side calls because every group is planned, packed and
unpacked on its own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codec import CompressedTensor, EccoTensorCodec, plan_encoding, reconstruct
from .patterns import MetaStack, TensorMeta

__all__ = [
    "KVCacheCodec",
    "KVCacheStream",
    "merge_token_segments",
    "read_streams",
    "slice_token_segment",
    "split_token_segment",
]

#: A stream's two sides, in the order the pair codec stacks them.
SIDES = ("keys", "values")


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
    """Block codec bound to an online-calibrated KV pattern library, or
    to a stack of them (:meth:`pair_with`: a layer's keys and values).

    :meth:`encode_sides` and :meth:`decode_sides` take one batch per
    library; ``encode_tokens``, ``decode_all`` and ``decode_tokens`` are
    a one-library codec's single-side forms.
    """

    def __init__(self, meta: TensorMeta | MetaStack):
        if meta.config.pattern_select != "minmax":
            raise ValueError(
                "KV codecs use the hardware min/max selector; calibrate with "
                "calibrate_kv_meta()"
            )
        super().__init__(meta)
        self._pair: tuple | None = None

    def pair_with(self, other: "KVCacheCodec") -> "KVCacheCodec":
        """The two-library codec that codes this codec's side and
        ``other``'s in one call (built on first use, kept for the last
        partner asked for).

        Its blocks carry each side's own pattern and codebook ids, so
        they are byte-identical to this codec's and ``other``'s.
        """
        if self._pair is None or self._pair[0] is not other:
            pair = KVCacheCodec(MetaStack((self.meta, other.meta)))
            self._pair = (other, pair)
        return self._pair[1]

    def encode_token(self, vector: np.ndarray) -> CompressedTensor:
        """Compress one token's K or V vector (padded to whole groups)."""
        return self.encode_tokens(
            np.asarray(vector, dtype=np.float32).reshape(1, -1)
        )

    def encode_tokens(self, vectors: np.ndarray) -> CompressedTensor:
        """Compress a (num_tokens, dim) batch in one planning pass: the
        one-library case of :meth:`encode_sides`."""
        return self.encode_sides([vectors])[0]

    def encode_sides(self, rows: Sequence[np.ndarray]) -> list[CompressedTensor]:
        """One token segment per library from one plan and one pack.

        ``rows`` holds a (num_tokens, dim) batch per library of this codec
        — one for a plain codec, keys then values for a :meth:`pair_with`
        codec — all of one shape.  Every token's groups are planned on
        their own, so each segment is byte-identical to per-token encodes
        under its own library.
        """
        stack = self.meta.stack
        batches = []
        for batch in rows:
            batch = np.asarray(batch, dtype=np.float32)
            batches.append(batch.reshape(1, -1) if batch.ndim == 1 else batch)
        if len(batches) != stack.num_libraries:
            raise ValueError(
                f"{len(batches)} batches for a {stack.num_libraries}-library codec"
            )
        if len({batch.shape for batch in batches}) != 1:
            raise ValueError(
                "sides coded in one call must have one shape; got "
                + ", ".join(str(batch.shape) for batch in batches)
            )
        num_tokens, dim = batches[0].shape
        # Each token row zero-padded to whole groups on its own (not the
        # flattened batch once), so every token's groups — and blocks —
        # are those the one-token-at-a-time path produces.
        group_size = stack.config.group_size
        padded_dim = -(-dim // group_size) * group_size
        if padded_dim == dim and len(batches) == 1:
            padded = batches[0][None]  # whole groups: plan the caller's rows
        else:
            padded = np.zeros((len(batches), num_tokens, padded_dim), np.float32)
            for lib, batch in enumerate(batches):
                padded[lib, :, :dim] = batch
        plan = plan_encoding(self.meta, padded if self.meta is stack else padded[0])
        blocks = self.encode_plan(plan).blocks
        per_side = plan.num_groups // len(batches)
        size = float(num_tokens * padded_dim)
        segments = []
        for lib in range(len(batches)):
            part = slice(lib * per_side, (lib + 1) * per_side)
            segments.append(CompressedTensor(
                blocks=blocks[part],
                shape=(num_tokens, padded_dim),
                pad=0,
                clipping_ratio=float(plan.clipped_symbols[part].sum()) / size,
                padding_ratio=float(plan.padded_outliers[part].sum()) / size,
                token_shape=(num_tokens, dim),
            ))
        return segments

    def decode_tokens(self, compressed: CompressedTensor) -> np.ndarray:
        """Decode a batched-token segment back to (num_tokens, dim)."""
        if compressed.token_shape is None:
            raise ValueError("not a token segment; use decode()")
        values = self.decode(compressed)
        num_tokens, dim = compressed.token_shape
        return values.reshape(num_tokens, -1)[:, :dim]

    @staticmethod
    def token_shape(segment: CompressedTensor) -> tuple[int, int]:
        """``(num_tokens, dim)`` of a token segment."""
        if segment.token_shape is None:
            raise ValueError("segments must be token batches (token_shape set)")
        return segment.token_shape

    @staticmethod
    def merge(segments: list[CompressedTensor]) -> CompressedTensor:
        """One segment for consecutive ``segments`` (see
        :func:`merge_token_segments`, looked up at call time)."""
        return merge_token_segments(segments)

    def decode_all(self, segments: list[CompressedTensor]) -> np.ndarray:
        """Decode many token segments with one vectorized unpack: the
        one-library case of :meth:`decode_sides`."""
        return self.decode_sides([segments])[0]

    def decode_sides(
        self, segments: Sequence[Sequence[CompressedTensor]]
    ) -> list[np.ndarray]:
        """Each library's token segments decoded to (num_tokens, dim),
        all libraries' blocks through one :meth:`plan_from_blocks` and one
        reconstruction, so the per-call overhead is paid once whatever
        the segment and library count.  A library with no segments gets
        an empty (0, 0) array; the libraries' token counts may differ.
        """
        stack = self.meta.stack
        if len(segments) != stack.num_libraries:
            raise ValueError(
                f"{len(segments)} segment lists for a "
                f"{stack.num_libraries}-library codec"
            )
        blocks: list[np.ndarray] = []
        groups: list[int] = []
        shapes: list[tuple[int, int]] = []
        for side in segments:
            num_tokens = dim = count = 0
            for segment in side:
                tokens, seg_dim = self.token_shape(segment)
                if dim and seg_dim != dim:
                    raise ValueError("segments must be token batches of one dim")
                num_tokens += tokens
                dim = seg_dim
                count += segment.blocks.shape[0]
                blocks.append(segment.blocks)
            groups.append(count)
            shapes.append((num_tokens, dim))
        if not blocks:
            return [np.zeros((0, 0), dtype=np.float32) for _ in segments]
        stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        library = None
        if self.meta is stack:
            library = np.repeat(np.arange(len(groups)), groups)
        plan = self.plan_from_blocks(
            stacked, (stacked.shape[0], stack.config.group_size), 0, library=library
        )
        values = reconstruct(self.meta, plan)
        out = []
        start = 0
        for (num_tokens, dim), count in zip(shapes, groups):
            part = values[start : start + count]
            out.append(
                part.reshape(num_tokens, -1)[:, :dim]
                if num_tokens
                else np.zeros((0, 0), dtype=np.float32)
            )
            start += count
        return out


class KVCacheStream:
    """An append-only compressed KV cache for one attention head group.

    Reads return (num_tokens, dim) arrays — the shape attention consumes.
    Decoded rows are kept: a read decodes only the segments appended since
    the previous read — both sides' at once, so ``read_keys`` followed by
    ``read_values`` is one codec call — and a T-step decode loop
    performs O(T) total block decodes instead of O(T^2), and a read costs
    O(fresh segments) whatever the context length.  The ``decoded_tokens``
    counters expose exactly how much decode work was done, and
    ``invalidate_decoded`` rolls the read cursor back.  Rows only ever
    enter the decoded buffer out of a codec decode — a read's, or one the
    caller already ran and hands over with ``prime_decoded`` — never from
    the encoder's own reconstruction.

    The two codecs are anything with ``token_shape``, ``merge`` and
    ``pair_with`` over one segment type, the pair answering
    ``encode_sides`` and ``decode_sides`` for both sides at once:
    :class:`KVCacheCodec` for Ecco blocks,
    ``repro.serve.storage.Fp16KVBackend`` for raw fp16 rows.
    """

    def __init__(self, key_codec: KVCacheCodec, value_codec: KVCacheCodec):
        self.key_codec = key_codec
        self.value_codec = value_codec
        #: Codes and decodes both sides in one call.
        self.pair_codec = key_codec.pair_with(value_codec)
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

    def _prefix_index(self, side: str, token_limit: int) -> tuple[int, int]:
        """(index, tokens) of the longest prefix of one side's segments of
        <= token_limit tokens — the boundary a mid-segment position rounds
        down to.

        A walk over the segment list: only the cursor rewrites
        (``_truncate_cache``, ``coalesce``) may call it, never a read.
        """
        token_shape = self._codec(side).token_shape
        covered = 0
        for idx, segment in enumerate(self._segments[side]):
            tokens = token_shape(segment)[0]
            if covered + tokens > token_limit:
                return idx, covered
            covered += tokens
        return len(self._segments[side]), covered

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
        ck, cv = self.pair_codec.encode_sides((keys, values))
        self.append_compressed(ck, cv)

    def append_compressed(
        self, key_segment: CompressedTensor, value_segment: CompressedTensor
    ) -> None:
        """Append pre-encoded K and V token segments (no re-encode).

        This is the page-sharing path: a segment encoded once for one
        stream (e.g. a shared prompt page) is appended by reference to
        every other stream that covers the same tokens.
        """
        kt, k_dim = self.key_codec.token_shape(key_segment)
        vt, v_dim = self.value_codec.token_shape(value_segment)
        if kt != vt:
            raise ValueError(
                f"keys and values must cover the same tokens: got "
                f"{kt} key tokens but {vt} value tokens"
            )
        self._segments["keys"].append(key_segment)
        self._segments["values"].append(value_segment)
        self._num_tokens += kt
        self.original_nbytes += (kt * k_dim + vt * v_dim) * 2
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
        idx, covered = self._prefix_index(side, token_limit)
        # Keep exactly the surviving rows: arrays already handed out alias
        # the rows past them, so those must not be decoded into again.  A
        # buffer with no spare capacity makes the next read grow into
        # fresh memory instead.
        self._buffer[side] = self._buffer[side][:covered] if covered else None
        self._cached_segments[side] = idx
        self._cached_tokens[side] = covered

    def read_keys(self) -> np.ndarray:
        """The decoded (num_tokens, dim) key cache attention reads.

        Only tokens appended since the last read are decoded (values
        too, in the same call); the rest are already in the decoded
        buffer.  The returned array is a read-only view of that buffer,
        not a copy, and later appends, invalidations and rewrites never
        change it.
        """
        return read_streams([self])[0][0]

    def read_values(self) -> np.ndarray:
        """The decoded (num_tokens, dim) value cache attention reads."""
        return read_streams([self])[1][0]

    def invalidate_decoded(self, from_token: int | None = None) -> None:
        """Drop cached decoded state from ``from_token`` onward.

        With no argument everything is dropped (the next read re-decodes
        the whole stream).  With ``from_token`` only the tail is dropped,
        so the decoded prefix survives.  ``from_token`` rounds *down* to
        a segment boundary (decode is segment-granular), so at most one
        extra segment is re-decoded.  The compressed segments are
        untouched either way.
        """
        limit = 0 if from_token is None else max(from_token, 0)
        for side in SIDES:
            self._truncate_cache(side, limit)

    def coalesce(
        self, from_token: int
    ) -> tuple[CompressedTensor, CompressedTensor]:
        """Merge every segment from ``from_token`` to the end into one
        page-granular segment per side; returns the (key, value) pair.

        ``from_token`` must lie on a segment boundary.  Merging is a pure
        concatenation (see :func:`merge_token_segments`) so decoded
        values are unchanged bit for bit; decoded-cache state whose
        boundary fell strictly inside the merged range is dropped back to
        ``from_token`` (segment-granular reads could no longer resume from
        it), which is the only re-decode this rewrite can cost.
        """
        segments = self._segments["keys"]
        idx, covered = self._prefix_index("keys", from_token)
        if covered != from_token:
            raise ValueError(
                f"from_token {from_token} is not a segment boundary"
            )
        if idx >= len(segments):
            raise ValueError(f"no segments at or after token {from_token}")
        merged_k = self.key_codec.merge(segments[idx:])
        merged_v = self.value_codec.merge(self._segments["values"][idx:])
        self._segments["keys"][idx:] = [merged_k]
        self._segments["values"][idx:] = [merged_v]
        for side in SIDES:
            if self._cached_tokens[side] == self._num_tokens:
                self._cached_segments[side] = idx + 1
            else:
                self._truncate_cache(side, from_token)
        return merged_k, merged_v


def read_streams(
    streams: Sequence[KVCacheStream],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each stream's decoded ``(num_tokens, dim)`` keys and values, from
    a single ``decode_sides``.

    Gathers both sides' segments past every stream's read cursor into one
    call of the streams' pair codec, so the codec's per-call cost is paid
    once per batch instead of once per stream and side, and scatters the
    rows back behind each stream's cursors.  Every group decodes
    independently, so the rows are exactly those a read of each stream
    and side alone produces; :meth:`KVCacheStream.read_keys` is the
    one-stream case.  The streams must share one pair codec (a serving
    backend's requests do, per layer).
    """
    codec = streams[0].pair_codec
    fresh: tuple[list[CompressedTensor], list[CompressedTensor]] = ([], [])
    for stream in streams:
        if stream.pair_codec is not codec:
            raise ValueError("streams read together must share one codec")
        for pending, side in zip(fresh, SIDES):
            pending += stream._segments[side][stream._cached_segments[side]:]
    if fresh[0] or fresh[1]:
        for rows, side in zip(codec.decode_sides(fresh), SIDES):
            start = 0
            for stream in streams:
                end = start + len(stream) - stream._cached_tokens[side]
                if end > start:
                    stream._store_decoded(side, rows[start:end])
                start = end
    keys = [stream._decoded_view("keys") for stream in streams]
    values = [stream._decoded_view("values") for stream in streams]
    return keys, values
