"""Storage backends: per-request paged KV state over the shared pool.

Two backends serve the same engine: :class:`EccoKVBackend` stores pages
as Ecco 64-byte blocks and :class:`Fp16KVBackend` stores raw fp16 — the
capacity baseline.  Either way a request keeps one
:class:`~repro.core.KVCacheStream` per layer over the backend's codecs,
so reads decode (for fp16: cast to float32) only the rows appended since
the previous read, and a preempted request re-admits without touching
its history again.  The backends differ only in the bytes they store.

What a "segment" is belongs to the backend: ``encode_pair`` turns a
batch of a layer's key and value rows into one segment per side,
``slice_segment`` cuts a segment at token boundaries, and the backend's
per-layer codecs merge and decode segments for the streams
(:func:`~repro.core.read_streams` decodes both sides of many requests'
segments together).  The codec is therefore called once per layer per
*call site* — per engine decode step over the R running requests, per
prefill chunk (a cold whole prompt is one chunk), per warm suffix —
with keys and values going through the layer's pair codec
(``KVCacheCodec.pair_with``) together; never once per request, page or
side.  The rows are encoded in one batch and each request, page and
tail is handed its slice.  The codec plans every token's groups on
their own (per-token group padding), so a slice holds exactly the bytes
a call over its rows alone would emit.

A request's KV lives in two tiers: *pages* (full ``page_tokens`` units,
pool-accounted, prefix-shared, swap units) and a *private tail* (the
most recent tokens, appended one per decode step).  When the tail fills
a page the backend coalesces it — ``KVCacheStream.coalesce``, for Ecco a
pure block concatenation that rewrites segments without touching a byte
of payload — and promotes it into the pool, where a concurrent
request that generated the identical continuation would share it.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    KV_CONFIG,
    KVCacheCodec,
    KVCacheStream,
    slice_token_segment,
    split_token_segment,
)
from repro.llm.quantize import fit_kv_codec

from .pool import ROOT_CHAIN, KVPage, PagedKVPool, chain_hash

__all__ = ["EccoKVBackend", "Fp16KVBackend", "RequestKV"]


class RequestKV:
    """One request's paged KV: pages + private tail + decoded reads.

    The layer state is one :class:`~repro.core.KVCacheStream` per layer
    over the backend's codecs, for either storage format; this class
    owns the paging arithmetic, the pool accounting, the page hash
    chain, and prompt ingestion: a prompt enters the cache one chunk at
    a time (:meth:`begin_chunk` / per-layer :meth:`ingest_chunk` /
    :meth:`commit_chunk`, a whole prompt being one chunk), after an
    optional :meth:`attach_cached_prefix`.
    """

    def __init__(
        self,
        backend,
        pool: PagedKVPool,
        prompt_ids: np.ndarray,
        record_raw: bool = False,
    ):
        self.backend = backend
        self.pool = pool
        self.page_tokens = pool.page_tokens
        self.prompt_ids = [int(t) for t in np.asarray(prompt_ids).reshape(-1)]
        self.token_ids: list[int] = []
        self.pages: list[KVPage] = []
        self.resident = True
        self._chunk_bounds: tuple[int, int] | None = None
        self._chunk_segments: dict[int, tuple[list, list]] = {}
        self._unpaged_nbytes = 0
        self._unpaged_fp16_nbytes = 0
        #: Warm (turn-continuation) mode: a cached prefix was attached,
        #: so the rest of the prompt ingests at arbitrary boundaries as
        #: private tail segments (promoted to a chain page at release).
        self._warm = False
        #: Prompt tokens served straight from the prefix cache.
        self.attached_tokens = 0
        #: The slice of ``attached_tokens`` salvaged by a partial-page
        #: split (zero when the match ended on a page boundary).
        self.split_tokens = 0
        self._released = False
        self.streams = [
            KVCacheStream(key_codec=key_codec, value_codec=value_codec)
            for key_codec, value_codec in backend.codecs
        ]
        # Page hash chain over the prompt's full pages.
        P = self.page_tokens
        self._num_prompt_pages = len(self.prompt_ids) // P
        self._page_chains: list[str] = []
        chain = ROOT_CHAIN
        for j in range(self._num_prompt_pages):
            chain = chain_hash(chain, self.prompt_ids[j * P : (j + 1) * P])
            self._page_chains.append(chain)
        self._last_chain = chain
        # Raw (pre-quantization) K/V history for bit-exactness audits.
        self.raw_prompt: dict | None = None
        self.raw_decode: dict | None = None
        if record_raw:
            L = backend.num_layers
            self.raw_prompt = {
                layer: {"keys": None, "values": None} for layer in range(L)
            }
            self.raw_decode = {
                layer: {"keys": [], "values": []} for layer in range(L)
            }

    # ------------------------------------------------------------------
    # Paging arithmetic.
    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        return len(self.token_ids)

    @property
    def paged_tokens(self) -> int:
        return sum(page.num_tokens for page in self.pages)

    @property
    def unpaged_tokens(self) -> int:
        return self.num_tokens - self.paged_tokens

    @property
    def logical_nbytes(self) -> int:
        """Bytes this request's attention reads each step (its whole KV,
        whether or not some pages are physically shared)."""
        return sum(page.nbytes for page in self.pages) + self._unpaged_nbytes

    @property
    def logical_fp16_nbytes(self) -> int:
        return self.num_tokens * self.backend.per_token_fp16_nbytes

    @property
    def chunk_align(self) -> int:
        """Boundary granularity mid-prompt chunks must land on: page
        boundaries normally, any token once a cached prefix (which may
        end mid-page) was attached."""
        return 1 if self._warm else self.page_tokens

    # ------------------------------------------------------------------
    # Prompt pages: shared on a chain hit, otherwise encoded once.
    # ------------------------------------------------------------------
    def _encode_pages(
        self, layer: int, keys: np.ndarray, values: np.ndarray, start: int
    ) -> tuple[list, list]:
        """Storage segments ``(k_segments, v_segments)`` for prompt tokens
        ``[start, start + len(keys))`` of one layer: one per full page plus
        one for a sub-page tail (``start`` sits on a page boundary; only
        the prompt's end may not).

        A page already resident under the prompt's hash chain lends its
        payload instead of being re-encoded.  Every other row of both
        sides goes through *one* ``backend.encode_pair`` call, sliced at
        the page boundaries afterwards — the codec plans each token's
        groups on their own, so the slices are the bytes page-by-page
        calls made.
        """
        P = self.page_tokens
        end = start + keys.shape[0]
        hits = [
            self.pool.peek(chain)
            for chain in self._page_chains[start // P : end // P]
        ]
        counts = [P] * len(hits)
        if end % P:
            hits.append(None)
            counts.append(end % P)
        missed = [hit is None for hit in hits]
        encoded: list = []
        if any(missed):
            keep = np.repeat(missed, counts)
            batches = self.backend.encode_pair(layer, keys[keep], values[keep])
            parts = [n for n, miss in zip(counts, missed) if miss]
            encoded = [
                self.backend.slice_segment(batch, parts) for batch in batches
            ]
        fresh = zip(*encoded)
        pairs = [
            next(fresh) if hit is None else hit.payload[layer] for hit in hits
        ]
        return [k for k, _ in pairs], [v for _, v in pairs]

    def _acquire_prompt_page(self, j: int, payload_for) -> None:
        """Acquire prompt page ``j`` — shared on a chain hit, otherwise
        built from ``payload_for(layer) -> (k_seg, v_seg)``."""
        P = self.page_tokens
        L = self.backend.num_layers
        ids = self.prompt_ids[j * P : (j + 1) * P]

        def build():
            payload = {layer: payload_for(layer) for layer in range(L)}
            nbytes = sum(
                self.backend.segment_nbytes(seg)
                for pair in payload.values()
                for seg in pair
            )
            return payload, nbytes, P * self.backend.per_token_fp16_nbytes

        parent = self._page_chains[j - 1] if j else ROOT_CHAIN
        page, _shared = self.pool.acquire(
            self._page_chains[j], ids, build, parent=parent
        )
        self.pages.append(page)

    # ------------------------------------------------------------------
    # Cross-turn reuse: attach a cached prefix instead of re-encoding.
    # ------------------------------------------------------------------
    def attach_cached_prefix(self) -> int:
        """Pin resident pages covering a prompt prefix; returns tokens.

        Asks the pool's token-level trie for the longest resident match
        (full prompt pages *and* promoted conversation tails, so turn
        N+1 of a chat finds everything turn N left behind), pins each
        page and appends its payload to the layer state by reference —
        no forward pass, no re-encode.  A *partial* match — the prompt
        diverges inside a cached page — splits that page at the
        divergence point (bit-exact, no bytes move) and attaches the
        shared head too; the salvaged tokens are reported in
        ``split_tokens``.  At least one prompt token is always left
        unmatched (something must be forwarded to produce logits).  On a
        match the request switches to warm ingestion: the remaining
        suffix arrives through ``begin_chunk``/``ingest_chunk``/
        ``commit_chunk`` at arbitrary boundaries and accumulates as the
        private tail.  Must be called before any other ingestion;
        returns 0 (leaving the request untouched) when nothing matches.
        """
        if self.token_ids or self.pages:
            raise RuntimeError("attach_cached_prefix before any ingestion")
        match = self.pool.lookup_prefix(self.prompt_ids)
        matched = list(match.pages)
        total = sum(page.num_tokens for page in matched)
        trimmed = False
        while matched and total >= len(self.prompt_ids):
            total -= matched[-1].num_tokens
            matched.pop()
            trimmed = True
        # A partial node sits immediately past the full matches, so it
        # is only attachable when none of them were trimmed away.  Cap
        # the head so at least one prompt token stays unmatched, and
        # split only when the pool allows it (the page must be cached
        # and unreferenced — splitting under a live tenant is unsound)
        # and the salvage clears the cost-aware floor: a head shorter
        # than ``split_min_tokens`` costs more in block copies and
        # per-page overhead than re-encoding it would.
        if match.partial is not None and not trimmed:
            head_tokens = min(
                match.partial_tokens, len(self.prompt_ids) - 1 - total
            )
            if head_tokens >= self.pool.split_min_tokens:
                split = self.pool.split_page(
                    match.partial,
                    head_tokens,
                    self.backend.split_page_payload,
                )
                if split is not None:
                    matched.append(split[0])
                    total += head_tokens
                    self.split_tokens = head_tokens
        if not matched:
            return 0
        self._warm = True

        def refuse_build():
            raise AssertionError("matched page must be a shared hit")

        for page in matched:
            pinned, shared = self.pool.acquire(
                page.chain, page.token_ids, refuse_build, parent=page.parent
            )
            self.pages.append(pinned)
            for layer in range(self.backend.num_layers):
                k_seg, v_seg = pinned.payload[layer]
                self._append_segment(layer, k_seg, v_seg)
            self.token_ids.extend(pinned.token_ids)
        self._last_chain = matched[-1].chain
        self.attached_tokens = total
        return total

    # ------------------------------------------------------------------
    # Prompt ingestion: one chunk at a time (a whole prompt is one).
    # ------------------------------------------------------------------
    def begin_chunk(self, start: int, end: int) -> None:
        """Open the chunk covering prompt tokens ``[start, end)``.

        ``start`` must sit on a page boundary and equal the tokens
        already ingested; ``end`` must sit on a page boundary too unless
        it is the end of the prompt (the tail rides in the final chunk).
        Because chunk boundaries sit on page boundaries and the codec
        plans per token, the stored bytes do not depend on how a prompt
        is cut into chunks.  A warm request (cached prefix attached)
        ingests at arbitrary boundaries instead — its prefix may end
        mid-page.
        """
        P = self.page_tokens
        if start != self.num_tokens:
            raise ValueError(
                f"chunk starts at {start} but {self.num_tokens} prompt "
                f"tokens are ingested"
            )
        if self._warm:
            if not start < end <= len(self.prompt_ids):
                raise ValueError(f"bad chunk bounds [{start}, {end})")
            self._chunk_bounds = (start, end)
            self._chunk_segments = {}
            return
        if start % P:
            raise ValueError(f"chunk start {start} is not page-aligned")
        if end % P and end != len(self.prompt_ids):
            raise ValueError(
                f"chunk end {end} is neither page-aligned nor the "
                f"prompt end ({len(self.prompt_ids)})"
            )
        if not start <= end <= len(self.prompt_ids):
            raise ValueError(f"bad chunk bounds [{start}, {end})")
        self._chunk_bounds = (start, end)
        self._chunk_segments = {}

    def ingest_chunk(
        self, layer: int, k_chunk: np.ndarray, v_chunk: np.ndarray
    ) -> None:
        """Store one layer's K/V rows for the open chunk.

        Stores the chunk as page segments plus a tail segment when it
        reaches the prompt end (:meth:`_encode_pages`; a warm suffix is
        one tail segment per side), and appends them to the layer state
        so attention over this request immediately reads them back —
        pool accounting happens at :meth:`commit_chunk`.
        """
        if self._chunk_bounds is None:
            raise RuntimeError("no open chunk; call begin_chunk first")
        start, _end = self._chunk_bounds
        k_chunk = np.asarray(k_chunk, dtype=np.float32)
        v_chunk = np.asarray(v_chunk, dtype=np.float32)
        if self.raw_prompt is not None:
            for side, chunk in (("keys", k_chunk), ("values", v_chunk)):
                held = self.raw_prompt[layer][side]
                self.raw_prompt[layer][side] = (
                    chunk.copy()
                    if held is None
                    else np.concatenate([held, chunk], axis=0)
                )
        if self._warm:
            # Warm suffix: one segment per side, appended as tail state.
            k_seg, v_seg = self.backend.encode_pair(layer, k_chunk, v_chunk)
            k_segments, v_segments = [k_seg], [v_seg]
        else:
            k_segments, v_segments = self._encode_pages(
                layer, k_chunk, v_chunk, start
            )
        for k_seg, v_seg in zip(k_segments, v_segments):
            self._append_segment(layer, k_seg, v_seg)
        self._chunk_segments[layer] = (k_segments, v_segments)

    def commit_chunk(self) -> None:
        """Promote the open chunk's full pages into the pool.

        Pages become shared, ref-counted pool pages (an identical
        resident page is re-pinned instead of duplicated); the rest — a
        prompt tail, or a whole warm chunk — stays a private reservation
        until the decode-time pageify or :meth:`release` promotes it.
        """
        if self._chunk_bounds is None:
            raise RuntimeError("no open chunk to commit")
        start, end = self._chunk_bounds
        P = self.page_tokens
        # Warm chunks never page mid-prompt: they accumulate as the
        # private tail and are promoted as one chain page at release (or
        # by the decode-time pageify once the tail fills up).
        pages = range(0) if self._warm else range(start // P, end // P)
        for index, j in enumerate(pages):
            self._acquire_prompt_page(
                j,
                lambda layer, index=index: (
                    self._chunk_segments[layer][0][index],
                    self._chunk_segments[layer][1][index],
                ),
            )
        private_tokens = end - start - len(pages) * P
        if private_tokens:
            nbytes = sum(
                self.backend.segment_nbytes(seg)
                for pair in self._chunk_segments.values()
                for segments in pair
                for seg in segments[len(pages) :]
            )
            fp16_nbytes = private_tokens * self.backend.per_token_fp16_nbytes
            self._unpaged_nbytes += nbytes
            self._unpaged_fp16_nbytes += fp16_nbytes
            self.pool.reserve_private(nbytes, fp16_nbytes)
        self.token_ids.extend(self.prompt_ids[start:end])
        self._chunk_bounds = None
        self._chunk_segments = {}

    # A harness patch point (``benchmarks/harness/spans.py`` resolves its
    # targets through ``owner.__dict__``); delete with ROADMAP 1(b).
    commit_prompt = commit_chunk

    # ------------------------------------------------------------------
    # Decode appends.
    # ------------------------------------------------------------------
    def append_token_layer(
        self, layer: int, k_row: np.ndarray, v_row: np.ndarray, k_seg, v_seg
    ) -> None:
        """Append one decode token's K/V for one layer: the raw rows (for
        the audit record) and the one-token segments they encoded to —
        this request's slice of the step's ``backend.encode_pair``."""
        if self.raw_decode is not None:
            self.raw_decode[layer]["keys"].append(
                np.asarray(k_row, dtype=np.float32).copy()
            )
            self.raw_decode[layer]["values"].append(
                np.asarray(v_row, dtype=np.float32).copy()
            )
        self._append_segment(layer, k_seg, v_seg)
        segment_nbytes = self.backend.segment_nbytes
        delta_nbytes = segment_nbytes(k_seg) + segment_nbytes(v_seg)
        delta_fp16 = (k_row.size + v_row.size) * 2
        self._unpaged_nbytes += delta_nbytes
        self._unpaged_fp16_nbytes += delta_fp16
        self.pool.reserve_private(delta_nbytes, delta_fp16)

    def commit_token(self, token_id: int) -> None:
        """Finish one decode token (all layers appended); page if full."""
        self.token_ids.append(int(token_id))
        if self.unpaged_tokens >= self.page_tokens:
            self._pageify()

    def _pageify(self) -> None:
        """Coalesce the full tail into a page and promote it to the pool."""
        start = self.paged_tokens
        ids = self.token_ids[start:]
        payload = {
            layer: stream.coalesce(start)
            for layer, stream in enumerate(self.streams)
        }
        parent = self._last_chain
        chain = chain_hash(parent, ids)
        nbytes = self._unpaged_nbytes
        fp16_nbytes = self._unpaged_fp16_nbytes
        self.pool.free_private(nbytes, fp16_nbytes)
        # Promotion moves no payload bytes (the tail was already written
        # and the coalesce is pure bookkeeping), so it is not a write.
        page, _shared = self.pool.acquire(
            chain, ids, lambda: (payload, nbytes, fp16_nbytes),
            count_write=False, parent=parent,
        )
        self.pages.append(page)
        self._last_chain = chain
        self._unpaged_nbytes = 0
        self._unpaged_fp16_nbytes = 0

    # ------------------------------------------------------------------
    # Preemption and teardown.
    # ------------------------------------------------------------------
    def swap_out(self) -> None:
        """Swap this request's KV out of the budget, in compressed form.

        Only the bytes actually leave: decoded-segment caches (and the
        streams themselves) are host-side state and survive untouched,
        so re-admission decodes nothing old.
        """
        if self._released:
            raise RuntimeError("request KV already released")
        if not self.resident:
            raise RuntimeError("already swapped out")
        for page in self.pages:
            self.pool.swap_out(page)
        self.pool.swap_private_out(
            self._unpaged_nbytes, self._unpaged_fp16_nbytes
        )
        self.resident = False

    def swap_in(self) -> None:
        if self.resident:
            raise RuntimeError("already resident")
        # swap_in may substitute a bit-identical page another tenant
        # rebuilt while we were out; track whichever copy now pins us.
        self.pages = [self.pool.swap_in(page) for page in self.pages]
        self.pool.swap_private_in(
            self._unpaged_nbytes, self._unpaged_fp16_nbytes
        )
        self.resident = True

    def release(self) -> None:
        """Drop every pool reference (request finished).

        The final partial page — the prompt's unpaged tail plus whatever
        decode tokens had not filled a page yet — is not discarded: it
        is promoted into a chain-addressable page first (a pure
        bookkeeping move, the bytes were already written), so a
        follow-up turn whose prompt extends this conversation hits the
        *entire* history instead of missing on everything past the last
        page boundary.

        The streams' decoded rows go too: a finished request is kept for
        reports and audits, and its float32 copy of the whole history
        would otherwise stay alive with it.  The compressed segments
        stay, so a later read (an audit) decodes them again.
        """
        if self._released:
            raise RuntimeError("request KV already released (double free)")
        if not self.resident:
            raise RuntimeError("release while swapped out")
        if self.unpaged_tokens > 0:
            self._pageify()
        for page in self.pages:
            self.pool.release(page)
        self.pages = []
        for stream in self.streams:
            stream.invalidate_decoded()
        self._released = True

    # ------------------------------------------------------------------
    # Layer state: one KVCacheStream per layer, whatever the format.
    # ------------------------------------------------------------------
    def _append_segment(self, layer, k_seg, v_seg):
        """Append one encoded K/V segment pair to the layer state."""
        self.streams[layer].append_compressed(k_seg, v_seg)

    def read(self, layer: int, side: str) -> np.ndarray:
        stream = self.streams[layer]
        return stream.read_keys() if side == "keys" else stream.read_values()

    @property
    def decoded_token_counters(self) -> dict:
        """Rows that entered the read buffers, summed over layers: block
        decodes for Ecco, float16 -> float32 casts for fp16."""
        out = {"keys": 0, "values": 0}
        for stream in self.streams:
            out["keys"] += stream.decoded_tokens["keys"]
            out["values"] += stream.decoded_tokens["values"]
        return out


# The two subclasses differ in name only: ``benchmarks/harness/spans.py``
# patches these two names per class through ``owner.__dict__``, so each
# class must define them itself.  Harness patch points; delete the
# classes, their aliases and ``create_request``'s pick by backend name
# with ROADMAP 1(b).
class EccoRequestKV(RequestKV):
    """Ecco-compressed paged KV."""

    _encode_prompt_side = RequestKV._encode_pages
    read = RequestKV.read


class Fp16RequestKV(RequestKV):
    """Raw fp16 paged KV — the capacity baseline."""

    _encode_prompt_side = RequestKV._encode_pages
    read = RequestKV.read


class _KVBackend:
    """What both storage formats share: per-layer ``codecs`` (a key and
    a value codec per layer, the ``KVCacheStream`` protocol), byte
    accounting, page splits and request creation."""

    name: str
    num_layers: int
    d_model: int
    codecs: list

    @property
    def per_token_fp16_nbytes(self) -> int:
        return self.num_layers * 2 * self.d_model * 2

    def codec(self, layer: int, side: str):
        return self.codecs[layer][0 if side == "keys" else 1]

    def encode_pair(self, layer: int, keys: np.ndarray, values: np.ndarray):
        """One key and one value segment for a layer's ``(tokens, dim)``
        rows, both from one call of the layer's pair codec — one call
        however many requests or pages they span."""
        key_codec, value_codec = self.codecs[layer]
        k_seg, v_seg = key_codec.pair_with(value_codec).encode_sides(
            (keys, values)
        )
        return k_seg, v_seg

    @staticmethod
    def segment_nbytes(segment) -> int:
        return int(segment.nbytes)

    def split_page_payload(self, payload: dict, head_tokens: int):
        """Split every layer's K/V segments of a page payload at a token
        boundary, in the ``PagedKVPool.split_page`` splitter protocol.

        Returns ``(head_payload, head_nbytes, head_fp16_nbytes,
        tail_payload, tail_nbytes, tail_fp16_nbytes)``.  Both storage
        formats split without touching payload values — Ecco slices block
        rows (per-token group padding makes each token's blocks
        self-contained), fp16 slices array rows — so the halves decode
        bit-exactly to what a fresh encode of each slice would produce and
        the byte totals are conserved exactly.
        """
        nbytes = self.segment_nbytes
        head_payload: dict = {}
        tail_payload: dict = {}
        head_nbytes = tail_nbytes = 0
        for layer, (k_seg, v_seg) in payload.items():
            k_head, k_tail = self.split_segment(k_seg, head_tokens)
            v_head, v_tail = self.split_segment(v_seg, head_tokens)
            head_payload[layer] = (k_head, v_head)
            tail_payload[layer] = (k_tail, v_tail)
            head_nbytes += nbytes(k_head) + nbytes(v_head)
            tail_nbytes += nbytes(k_tail) + nbytes(v_tail)
        per_fp16 = self.per_token_fp16_nbytes
        tail_tokens = self.codec(0, "keys").token_shape(k_tail)[0]
        return (
            head_payload,
            head_nbytes,
            head_tokens * per_fp16,
            tail_payload,
            tail_nbytes,
            tail_tokens * per_fp16,
        )

    def split_segment(self, segment, head_tokens: int):
        """The two-part slice of a segment at a token boundary."""
        raise NotImplementedError

    def create_request(self, pool, prompt_ids, record_raw=False) -> RequestKV:
        # Goes with the two name-only subclasses above (ROADMAP 1(b)).
        kind = EccoRequestKV if self.name == "ecco" else Fp16RequestKV
        return kind(self, pool, prompt_ids, record_raw)


class EccoKVBackend(_KVBackend):
    """Per-layer Ecco KV codecs calibrated once per engine."""

    name = "ecco"

    def __init__(self, num_layers: int, d_model: int, calib):
        self.num_layers = int(num_layers)
        self.d_model = int(d_model)
        self.codecs: list[tuple[KVCacheCodec, KVCacheCodec]] = []
        for layer in range(self.num_layers):
            pair = []
            for side in ("k_cache", "v_cache"):
                sample = calib.kv_samples.get(f"layers.{layer}.{side}")
                if sample is None:
                    raise ValueError(
                        f"calibration has no KV sample for layer {layer} "
                        f"{side}; run repro.llm.calibrate first"
                    )
                # The shared eval-layer recipe: serving codecs byte-match
                # the ecco-stream evaluation hook's by construction.
                pair.append(fit_kv_codec(sample))
            self.codecs.append(tuple(pair))
        groups_per_token = -(-self.d_model // KV_CONFIG.group_size)
        self._side_nbytes = groups_per_token * KV_CONFIG.block_bytes

    @property
    def per_token_nbytes(self) -> int:
        """Deterministic compressed bytes per token (K+V, all layers)."""
        return self.num_layers * 2 * self._side_nbytes

    def roundtrip_rows(self, layer: int, side: str, rows: np.ndarray):
        """What a store of ``rows`` on their own reads back as — the
        single-stream reference ``ServingEngine.audit_kv`` holds the
        step-batched, paged, shared serving path to."""
        codec = self.codec(layer, side)
        return codec.decode_tokens(codec.encode_tokens(rows))

    @staticmethod
    def slice_segment(segment, token_counts) -> list:
        """Cut a segment into consecutive parts of ``token_counts``
        tokens — pure block-row slices, each bit-exact vs a fresh encode
        of its own rows."""
        return slice_token_segment(segment, token_counts)

    def split_segment(self, segment, head_tokens: int):
        """The two-part slice at a token boundary (a prefix-page split)."""
        return split_token_segment(segment, head_tokens)


class Fp16KVBackend(_KVBackend):
    """Raw fp16 KV storage — the capacity/traffic baseline.

    The backend is also every layer's key and value codec, and their
    pair codec: a segment is a ``(tokens, d_model)`` float16 array, merged
    by concatenation and read back cast to float32, one side at a time
    (a "joint" call is two casts or two concatenates).
    """

    name = "fp16"

    def __init__(self, num_layers: int, d_model: int, calib=None):
        self.num_layers = int(num_layers)
        self.d_model = int(d_model)
        self.codecs = [(self, self)] * self.num_layers

    @property
    def per_token_nbytes(self) -> int:
        return self.per_token_fp16_nbytes

    def roundtrip_rows(self, layer: int, side: str, rows: np.ndarray):
        return self.encode_tokens(rows).astype(np.float32)

    @staticmethod
    def slice_segment(segment, token_counts) -> list:
        # Copies, not views: evicting one part must free its bytes.
        parts, start = [], 0
        for tokens in token_counts:
            parts.append(segment[start : start + tokens].copy())
            start += tokens
        return parts

    def split_segment(self, segment, head_tokens: int):
        tail_tokens = segment.shape[0] - head_tokens
        return tuple(self.slice_segment(segment, (head_tokens, tail_tokens)))

    # The KVCacheStream codec protocol.
    @staticmethod
    def token_shape(segment: np.ndarray) -> tuple[int, ...]:
        return segment.shape

    @staticmethod
    def merge(segments: list) -> np.ndarray:
        return np.concatenate(segments, axis=0)

    @staticmethod
    def decode_all(segments: list) -> np.ndarray:
        return np.concatenate(segments, axis=0, dtype=np.float32)

    @staticmethod
    def encode_tokens(rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows).astype(np.float16)

    def pair_with(self, other: "Fp16KVBackend") -> "Fp16KVBackend":
        return self

    def encode_sides(self, rows) -> list:
        return [self.encode_tokens(side_rows) for side_rows in rows]

    def decode_sides(self, segments) -> list:
        return [
            self.decode_all(side) if side else np.zeros((0, 0), np.float32)
            for side in segments
        ]
