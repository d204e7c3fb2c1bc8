"""Storage backends: per-request paged KV state over the shared pool.

Two backends serve the same engine: :class:`EccoKVBackend` stores pages
as Ecco 64-byte blocks (one :class:`~repro.core.KVCacheStream` per
layer per request, so reads reuse the PR-2 decoded-segment cache and a
preempted request re-admits without re-decoding history), and
:class:`Fp16KVBackend` stores raw fp16 — the capacity baseline.

What a "segment" is belongs to the backend: ``encode_rows`` turns a
batch of rows into one, ``slice_segment`` cuts it at token boundaries,
``read_batch`` decodes many requests' segments together.  The codec is
therefore called once per (layer, side) per *call site* — per engine
decode step over the R running requests, per whole prompt, per prefill
chunk — never once per request or per page: the rows are encoded in one
batch and each request, page and tail is handed its slice.  The codec
plans every token's groups on their own (per-token group padding), so a
slice holds exactly the bytes a call over its rows alone would emit.

A request's KV lives in two tiers: *pages* (full ``page_tokens`` units,
pool-accounted, prefix-shared, swap units) and a *private tail* (the
most recent tokens, appended one per decode step).  When the tail fills
a page the backend coalesces it — for Ecco a pure block concatenation
via ``KVCacheStream.coalesce`` that rewrites segments without touching
a byte of payload — and promotes it into the pool, where a concurrent
request that generated the identical continuation would share it.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    KV_CONFIG,
    KVCacheCodec,
    KVCacheStream,
    read_streams,
    slice_token_segment,
    split_token_segment,
)
from repro.llm.quantize import fit_kv_codec

from .pool import ROOT_CHAIN, KVPage, PagedKVPool, chain_hash

__all__ = ["EccoKVBackend", "Fp16KVBackend", "RequestKV"]


def _parse_hook_name(name: str) -> tuple[int, str]:
    """'layers.3.k_cache' -> (3, 'keys')."""
    layer = int(name.split(".")[1])
    side = "keys" if name.endswith("k_cache") else "values"
    return layer, side


def _split_page_payload(backend, payload: dict, head_tokens: int):
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
    head_payload: dict = {}
    tail_payload: dict = {}
    head_nbytes = tail_nbytes = 0
    for layer, (k_seg, v_seg) in payload.items():
        k_head, k_tail = backend.split_segment(k_seg, head_tokens)
        v_head, v_tail = backend.split_segment(v_seg, head_tokens)
        head_payload[layer] = (k_head, v_head)
        tail_payload[layer] = (k_tail, v_tail)
        head_nbytes += backend.segment_nbytes(k_head)
        head_nbytes += backend.segment_nbytes(v_head)
        tail_nbytes += backend.segment_nbytes(k_tail)
        tail_nbytes += backend.segment_nbytes(v_tail)
    per_fp16 = backend.per_token_fp16_nbytes
    tail_tokens = next(
        backend.segment_tokens(pair[0]) for pair in tail_payload.values()
    )
    return (
        head_payload,
        head_nbytes,
        head_tokens * per_fp16,
        tail_payload,
        tail_nbytes,
        tail_tokens * per_fp16,
    )


class RequestKV:
    """One request's paged KV: pages + private tail + decoded reads.

    Subclasses implement the storage format; this base owns the paging
    arithmetic, the pool accounting, the page hash chain, and the
    prefill capture protocol (the object doubles as the ``kv_quant``
    hook a prefill forward pass runs through).
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
        self._pending: dict | None = {}
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
    # Prefill: the object is the kv_quant hook of the prefill forward.
    # ------------------------------------------------------------------
    def prefill_hook(self):
        """The ``kv_quant`` callable a prefill forward pass runs through.

        For every layer's K then V it stores the prompt KV as page
        segments plus a tail segment (:meth:`_encode_pages`) and returns
        the storage roundtrip — so prefill logits see exactly the KV
        later decode steps will read.
        """
        def hook(name: str, kv: np.ndarray) -> np.ndarray:
            layer, side = _parse_hook_name(name)
            kv = np.asarray(kv, dtype=np.float32)
            if self.raw_prompt is not None:
                self.raw_prompt[layer][side] = kv.copy()
            segments, decoded = self._encode_prompt_side(layer, side, kv)
            self._pending[(layer, side)] = segments
            return decoded
        return hook

    def _encode_pages(
        self, layer: int, side: str, rows: np.ndarray, start: int
    ) -> list:
        """Storage segments for prompt tokens ``[start, start + len(rows))``
        of one layer side: one per full page plus one for a sub-page tail
        (``start`` sits on a page boundary; only the prompt's end may not).

        A page already resident under the prompt's hash chain lends its
        payload instead of being re-encoded.  Every other row goes
        through *one* ``backend.encode_rows`` call, sliced at the page
        boundaries afterwards — the codec plans each token's groups on
        their own, so the slices are the bytes page-by-page calls made.
        """
        P = self.page_tokens
        pair_index = 0 if side == "keys" else 1
        end = start + rows.shape[0]
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
            encoded = self.backend.slice_segment(
                self.backend.encode_rows(
                    layer, side, rows[np.repeat(missed, counts)]
                ),
                [n for n, miss in zip(counts, missed) if miss],
            )
        fresh = iter(encoded)
        return [
            next(fresh) if hit is None else hit.payload[layer][pair_index]
            for hit in hits
        ]

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

    def _reserve_tail(self, tail_tokens: int, tail_nbytes: int) -> None:
        """Account the prompt's sub-page tail as a private reservation."""
        self._unpaged_nbytes = tail_nbytes
        self._unpaged_fp16_nbytes = (
            tail_tokens * self.backend.per_token_fp16_nbytes
        )
        self.pool.reserve_private(tail_nbytes, self._unpaged_fp16_nbytes)

    def commit_prompt(self) -> None:
        """Promote the captured prompt KV into pool pages + tail state."""
        if self._pending is None:
            raise RuntimeError("prompt already committed")
        self.token_ids = list(self.prompt_ids)
        L = self.backend.num_layers
        P = self.page_tokens
        for j in range(self._num_prompt_pages):
            self._acquire_prompt_page(
                j,
                lambda layer, j=j: (
                    self._pending[(layer, "keys")][j],
                    self._pending[(layer, "values")][j],
                ),
            )
        self._init_layer_state()
        tail_tokens = len(self.prompt_ids) - self._num_prompt_pages * P
        if tail_tokens:
            tail_nbytes = sum(
                self.backend.segment_nbytes(
                    self._pending[(layer, side)][self._num_prompt_pages]
                )
                for layer in range(L)
                for side in ("keys", "values")
            )
            self._reserve_tail(tail_tokens, tail_nbytes)
        self._pending = None

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
        self.begin_ingest()
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
        self._note_pages_committed(len(matched))
        self._last_chain = matched[-1].chain
        self.attached_tokens = total
        return total

    # ------------------------------------------------------------------
    # Chunked prefill: page-aligned partial prompt commits.
    # ------------------------------------------------------------------
    def begin_ingest(self) -> None:
        """Switch to chunk-by-chunk prompt ingestion (chunked prefill).

        The whole-prompt path captures every layer through
        :meth:`prefill_hook` and lands in one :meth:`commit_prompt`;
        this path instead ingests page-aligned chunks — one
        :meth:`begin_chunk` / per-layer :meth:`ingest_chunk` /
        :meth:`commit_chunk` cycle per chunk — so a long prompt enters
        the cache interleaved with decode steps.  Because chunk
        boundaries sit on page boundaries and the codec plans per
        token, the stored bytes are identical to the whole-prompt pass.
        """
        self._pending = None
        self._chunk_bounds = None
        self._chunk_segments = {}
        self._init_layer_state_empty()

    def begin_chunk(self, start: int, end: int) -> None:
        """Open the chunk covering prompt tokens ``[start, end)``.

        ``start`` must sit on a page boundary and equal the tokens
        already ingested; ``end`` must sit on a page boundary too unless
        it is the end of the prompt (the tail rides in the final chunk).
        A warm request (cached prefix attached) ingests at arbitrary
        boundaries instead — its prefix may end mid-page.
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
            k_segments = [self.backend.encode_rows(layer, "keys", k_chunk)]
            v_segments = [self.backend.encode_rows(layer, "values", v_chunk)]
        else:
            k_segments = self._encode_pages(layer, "keys", k_chunk, start)
            v_segments = self._encode_pages(layer, "values", v_chunk, start)
        for k_seg, v_seg in zip(k_segments, v_segments):
            self._append_segment(layer, k_seg, v_seg)
        self._chunk_segments[layer] = (k_segments, v_segments)

    def commit_chunk(self) -> None:
        """Promote the open chunk's full pages into the pool.

        Pages become shared, ref-counted pool pages (an identical
        resident page is re-pinned instead of duplicated); a prompt
        tail stays a private reservation exactly as the whole-prompt
        path leaves it.
        """
        if self._chunk_bounds is None:
            raise RuntimeError("no open chunk to commit")
        start, end = self._chunk_bounds
        if self._warm:
            # Warm chunks never page mid-prompt: they accumulate as the
            # private tail and are promoted as one chain page at release
            # (or by the decode-time pageify once the tail fills up).
            chunk_nbytes = sum(
                self.backend.segment_nbytes(seg)
                for pair in self._chunk_segments.values()
                for segments in pair
                for seg in segments
            )
            chunk_fp16 = (end - start) * self.backend.per_token_fp16_nbytes
            self._unpaged_nbytes += chunk_nbytes
            self._unpaged_fp16_nbytes += chunk_fp16
            self.pool.reserve_private(chunk_nbytes, chunk_fp16)
            self.token_ids.extend(self.prompt_ids[start:end])
            self._chunk_bounds = None
            self._chunk_segments = {}
            return
        P = self.page_tokens
        pages = range(start // P, end // P)
        for index, j in enumerate(pages):
            self._acquire_prompt_page(
                j,
                lambda layer, index=index: (
                    self._chunk_segments[layer][0][index],
                    self._chunk_segments[layer][1][index],
                ),
            )
        tail = end - (end // P) * P
        if tail:
            tail_nbytes = sum(
                self.backend.segment_nbytes(segments[-1])
                for pair in self._chunk_segments.values()
                for segments in pair
            )
            self._reserve_tail(tail, tail_nbytes)
        self.token_ids.extend(self.prompt_ids[start:end])
        self._note_pages_committed(len(pages))
        self._chunk_bounds = None
        self._chunk_segments = {}

    # ------------------------------------------------------------------
    # Decode appends.
    # ------------------------------------------------------------------
    def append_token_layer(
        self, layer: int, k_row: np.ndarray, v_row: np.ndarray, k_seg, v_seg
    ) -> None:
        """Append one decode token's K/V for one layer: the raw rows (for
        the audit record) and the one-token segments they encoded to —
        this request's slice of the step's ``backend.encode_rows``."""
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
        payload = self._collect_page_payload(start)
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
        self._released = True

    # ------------------------------------------------------------------
    # Storage-format hooks.
    # ------------------------------------------------------------------
    def _encode_prompt_side(self, layer, side, kv):
        raise NotImplementedError

    def _init_layer_state(self):
        raise NotImplementedError

    def _init_layer_state_empty(self):
        """Create empty per-layer state for chunk-by-chunk ingestion."""
        raise NotImplementedError

    def _append_segment(self, layer, k_seg, v_seg):
        """Append one encoded K/V segment pair to the layer state."""
        raise NotImplementedError

    def _note_pages_committed(self, num_pages):
        """Chunked-commit bookkeeping hook (fp16 tracks paged chunks)."""

    def _collect_page_payload(self, start):
        raise NotImplementedError

    def read(self, layer: int, side: str) -> np.ndarray:
        raise NotImplementedError

    @property
    def decoded_token_counters(self) -> dict:
        """Total block-decode work across layers (zeros for fp16)."""
        return {"keys": 0, "values": 0}


class EccoRequestKV(RequestKV):
    """Ecco-compressed paged KV: one KVCacheStream per layer."""

    def __init__(self, backend, pool, prompt_ids, record_raw=False):
        super().__init__(backend, pool, prompt_ids, record_raw)
        self.streams: list[KVCacheStream] | None = None
        self._prompt_decoded: dict = {}

    def _encode_prompt_side(self, layer, side, kv):
        segments = self._encode_pages(layer, side, kv, 0)
        # Kept for ``_init_layer_state``: these rows came out of the
        # blocks, so the stream adopts them instead of decoding again.
        decoded = self.backend.codec(layer, side).decode_all(segments)
        self._prompt_decoded[(layer, side)] = decoded
        return segments, decoded

    def _init_layer_state(self):
        self._init_layer_state_empty()
        for layer, stream in enumerate(self.streams):
            keys = self._pending[(layer, "keys")]
            values = self._pending[(layer, "values")]
            for k_seg, v_seg in zip(keys, values):
                stream.append_compressed(k_seg, v_seg)
            for side in ("keys", "values"):
                stream.prime_decoded(
                    side, self._prompt_decoded.pop((layer, side))
                )

    def _init_layer_state_empty(self):
        self.streams = [
            KVCacheStream(key_codec=key_codec, value_codec=value_codec)
            for key_codec, value_codec in self.backend.codecs
        ]

    def _append_segment(self, layer, k_seg, v_seg):
        self.streams[layer].append_compressed(k_seg, v_seg)

    def _collect_page_payload(self, start):
        return {
            layer: stream.coalesce(start)
            for layer, stream in enumerate(self.streams)
        }

    def read(self, layer, side):
        stream = self.streams[layer]
        return stream.read_keys() if side == "keys" else stream.read_values()

    @property
    def decoded_token_counters(self):
        out = {"keys": 0, "values": 0}
        for stream in self.streams or []:
            out["keys"] += stream.decoded_tokens["keys"]
            out["values"] += stream.decoded_tokens["values"]
        return out


class Fp16RequestKV(RequestKV):
    """Raw fp16 paged KV — the capacity baseline."""

    def __init__(self, backend, pool, prompt_ids, record_raw=False):
        super().__init__(backend, pool, prompt_ids, record_raw)
        self._chunks: list[dict] | None = None
        self._paged_chunk_count = 0
        #: Incrementally grown float32 read caches, mirroring the ecco
        #: stream's decoded-segment cache: each read copies only the rows
        #: appended since the previous one, not the whole history.
        self._read_cache: list[dict] | None = None

    def _encode_prompt_side(self, layer, side, kv):
        segments = self._encode_pages(layer, side, kv, 0)
        decoded = np.concatenate(segments, axis=0).astype(np.float32)
        return segments, decoded

    def _init_layer_state(self):
        self._chunks = []
        for layer in range(self.backend.num_layers):
            self._chunks.append(
                {
                    "keys": list(self._pending[(layer, "keys")]),
                    "values": list(self._pending[(layer, "values")]),
                }
            )
        self._paged_chunk_count = self._num_prompt_pages
        self._read_cache = [
            {"keys": None, "values": None}
            for _ in range(self.backend.num_layers)
        ]

    def _init_layer_state_empty(self):
        self._chunks = [
            {"keys": [], "values": []}
            for _ in range(self.backend.num_layers)
        ]
        self._paged_chunk_count = 0
        self._read_cache = [
            {"keys": None, "values": None}
            for _ in range(self.backend.num_layers)
        ]

    def _append_segment(self, layer, k_seg, v_seg):
        self._chunks[layer]["keys"].append(k_seg)
        self._chunks[layer]["values"].append(v_seg)

    def _note_pages_committed(self, num_pages):
        self._paged_chunk_count += num_pages

    def _collect_page_payload(self, start):
        n = self._paged_chunk_count
        payload = {}
        for layer, chunks in enumerate(self._chunks):
            merged_k = np.concatenate(chunks["keys"][n:], axis=0)
            merged_v = np.concatenate(chunks["values"][n:], axis=0)
            chunks["keys"][n:] = [merged_k]
            chunks["values"][n:] = [merged_v]
            payload[layer] = (merged_k, merged_v)
        self._paged_chunk_count = n + 1
        return payload

    def read(self, layer, side):
        chunks = self._chunks[layer][side]
        cache = self._read_cache[layer][side]
        total = sum(chunk.shape[0] for chunk in chunks)
        cached = 0 if cache is None else cache.shape[0]
        if cached == total:
            return cache
        # Fresh rows are the trailing ones; chunk rewrites (pageify) merge
        # whole chunks without changing content, so walking back by row
        # count always recovers exactly the unseen suffix.
        need = total - cached
        fresh = []
        for chunk in reversed(chunks):
            fresh.append(chunk)
            need -= chunk.shape[0]
            if need <= 0:
                break
        fresh.reverse()
        fresh_rows = np.concatenate(fresh, axis=0).astype(np.float32)
        if need < 0:
            fresh_rows = fresh_rows[-(total - cached):]
        cache = (
            fresh_rows
            if cache is None
            else np.concatenate([cache, fresh_rows], axis=0)
        )
        cache.flags.writeable = False
        self._read_cache[layer][side] = cache
        return cache


class EccoKVBackend:
    """Per-layer Ecco KV codecs calibrated once per engine."""

    name = "ecco"
    request_cls = EccoRequestKV

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

    @property
    def per_token_fp16_nbytes(self) -> int:
        return self.num_layers * 2 * self.d_model * 2

    @staticmethod
    def segment_nbytes(segment) -> int:
        return int(segment.nbytes)

    @staticmethod
    def segment_tokens(segment) -> int:
        return int(segment.token_shape[0])

    def codec(self, layer: int, side: str) -> KVCacheCodec:
        return self.codecs[layer][0 if side == "keys" else 1]

    def encode_rows(self, layer: int, side: str, rows: np.ndarray):
        """One segment for a ``(tokens, dim)`` batch of one layer side's
        rows — one codec call however many requests or pages they span."""
        return self.codec(layer, side).encode_tokens(rows)

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

    @staticmethod
    def split_segment(segment, head_tokens: int):
        """The two-part slice at a token boundary (a prefix-page split)."""
        return split_token_segment(segment, head_tokens)

    def split_page_payload(self, payload: dict, head_tokens: int):
        return _split_page_payload(self, payload, head_tokens)

    @staticmethod
    def read_batch(kvs: list, layer: int, side: str) -> list[np.ndarray]:
        """Every request's decoded history of one layer side, from one
        block decode over all their not-yet-decoded segments."""
        return read_streams([kv.streams[layer] for kv in kvs], side)

    def create_request(self, pool, prompt_ids, record_raw=False):
        return EccoRequestKV(self, pool, prompt_ids, record_raw)


class Fp16KVBackend:
    """Raw fp16 KV storage — the capacity/traffic baseline."""

    name = "fp16"
    request_cls = Fp16RequestKV

    def __init__(self, num_layers: int, d_model: int, calib=None):
        self.num_layers = int(num_layers)
        self.d_model = int(d_model)

    @property
    def per_token_nbytes(self) -> int:
        return self.num_layers * 2 * self.d_model * 2

    @property
    def per_token_fp16_nbytes(self) -> int:
        return self.per_token_nbytes

    @staticmethod
    def segment_nbytes(segment) -> int:
        return int(segment.nbytes)

    @staticmethod
    def segment_tokens(segment) -> int:
        return int(np.asarray(segment).shape[0])

    @staticmethod
    def encode_rows(layer: int, side: str, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows).astype(np.float16)

    def roundtrip_rows(self, layer: int, side: str, rows: np.ndarray):
        return self.encode_rows(layer, side, rows).astype(np.float32)

    @staticmethod
    def slice_segment(segment, token_counts) -> list:
        # Copies, not views: evicting one part must free its bytes.
        parts, start = [], 0
        for tokens in token_counts:
            parts.append(segment[start : start + tokens].copy())
            start += tokens
        return parts

    def split_segment(self, segment, head_tokens: int):
        tail_tokens = self.segment_tokens(segment) - head_tokens
        return tuple(self.slice_segment(segment, (head_tokens, tail_tokens)))

    def split_page_payload(self, payload: dict, head_tokens: int):
        return _split_page_payload(self, payload, head_tokens)

    @staticmethod
    def read_batch(kvs: list, layer: int, side: str) -> list[np.ndarray]:
        return [kv.read(layer, side) for kv in kvs]

    def create_request(self, pool, prompt_ids, record_raw=False):
        return Fp16RequestKV(self, pool, prompt_ids, record_raw)
