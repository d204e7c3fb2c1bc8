"""Bit-exact packing of one group into one fixed 64-byte block.

Block layout (512 bits, MSB-first within each byte; widths for the
default 128-value group):

====================  ====
field                 bits
====================  ====
group scale (fp16)      16
scale position           7
pattern id               8
codebook id              4
outlier count            5
Huffman payload          —   (one code per non-scale value, in order)
outlier slots         15×n   (7-bit position + 8-bit signed correction)
zero padding             —   (to 512)
====================  ====

Two implementations share this layout:

* :func:`pack_block` / :func:`unpack_block` — the scalar reference, one
  Python-level bit at a time.  Kept as the executable specification the
  vectorized path is tested against.
* :func:`pack_blocks` / :func:`unpack_blocks` — the production path, one
  implementation for every group count.  Packing treats a block as the
  concatenation of its fields: bit offsets are a running sum of widths
  and each field is added onto the 16-bit words it touches, so there is
  no bit plane.  Unpacking reads the same bytes as 32-bit words, looks
  every speculative window up in 256-entry Huffman tables (the software
  twin of the hardware's 8-bit window decode) and advances all groups in
  lockstep; stacks of at most ``_SMALL_DECODE_BLOCKS`` blocks — the
  decode loop's one token per read — take a per-block big-integer decode
  instead, which is cheaper below the measured crossover.  Byte-for-byte
  identical output, and a damaged block raises ``ValueError("corrupt
  block: ...")`` from every path.
"""

from __future__ import annotations

import numpy as np

from .patterns import SCALE_SYMBOL

__all__ = [
    "BitWriter",
    "BitReader",
    "pack_block",
    "unpack_block",
    "pack_blocks",
    "unpack_blocks",
    "decode_tables",
    "window_tables",
]


class BitWriter:
    """MSB-first bit stream writer with a fixed byte budget."""

    def __init__(self, num_bytes: int):
        self.buffer = bytearray(num_bytes)
        self.pos = 0
        self.limit = num_bytes * 8

    def write(self, value: int, bits: int) -> None:
        if self.pos + bits > self.limit:
            raise OverflowError("block budget exceeded")
        value &= (1 << bits) - 1
        for shift in range(bits - 1, -1, -1):
            if (value >> shift) & 1:
                self.buffer[self.pos >> 3] |= 0x80 >> (self.pos & 7)
            self.pos += 1

    def bytes(self) -> bytes:
        return bytes(self.buffer)


class BitReader:
    """MSB-first bit stream reader."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, bits: int) -> int:
        if self.pos + bits > len(self.data) * 8:
            raise ValueError("corrupt block: read past the end of the block")
        value = 0
        for _ in range(bits):
            byte = self.data[self.pos >> 3]
            value = (value << 1) | ((byte >> (7 - (self.pos & 7))) & 1)
            self.pos += 1
        return value

    def read_signed(self, bits: int) -> int:
        raw = self.read(bits)
        if raw >= 1 << (bits - 1):
            raw -= 1 << bits
        return raw


def pack_block(
    config,
    scale: np.float32,
    scale_pos: int,
    pattern_id: int,
    codebook_id: int,
    symbols: np.ndarray,
    code_lengths: np.ndarray,
    code_values: np.ndarray,
    outlier_pos: np.ndarray,
    outlier_q: np.ndarray,
) -> bytes:
    """Serialize one group into its 64-byte block (scalar reference)."""
    writer = BitWriter(config.block_bytes)
    writer.write(int(np.float16(scale).view(np.uint16)), 16)
    writer.write(int(scale_pos), config.scale_pos_bits)
    writer.write(int(pattern_id), config.pattern_id_bits)
    writer.write(int(codebook_id), config.codebook_id_bits)
    writer.write(len(outlier_pos), config.outlier_count_bits)
    for pos in range(config.group_size):
        if pos == scale_pos:
            continue
        sym = int(symbols[pos])
        writer.write(int(code_values[sym]), int(code_lengths[sym]))
    for pos, q in zip(outlier_pos, outlier_q):
        writer.write(int(pos), config.scale_pos_bits)
        writer.write(int(q), 8)
    return writer.bytes()


def decode_tables(code_lengths: np.ndarray) -> list:
    """(length, code) -> symbol lookup per codebook, built once per meta."""
    from .huffman import canonical_codes

    tables = []
    for lengths in code_lengths:
        codes = canonical_codes(lengths)
        tables.append(
            {
                (int(lengths[s]), int(codes[s])): s
                for s in range(lengths.size)
                if lengths[s] > 0
            }
        )
    return tables


def window_tables(code_lengths: np.ndarray, window_bits: int) -> tuple:
    """Speculative-window Huffman decode tables, one row per codebook.

    For every ``window_bits``-wide bit window the tables give the symbol
    whose canonical code prefixes the window and that code's length (an
    invalid window has symbol -1 and length 0).  Because canonical codes
    are prefix-free the window ranges never collide — this is exactly the
    hardware's 8-bit window decoder as two (H, 2**window_bits) arrays.  The returned tuple
    also carries the same tables as nested Python lists, which the
    small-stack scalar decode indexes without per-call conversion.
    """
    from .huffman import canonical_codes

    H, num_symbols = code_lengths.shape
    sym_table = np.full((H, 1 << window_bits), -1, dtype=np.int64)
    len_table = np.zeros((H, 1 << window_bits), dtype=np.int64)
    for h in range(H):
        lengths = code_lengths[h]
        codes = canonical_codes(lengths)
        for s in range(num_symbols):
            length = int(lengths[s])
            if length == 0 or length > window_bits:
                continue
            lo = int(codes[s]) << (window_bits - length)
            hi = (int(codes[s]) + 1) << (window_bits - length)
            sym_table[h, lo:hi] = s
            len_table[h, lo:hi] = length
    return sym_table, len_table, sym_table.tolist(), len_table.tolist()


#: Fields are scattered through 32-bit windows onto big-endian 16-bit
#: words, so one field (a header id, a Huffman code, an outlier slot) may
#: be at most this wide.
_MAX_FIELD_BITS = 16


def _header_widths(config) -> tuple:
    """Bit widths of the header fields, in block order: scale, scale
    position, pattern id, codebook id, outlier count."""
    return (
        16,
        config.scale_pos_bits,
        config.pattern_id_bits,
        config.codebook_id_bits,
        config.outlier_count_bits,
    )


def pack_blocks(
    config,
    scales: np.ndarray,
    scale_pos: np.ndarray,
    pattern_ids: np.ndarray,
    codebook_ids: np.ndarray,
    symbols: np.ndarray,
    corrections: np.ndarray,
    code_lengths: np.ndarray,
    code_values: np.ndarray,
) -> np.ndarray:
    """Serialize every group at once; rows match :func:`pack_block` exactly.

    ``corrections`` is the dense (G, group_size) outlier matrix (0 = no
    slot).  A block is the MSB-first concatenation of its fields — five
    header fields, one code per position (none at the scale slot), one
    outlier slot per position (none where the correction is 0) — so every
    field's bit offset is the running sum of the widths before it, and the
    slots come out in ascending position order like the scalar writer's.
    """
    G, group_size = symbols.shape
    block_bits = config.block_bits
    code_lengths = np.asarray(code_lengths, dtype=np.int64)
    code_values = np.asarray(code_values, dtype=np.int64)
    coded = symbols != SCALE_SYMBOL
    safe = np.where(coded, symbols, 0)
    book = codebook_ids[:, None]
    has_slot = corrections != 0

    num_fields = 5 + 2 * group_size
    values = np.empty((G, num_fields), dtype=np.int64)
    widths = np.empty((G, num_fields), dtype=np.int64)
    values[:, 0] = np.float16(scales).view(np.uint16)
    values[:, 1] = scale_pos
    values[:, 2] = pattern_ids
    values[:, 3] = codebook_ids
    values[:, 4] = has_slot.sum(axis=1)
    widths[:, :5] = _header_widths(config)
    values[:, 5 : 5 + group_size] = code_values[book, safe] * coded
    widths[:, 5 : 5 + group_size] = code_lengths[book, safe] * coded
    values[:, 5 + group_size :] = (
        (np.arange(group_size) << 8) | (corrections & 0xFF)
    ) * has_slot
    widths[:, 5 + group_size :] = has_slot * config.outlier_bits
    if G and int(widths.max()) > _MAX_FIELD_BITS:
        raise ValueError(
            f"field wider than {_MAX_FIELD_BITS} bits; scalar path required"
        )

    ends = widths.cumsum(axis=1)
    if (ends[:, -1] > block_bits).any():
        raise OverflowError("block budget exceeded")
    starts = ends - widths
    # Each field lands left-aligned in the 32-bit window that begins at its
    # 16-bit word; the window's two halves go to that word and the next.
    # Fields never overlap, so summing the halves per word is OR-ing them.
    window = values << (32 - widths - (starts & 15))
    stride = (block_bits >> 4) + 2
    word = (starts >> 4) + np.arange(G)[:, None] * stride
    words = np.bincount(
        word.ravel(), weights=(window >> 16).ravel(), minlength=G * stride
    )
    words += np.bincount(
        word.ravel() + 1, weights=(window & 0xFFFF).ravel(), minlength=G * stride
    )
    block_bytes = words.reshape(G, stride).astype(">u2").view(np.uint8)
    return np.ascontiguousarray(block_bytes[:, : config.block_bytes])


#: At or below this many blocks the per-group big-integer decode beats the
#: vectorized lockstep loop.  Measured min-of-7 on one host, scalar vs
#: vectorized µs per call: 1 block 36 / 370, 8 blocks 245 / 335, 10 blocks
#: 310 / 335, 12 blocks 380 / 340, 32 blocks 1000 / 420, 64 blocks 1930 /
#: 520, 128 blocks 3860 / 780, 320 blocks 9700 / 1600 — about 31 µs per
#: block against 0.31 ms per call plus 4 µs per block, crossing between 10
#: and 12.  The decode loop's one new token per read stays scalar; a
#: whole-prompt or whole-page decode goes vectorized.
_SMALL_DECODE_BLOCKS = 10


def _unpack_blocks_small(config, blocks, sym_lists, len_lists):
    """Scalar twin of the vectorized unpack for small block counts.

    Each block becomes one Python big integer; window extraction is then
    two shift/mask operations per value, which for a handful of blocks is
    far cheaper than launching the vectorized machinery.  ``sym_lists`` /
    ``len_lists`` are the list forms from :func:`window_tables`.
    """
    G = blocks.shape[0]
    total_bits = blocks.shape[1] * 8
    window_bits = int(config.max_code_len)
    window_mask = (1 << window_bits) - 1
    group_size = config.group_size
    outlier_bits = config.outlier_bits

    scale_u16 = np.empty(G, dtype=np.uint16)
    scale_pos = np.empty(G, dtype=np.int64)
    pattern_ids = np.empty(G, dtype=np.int64)
    codebook_ids = np.empty(G, dtype=np.int64)
    symbols = np.empty((G, group_size), dtype=np.int64)
    corrections = np.zeros((G, group_size), dtype=np.int64)

    for g in range(G):
        big = int.from_bytes(blocks[g].tobytes(), "big")
        off = 0

        def read(n):
            nonlocal off
            value = (big >> (total_bits - off - n)) & ((1 << n) - 1)
            off += n
            return value

        scale_u16[g] = read(16)
        spos = read(config.scale_pos_bits)
        scale_pos[g] = spos
        pattern_ids[g] = read(config.pattern_id_bits)
        cid = read(config.codebook_id_bits)
        codebook_ids[g] = cid
        count = read(config.outlier_count_bits)
        if cid >= len(sym_lists) or spos >= group_size:
            raise ValueError("corrupt block: header field out of range")
        stab = sym_lists[cid]
        ltab = len_lists[cid]
        row = symbols[g]
        for pos in range(group_size):
            if pos == spos:
                row[pos] = SCALE_SYMBOL
                continue
            # A cursor a damaged payload pushed past the block reads zero
            # windows from here on; the check after the loop reports it.
            avail = total_bits - off
            if avail >= window_bits:
                window = (big >> (avail - window_bits)) & window_mask
            else:
                window = (big << (window_bits - avail)) & window_mask
            length = ltab[window]
            if length == 0:
                raise ValueError("corrupt block: no canonical code matched")
            row[pos] = stab[window]
            off += length
        if off + count * outlier_bits > total_bits:
            raise ValueError(
                "corrupt block: payload and outlier slots run past the block"
            )
        for _ in range(count):
            pos = read(config.scale_pos_bits)
            q = read(8)
            if pos >= group_size:
                raise ValueError("corrupt block: outlier position out of range")
            corrections[g, pos] = q - 256 if q >= 128 else q

    scales = scale_u16.view(np.float16).astype(np.float32)
    return scales, scale_pos, pattern_ids, codebook_ids, symbols, corrections


def _read_fields(words: np.ndarray, rows, starts, width: int):
    """``width``-bit MSB-first integers at bit offsets ``starts`` of each
    row, read through the 32-bit word that begins at the field's byte."""
    shift = 32 - width - (starts & 7)
    return (words[rows, starts >> 3] >> shift) & ((1 << width) - 1)


def unpack_blocks(
    config,
    blocks: np.ndarray,
    code_lengths: np.ndarray,
    tables: tuple | None = None,
):
    """Deserialize a (G, block_bytes) stack of blocks at once.

    Returns ``(scales, scale_pos, pattern_ids, codebook_ids, symbols,
    corrections)`` with ``corrections`` as the dense (G, group_size)
    outlier matrix.  The Huffman stage advances all groups in lockstep —
    one vectorized window lookup per coded value — so the Python-level
    work is O(group_size), not O(total bits).  Small stacks short-circuit
    to a per-group big-integer decode with the same tables.

    A damaged block raises ``ValueError("corrupt block: ...")`` from either
    path — a window no code matches, a header id or position out of range,
    or a payload / outlier cursor past the end of the block — and never
    reads outside its own bytes meanwhile.
    """
    window_bits = int(config.max_code_len)
    if tables is None:
        tables = window_tables(code_lengths, window_bits)
    sym_table, len_table = tables[0], tables[1]
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)

    if blocks.shape[0] <= _SMALL_DECODE_BLOCKS:
        if len(tables) >= 4:
            sym_lists, len_lists = tables[2], tables[3]
        else:  # a bare (sym, len) array pair is still accepted
            sym_lists, len_lists = sym_table.tolist(), len_table.tolist()
        return _unpack_blocks_small(config, blocks, sym_lists, len_lists)

    G, block_bytes = blocks.shape
    group_size = config.group_size
    block_bits = config.block_bits
    outlier_bits = config.outlier_bits
    if max(window_bits, outlier_bits) > 25:
        raise ValueError("field wider than 25 bits; scalar path required")
    rows = np.arange(G)

    # The big-endian 32-bit word starting at every byte.  The zero slack
    # is as long as the longest walk a payload can take (every code at the
    # full window width), so a cursor that damaged data pushed past the
    # block reads zeros of its own row, never the next block.
    reach = config.header_bits + group_size * window_bits
    padded = np.zeros((G, max(block_bytes, reach // 8 + 1) + 4), dtype=np.uint32)
    padded[:, :block_bytes] = blocks
    words = (
        (padded[:, :-3] << 24)
        | (padded[:, 1:-2] << 16)
        | (padded[:, 2:-1] << 8)
        | padded[:, 3:]
    )

    start = np.int64(0)
    fields = []
    for width in _header_widths(config):
        fields.append(_read_fields(words, rows, start, width).astype(np.int64))
        start += width
    scale_u16, scale_pos, pattern_ids, codebook_ids, out_counts = fields
    scales = scale_u16.astype(np.uint16).view(np.float16).astype(np.float32)
    if (codebook_ids >= sym_table.shape[0]).any() or (scale_pos >= group_size).any():
        raise ValueError("corrupt block: header field out of range")

    # Huffman payload: every group consumes one code per coded position,
    # all groups in lockstep.  The speculative window at every bit offset
    # is precomputed in one sweep, so each lockstep iteration is only
    # gathers and adds: no per-position check, no branch on the scale slot
    # (which carries no code and is spliced in afterwards).
    phase = (32 - window_bits - np.arange(8)).astype(np.uint32)
    windows = (words[:, :, None] >> phase) & np.uint32((1 << window_bits) - 1)
    flat_windows = windows.ravel()
    row_base = rows * (windows.shape[1] * 8)
    table_base = codebook_ids << window_bits
    flat_syms = sym_table.ravel()
    flat_lens = len_table.ravel()
    cursor = row_base + config.header_bits
    codes = np.empty((group_size - 1, G), dtype=np.int64)
    for code in codes:
        entry = table_base + flat_windows[cursor]
        code[:] = flat_syms[entry]
        cursor += flat_lens[entry]
    if (codes < 0).any():
        raise ValueError("corrupt block: no canonical code matched")
    payload_end = cursor - row_base
    if (payload_end + out_counts * outlier_bits > block_bits).any():
        raise ValueError(
            "corrupt block: payload and outlier slots run past the block"
        )
    cols = np.arange(group_size)
    source = np.minimum(cols - (cols > scale_pos[:, None]), group_size - 2)
    symbols = codes[source, rows[:, None]]
    symbols[rows, scale_pos] = SCALE_SYMBOL

    # Outlier slots.
    corrections = np.zeros((G, group_size), dtype=np.int64)
    max_count = int(out_counts.max())
    if max_count:
        k = np.arange(max_count)
        slot_rows, slot_k = np.nonzero(k < out_counts[:, None])
        slot = _read_fields(
            words, slot_rows, payload_end[slot_rows] + slot_k * outlier_bits,
            outlier_bits,
        ).astype(np.int64)
        out_pos = slot >> 8
        out_q = slot & 0xFF
        if (out_pos >= group_size).any():
            raise ValueError("corrupt block: outlier position out of range")
        corrections[slot_rows, out_pos] = np.where(out_q >= 128, out_q - 256, out_q)

    return scales, scale_pos, pattern_ids, codebook_ids, symbols, corrections


def unpack_block(config, data: bytes, code_lengths: np.ndarray, tables=None):
    """Deserialize one block back into its integer fields (scalar reference).

    ``code_lengths`` has shape (H, num_symbols); Huffman decoding walks the
    canonical code of the block's codebook bit by bit (the software twin of
    the hardware's speculative window decode).  Pass ``tables`` (from
    :func:`decode_tables`) to reuse the codebook lookups across blocks.
    """
    reader = BitReader(data)
    scale = np.uint16(reader.read(16)).view(np.float16).astype(np.float32)
    scale_pos = reader.read(config.scale_pos_bits)
    pattern_id = reader.read(config.pattern_id_bits)
    codebook_id = reader.read(config.codebook_id_bits)
    num_outliers = reader.read(config.outlier_count_bits)

    if tables is None:
        tables = decode_tables(code_lengths)
    if codebook_id >= len(tables) or scale_pos >= config.group_size:
        raise ValueError("corrupt block: header field out of range")
    table = tables[codebook_id]
    symbols = np.zeros(config.group_size, dtype=np.int64)
    for pos in range(config.group_size):
        if pos == scale_pos:
            symbols[pos] = SCALE_SYMBOL  # the scale slot
            continue
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read(1)
            length += 1
            sym = table.get((length, code))
            if sym is not None:
                symbols[pos] = sym
                break
            if length > config.max_code_len:
                raise ValueError("corrupt block: no canonical code matched")

    outlier_pos = np.zeros(num_outliers, dtype=np.int64)
    outlier_q = np.zeros(num_outliers, dtype=np.int64)
    for i in range(num_outliers):
        outlier_pos[i] = reader.read(config.scale_pos_bits)
        outlier_q[i] = reader.read_signed(8)
    if np.any(outlier_pos >= config.group_size):
        raise ValueError("corrupt block: outlier position out of range")
    return scale, scale_pos, pattern_id, codebook_id, symbols, outlier_pos, outlier_q
