"""Deterministic in-process simulation of a k+2 node storage cluster.

A byte file is read as little-endian 8-byte words, the last one
zero-padded, and each word is written as its 41 base-3 digits
(3^41 > 2^64), so a byte costs 41/8 = 5.125 trits.  The digits go to
stripes of k*N symbols plane by plane: block b of kN words fills stripes
41b .. 41b+40, stripe 41b+d holding digit d of every word of the block,
word j*N + r of the block in row r of part j.  A last block of W' < kN
words is stored digit-major (digit d of word i at d*W' + i) and
zero-padded to whole stripes.  The code is a fixed-size block code, so
striping is the standard lift and all meters aggregate across stripes.
A node is its payload, and is failed while that is None.  A repair's
report meters the reads of each helper by the nonzero columns of the
matrix it applies, which is exactly the disk-I/O quantity the repair
strategy optimizes, even though the simulator could trivially read whole
shards.

On disk a shard packs five trits per byte (3^5 = 243 <= 256) behind a
fixed little-endian header and a CRC32 trailer; see ``shard_to_bytes``.
The header's version byte names the stripes' byte layout and the packing.
Versions 2 and 3 hold the word layout above, version 1 the older one, six
trits per byte in file order, which ``extract`` still reads.  Versions 1
and 2 pack interleaved, byte i holding trits 5i .. 5i+4.  Version 3, which
encode writes, packs planar: with M = ceil(count / 5), byte i holds trits
i, M+i, 2M+i, 3M+i and 4M+i, so each place value of the packed bytes is
one contiguous plane of trits.  Older sets are still read, and a repair
writes its helpers' version.  ``shard_header`` checks a shard's header
alone, so a reader can check a shard against others before it unpacks
it, and ``shard_from_bytes`` can unpack into a given row, such as one of
the (k+2, stripes, N) stack that ``zigzag3 decode`` reads every shard
into and decodes in place.

Ingest splits each word by 3^20, 3^10 and 243 into uint8 groups of five
digits and peels those by uint8 division straight into the digit planes;
extract runs the inverse Horner steps.  Both work a whole number of
blocks at a time, so every pass is a contiguous elementwise one and no
temporary is file-sized.  Planar packing is the same kind of work: a
Horner pass over the five trit planes packs, and four uint8 division
rounds unpack.  Interleaved packing multiplies each 5-trit group, read as
an 8-byte word, by one constant that sums its place values into one byte
of the product, and interleaved unpacking looks each packed byte up in
the 243-row table of its five trits (see ``_pack_trits``).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .code import (
    CodeParams,
    CodingMatrixSet,
    build_coding_matrices,
    encode_parts_array,
)
from .gf3 import residues
from .repair import RepairPlan, compute_downloads, execute_repair, expected_repair_io, plan_repair

__all__ = [
    "CorruptDataError",
    "ShardFormatError",
    "FileMeta",
    "trits_to_bytes",
    "byte_capacity",
    "ingest",
    "extract",
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "shard_to_bytes",
    "ShardHeader",
    "shard_header",
    "shard_from_bytes",
    "write_shard_file",
    "NodeStore",
    "RepairReport",
    "repair_lost_node",
    "ClusterState",
]


class CorruptDataError(ValueError):
    """Recombined trits do not form valid bytes."""


class ShardFormatError(ValueError):
    """Shard bytes violate the on-disk format or fail CRC."""


# ---------------------------------------------------------------------------
# Byte <-> trit mapping
# ---------------------------------------------------------------------------


def _digit_rows(values: int, digits: int) -> np.ndarray:
    """The base-3 digits of 0..values-1, most significant first, each
    value's digits viewed as one opaque ``digits``-byte row, read-only."""
    table = (np.arange(values)[:, None] // 3 ** np.arange(digits - 1, -1, -1) % 3).astype(np.uint8)
    rows = table.view(np.dtype((np.void, digits))).reshape(values)
    rows.setflags(write=False)
    return rows


# packed byte value -> its 5 base-3 digits (values >= 243 are invalid)
_PACKED_TO_TRITS = _digit_rows(243, 5)

# Base-3 digits per 8-byte word: 3^40 < 2^64 < 3^41.
_WORD_TRITS = 41
_WORD = np.dtype("<u8")
_P10 = 3**10
_P20 = 3**20
# 2^64 - 1 = 3 * (_HI_MAX * 3^20 + _LO_MAX), a multiple of 3
_HI_MAX, _LO_MAX = divmod((2**64 - 1) // 3, _P20)


def _horner(groups: np.ndarray, dtype) -> np.ndarray:
    """Base-3 value of each row of trits, most significant first."""
    vals = groups[:, 0].astype(dtype)
    for c in range(1, groups.shape[1]):
        vals *= 3
        vals += groups[:, c]
    return vals


def _word_digits(words: np.ndarray, planes: np.ndarray) -> None:
    """Write the base-3 digits of each word, most significant first, into
    ``planes`` (41, len(words)): plane d gets digit d of every word.

    A word splits by 3^20 into halves, each half by 3^10 into quarters and
    each quarter by 243 into two uint8 groups of five digits.  The top
    quarter holds eleven digits, but is at most 89,594 < 2 * 3^10: its
    top digit is 1 exactly when it reaches 3^10, and is taken out first:
    the quarter becomes the smaller of itself and itself less 3^10, which
    wraps around in uint32 below 3^10.  The eight groups are then peeled
    together, four uint8 divisions writing straight into the planes.
    """
    count = words.shape[0]
    halves = np.empty((2, count), dtype=np.uint64)
    np.floor_divide(words, _P20, out=halves[0])
    np.multiply(halves[0], _P20, out=halves[1])
    np.subtract(words, halves[1], out=halves[1])
    quotient = halves // _P10
    quarters = np.empty((2, 2, count), dtype=np.uint32)
    quarters[:, 0] = quotient
    quotient *= _P10
    np.subtract(halves, quotient, out=quarters[:, 1], casting="unsafe")
    quarters = quarters.reshape(4, count)
    np.greater_equal(quarters[0], _P10, out=planes[0].view(np.bool_))
    np.minimum(quarters[0], quarters[0] - np.uint32(_P10), out=quarters[0])
    quotient = quarters // 243
    groups = np.empty((4, 2, count), dtype=np.uint8)
    groups[:, 0] = quotient
    quotient *= 243
    np.subtract(quarters, quotient, out=groups[:, 1], casting="unsafe")
    groups = groups.reshape(8, count)
    step = np.empty_like(groups)
    for i, place in enumerate((81, 27, 9, 3)):
        digit = planes[1 + i :: 5]
        np.floor_divide(groups, place, out=digit)
        np.multiply(digit, place, out=step)
        np.subtract(groups, step, out=groups if i < 3 else planes[5::5])


def _digit_words(planes: np.ndarray, first: int) -> np.ndarray:
    """Inverse of ``_word_digits``: the uint64 words of the digit planes
    (41, count).  A word whose digits exceed 2^64 - 1 raises
    ``CorruptDataError`` naming its index, counted from ``first``.

    Digits 0-39 form eight uint8 groups of five, pairs of groups uint16
    quarters below 3^10, and pairs of quarters uint32 halves below 3^20;
    a word is (high * 3^20 + low) * 3 plus digit 40, each step in the
    narrowest type that holds it.
    """
    count = planes.shape[1]
    groups = planes[0:40:5] * np.uint8(3)
    groups += planes[1:40:5]
    for d in (2, 3, 4):
        groups *= 3
        groups += planes[d:40:5]
    quarters = groups[0::2].astype(np.uint16)
    quarters *= 243
    quarters += groups[1::2]
    halves = quarters[0::2].astype(np.uint32)
    halves *= _P10
    halves += quarters[1::2]
    high, low = halves
    last = planes[40]
    # Below this high half, no word can exceed 2^64 - 1.
    if count and int(high.max()) >= _HI_MAX:
        bad = (high > _HI_MAX) | ((high == _HI_MAX) & ((low > _LO_MAX) | ((low == _LO_MAX) & (last > 0))))
        if bad.any():
            i = int(np.argmax(bad))
            value = (int(high[i]) * _P20 + int(low[i])) * 3 + int(last[i])
            raise CorruptDataError(f"word {first + i} recombines to {value} >= 2**64")
    words = high.astype(np.uint64)
    words *= _P20
    words += low
    words *= 3
    words += last
    return words


def trits_to_bytes(trits: np.ndarray, byte_count: int, *, first: int = 0) -> bytes:
    """Recombine version-1 groups of 6 trits into bytes; groups >= 256 are
    corrupt.

    ``first`` is the index of the first group in the whole stream, so that
    a block cut from a longer stream reports a corrupt group by its place
    in that stream.
    """
    need = 6 * byte_count
    if trits.shape[0] < need:
        raise CorruptDataError(f"need {need} trits for {byte_count} bytes, got {trits.shape[0]}")
    # 6 trits reach 728, so the value needs uint16
    vals = _horner(trits[:need].reshape(-1, 6), np.uint16)
    if vals.size and int(vals.max()) > 255:
        bad = int(np.argmax(vals > 255))
        raise CorruptDataError(f"trit group {first + bad} recombines to {int(vals[bad])} >= 256")
    return vals.astype(np.uint8).tobytes()


# A word whose little-endian bytes 0-4 hold trits t0..t4, times this
# constant, holds 81*t0 + 27*t1 + 9*t2 + 3*t3 + t4 in bits 32..39.
_PACK_MULTIPLIER = np.uint64(81 << 32 | 27 << 24 | 9 << 16 | 3 << 8 | 1)


def _pack_interleaved(trits: np.ndarray) -> bytes:
    """Pack trits 5g .. 5g+4 into byte g, earliest trit in the highest
    place value; a last group of fewer than 5 trits is zero-padded on the
    right.

    The trits are copied into a zero-padded buffer that is read as one
    little-endian uint64 word per group, at a stride of 5 bytes: word g
    holds trits 5g .. 5g+4 in its bytes 0-4, and 3 bytes of the next group
    (or of the padding) above them.  Multiplying by ``_PACK_MULTIPLIER``
    moves trit 5g+i into byte 4 with place value 3^(4-i), so byte 4 of the
    product is the packed byte.  No byte of the product carries into the
    next: byte j < 4 sums to at most 3^(j+1) - 1 <= 80, and byte 4 to at
    most 242.
    """
    count = trits.shape[0]
    groups = -(-count // 5)
    buf = np.empty(5 * groups + 3, dtype=np.uint8)
    buf[:count] = trits
    buf[count:] = 0
    words = np.ndarray((groups,), dtype=_WORD, buffer=buf, strides=(5,))
    product = np.empty(groups, dtype=_WORD)
    np.multiply(words, _PACK_MULTIPLIER, out=product)
    return product.view(np.uint8)[4::8].tobytes()


def _pack_planar(trits: np.ndarray) -> bytes:
    """Pack the trits, zero-padded to 5M for M = ceil(count / 5), as five
    planes of M: byte i is 81*t[i] + 27*t[M+i] + 9*t[2M+i] + 3*t[3M+i] +
    t[4M+i], one Horner step per plane."""
    count = trits.shape[0]
    m = -(-count // 5)
    buf = np.empty(5 * m, dtype=np.uint8)
    buf[:count] = trits
    buf[count:] = 0
    planes = buf.reshape(5, m)
    packed = planes[0] * np.uint8(3)
    for plane in planes[1:4]:
        packed += plane
        packed *= 3
    packed += planes[4]
    return packed.tobytes()


def _pack_trits(trits: np.ndarray, version: int) -> bytes:
    """Pack trits 5 per byte in the packing of shard ``version``:
    interleaved for versions 1 and 2, planar for version 3."""
    return _pack_interleaved(trits) if version < 3 else _pack_planar(trits)


def _trit_rows(packed: np.ndarray) -> np.ndarray:
    """The 5 base-3 digits of each packed byte, most significant first,
    as a (bytes, 5) uint8 array."""
    return _PACKED_TO_TRITS[packed].view(np.uint8).reshape(-1, 5)


def _unpack_trits(packed, out: np.ndarray, version: int) -> None:
    """Unpack into the flat uint8 ``out`` the first ``out.size`` trits of
    the bytes ``packed`` (any buffer) that ``_pack_trits`` packed for
    shard ``version``.  A byte >= 243, too short a payload, or a nonzero
    trit past ``out.size`` in the packer's trit order (which it never
    writes) raises ``ShardFormatError`` before anything is written.

    Only the bytes that hold padding trits, at most four, are unpacked
    apart, through ``_trit_rows``; the rest go straight into ``out``.
    Interleaved bytes are one whole-row lookup: each byte takes its 5
    trits from ``_PACKED_TO_TRITS``, 1,215 read-only bytes built at
    import, which stay in L1 cache from shard to shard.  Each output byte
    is written once, so the result does not depend on the order numpy
    writes rows in.  Every index is in range, so ``clip`` never clips; it
    only lets the take write into ``out`` directly.

    Planar bytes are peeled by place value 81, 27, 9 and 3 in turn: each
    round divides the remainder into the next plane of ``out`` and leaves
    its own remainder in the last plane, all in contiguous uint8 passes.
    The padding is the end of the last plane, the place-1 digits of the
    last bytes; a payload of under 17 trits, whose planes are shorter
    than the padding, is unpacked whole through ``_trit_rows``.
    """
    packed = np.frombuffer(packed, dtype=np.uint8)
    count, m = out.size, packed.size
    if m and int(packed.max()) >= 243:
        raise ShardFormatError("payload byte >= 243 cannot encode 5 trits")
    if 5 * m < count:
        raise ShardFormatError(f"payload holds {5 * m} trits, header claims {count}")
    if version >= 3 and count > 4 * m:
        head = count - 4 * m
        tail = _trit_rows(packed[head:])
        if tail[:, 4].any():
            raise ShardFormatError(f"payload has a nonzero padding trit past trit {count}")
        planes = out[: 4 * m].reshape(4, m)
        planes[:, head:] = tail[:, :4].T
        rest, last = packed[:head], out[4 * m :]
        step = np.empty(head, dtype=np.uint8)
        for plane, place in zip(planes[:, :head], (81, 27, 9, 3)):
            np.floor_divide(rest, place, out=plane)
            np.multiply(plane, place, out=step)
            np.subtract(rest, step, out=last)
            rest = last
        return
    head = count // 5 if version < 3 else 0
    tail = _trit_rows(packed[head:])
    tail = (tail if version < 3 else tail.T).reshape(-1)
    rest = count - 5 * head
    if tail[rest:].any():
        raise ShardFormatError(f"payload has a nonzero padding trit past trit {count}")
    out[5 * head :] = tail[:rest]
    np.take(_PACKED_TO_TRITS, packed[:head], out=out[: 5 * head].view(_PACKED_TO_TRITS.dtype), mode="clip")


# ---------------------------------------------------------------------------
# Ingest / extract
# ---------------------------------------------------------------------------

# The shard version encode writes.  Its byte layout is version 2's, which
# ingest writes; extract and the shard reader also take versions 1 and 2.
SHARD_VERSION = 3
_SHARD_VERSIONS = (1, 2, 3)


@dataclass(frozen=True)
class FileMeta:
    """Original byte length plus the stripe geometry it padded out to, and
    the shard version whose byte layout the stripes hold (versions 2 and 3
    hold the same one)."""

    original_len: int
    stripe_count: int
    version: int = SHARD_VERSION


def _stripe_count(params: CodeParams, words: int) -> int:
    """Stripes that ``words`` words fill: 41 per whole block of kN words,
    then the last block's 41*W' trits rounded up; at least one."""
    blocks, rest = divmod(words, params.file_symbols)
    return max(1, _WORD_TRITS * blocks + -(-_WORD_TRITS * rest // params.file_symbols))


def byte_capacity(params: CodeParams, stripes: int, version: int) -> int:
    """The most bytes ``stripes`` stripes hold in a shard ``version``'s
    layout."""
    kn = params.file_symbols
    if version == 1:
        return stripes * kn // 6
    if version not in _SHARD_VERSIONS:
        raise ValueError(f"unsupported shard version {version}")
    blocks, rest = divmod(stripes, _WORD_TRITS)
    return 8 * (blocks * kn + rest * kn // _WORD_TRITS)


# Trits per codec chunk: ingest and extract convert the stream a few
# stripes at a time, so neither lays out a file-sized copy of it.
_BLOCK_TRITS = 1 << 18


def _chunks(params: CodeParams, words: int, stripes: int) -> list[tuple[int, int, int, int]]:
    """(first word, end word, first stripe, end stripe) of each codec
    chunk: runs of whole blocks, about ``_BLOCK_TRITS`` trits each (one
    block where a block alone is larger, from k = 11), then the last
    partial block and the padding, if any stripe is left."""
    kn = params.file_symbols
    step = kn * max(1, _BLOCK_TRITS // (_WORD_TRITS * kn))
    whole = words - words % kn
    ends = [*range(0, whole, step), whole]
    chunks = [(w0, w1, _WORD_TRITS * w0 // kn, _WORD_TRITS * w1 // kn) for w0, w1 in zip(ends, ends[1:])]
    if _WORD_TRITS * whole // kn < stripes:
        chunks.append((whole, words, _WORD_TRITS * whole // kn, stripes))
    return chunks


def _chunk_views(params: CodeParams, rows: np.ndarray, buf: np.ndarray, chunk):
    """Two views of one shape over a chunk's stripes, one into ``rows`` (the
    parts as (k, stripes) opaque N-symbol rows) and one into the stream
    buffer ``buf``, and the chunk's (41, words) digit planes within ``buf``.

    A run of whole blocks is laid out digit-major across the whole run, so
    each plane is one contiguous row; the last partial block is the stream
    itself, its planes followed by zero padding."""
    k, kn = params.k, params.file_symbols
    w0, w1, s0, s1 = chunk
    count = w1 - w0
    rowtype = rows.dtype
    if count and count % kn == 0:
        blocks = count // kn
        planes = buf[: _WORD_TRITS * count].reshape(_WORD_TRITS, count)
        grid = planes.view(rowtype).reshape(_WORD_TRITS, blocks, k).transpose(2, 1, 0)
        return rows[:, s0:s1].reshape(k, blocks, _WORD_TRITS), grid, planes
    stream = buf[: (s1 - s0) * kn]
    planes = stream[: _WORD_TRITS * count].reshape(_WORD_TRITS, count)
    return rows[:, s0:s1], stream.view(rowtype).reshape(s1 - s0, k).T, planes


def _as_rows(parts: np.ndarray) -> np.ndarray:
    """A (k, stripes) view of C-contiguous uint8 parts with one opaque
    N-byte row per stripe and part."""
    return parts.view(np.dtype((np.void, parts.shape[-1])))[..., 0]


def _chunk_buffer(params: CodeParams, chunks) -> np.ndarray:
    return np.empty(max(s1 - s0 for _, _, s0, s1 in chunks) * params.file_symbols, dtype=np.uint8)


def ingest(params: CodeParams, data: bytes) -> tuple[np.ndarray, FileMeta]:
    """Split a byte string into parts of shape (k, stripes, N) in the word
    layout of versions 2 and 3 (see the module docstring).

    An empty file still occupies one all-zero stripe.  The words are
    converted chunk by chunk, each chunk's digits copied into the parts as
    whole N-symbol rows.
    """
    k, n = params.k, params.n_rows
    size = len(data)
    words = -(-size // 8)
    stripes = _stripe_count(params, words)
    parts = np.empty((k, stripes, n), dtype=np.uint8)
    rows = _as_rows(parts)
    chunks = _chunks(params, words, stripes)
    buf = _chunk_buffer(params, chunks)
    view = memoryview(data)
    for chunk in chunks:
        w0, w1, s0, s1 = chunk
        if 8 * w1 <= size:
            block = np.frombuffer(view[8 * w0 : 8 * w1], dtype=_WORD)
        else:
            block = np.zeros(w1 - w0, dtype=_WORD)
            block.view(np.uint8)[: size - 8 * w0] = np.frombuffer(view[8 * w0 :], dtype=np.uint8)
        stored, grid, planes = _chunk_views(params, rows, buf, chunk)
        buf[_WORD_TRITS * (w1 - w0) : (s1 - s0) * params.file_symbols] = 0
        _word_digits(block, planes)
        stored[...] = grid
    return parts, FileMeta(size, stripes)


def extract(params: CodeParams, parts: np.ndarray, meta: FileMeta) -> bytes:
    """Inverse of ingest: recombine the words of the layout ``meta.version``
    names and strip the padding.

    ``parts`` holds trits 0..2.  Like ``ingest`` it works chunk by chunk:
    only one chunk of the stream is ever laid out in file order.
    """
    k, n = params.k, params.n_rows
    if parts.shape != (k, meta.stripe_count, n):
        raise ValueError(f"parts shape {parts.shape} != ({k}, {meta.stripe_count}, {n})")
    if meta.version == 1:
        return _extract_v1(params, parts, meta)
    if meta.version not in _SHARD_VERSIONS:
        raise ValueError(f"unsupported shard version {meta.version}")
    size = meta.original_len
    words = -(-size // 8)
    stripes = _stripe_count(params, words)
    if meta.stripe_count < stripes:
        raise CorruptDataError(f"need {stripes} stripes for {size} bytes, got {meta.stripe_count}")
    rows = _as_rows(np.ascontiguousarray(parts, dtype=np.uint8))
    chunks = _chunks(params, words, stripes)
    buf = _chunk_buffer(params, chunks)
    out = np.empty(words, dtype=_WORD)
    for chunk in chunks:
        stored, grid, planes = _chunk_views(params, rows, buf, chunk)
        grid[...] = stored
        out[chunk[0] : chunk[1]] = _digit_words(planes, chunk[0])
    return out.view(np.uint8)[:size].tobytes()


def _extract_v1(params: CodeParams, parts: np.ndarray, meta: FileMeta) -> bytes:
    """``extract`` for the version-1 layout: six trits per byte, in file
    order across each stripe, part j taking trits [j*N, (j+1)*N)."""
    size = meta.original_len
    if parts.size < 6 * size:
        raise CorruptDataError(f"need {6 * size} trits for {size} bytes, got {parts.size}")
    per_stripe = params.file_symbols
    # A multiple of 3 stripes, so every block starts on a byte (a stripe
    # holds an even number of trits).
    step = 3 * max(1, _BLOCK_TRITS // (3 * per_stripe))
    blocks = []
    for s0 in range(0, meta.stripe_count, step):
        b0 = s0 * per_stripe // 6
        if b0 >= size:
            break
        trits = parts[:, s0 : s0 + step].transpose(1, 0, 2).reshape(-1)
        b1 = min(size, b0 + trits.shape[0] // 6)
        blocks.append(trits_to_bytes(trits, b1 - b0, first=b0))
    return b"".join(blocks)


# ---------------------------------------------------------------------------
# Shard files
# ---------------------------------------------------------------------------

SHARD_MAGIC = b"ZZG3"
_HEADER_LEN = 4 + 1 + 1 + 1 + 4 + 8


def shard_to_bytes(
    params: CodeParams, node_id: int, payload: np.ndarray, *, version: int = SHARD_VERSION
) -> bytes:
    """Serialize one node's payload (stripes, N) to the shard wire format.

    ``version`` sets the header's version byte and the packing: the byte
    tells a reader which byte layout the stripes hold and how the payload
    packs them (see ``_pack_trits``).
    """
    if not 0 <= node_id < params.n_nodes:
        raise ValueError(f"node id {node_id} out of range")
    if version not in _SHARD_VERSIONS:
        raise ValueError(f"unsupported shard version {version}")
    stripes, n = payload.shape
    if n != params.n_rows:
        raise ValueError(f"payload row length {n} != {params.n_rows}")
    trits = residues(payload).reshape(-1)
    packed = _pack_trits(trits, version)
    head = (
        SHARD_MAGIC
        + bytes([version, params.k, node_id])
        + stripes.to_bytes(4, "little")
        + trits.shape[0].to_bytes(8, "little")
    )
    crc = zlib.crc32(packed) & 0xFFFFFFFF
    return head + packed + crc.to_bytes(4, "little")


@dataclass(frozen=True)
class ShardHeader:
    """What a shard's header says, once ``shard_header`` has checked it."""

    params: CodeParams
    node_id: int
    stripes: int
    version: int


def shard_header(blob: bytes) -> ShardHeader:
    """Parse and check a shard's header: magic, version, k, node id, a
    trit count of stripes*N, and a blob exactly as long as the header,
    the packed trits and the CRC.  Anything else raises
    ``ShardFormatError``."""
    if len(blob) < _HEADER_LEN + 4:
        raise ShardFormatError("shard too short for header and CRC")
    if blob[:4] != SHARD_MAGIC:
        raise ShardFormatError(f"bad magic {blob[:4]!r}")
    version = blob[4]
    if version not in _SHARD_VERSIONS:
        raise ShardFormatError(f"unsupported version {version}")
    k = blob[5]
    node_id = blob[6]
    stripes = int.from_bytes(blob[7:11], "little")
    trit_count = int.from_bytes(blob[11:19], "little")
    try:
        params = CodeParams(k)
    except ValueError as exc:
        raise ShardFormatError(str(exc)) from exc
    if node_id >= params.n_nodes:
        raise ShardFormatError(f"node id {node_id} out of range for k={k}")
    if trit_count != stripes * params.n_rows:
        raise ShardFormatError(
            f"trit count {trit_count} != stripes*N = {stripes * params.n_rows}"
        )
    expected_len = _HEADER_LEN + (trit_count + 4) // 5 + 4
    if len(blob) != expected_len:
        raise ShardFormatError(f"shard length {len(blob)} != expected {expected_len}")
    return ShardHeader(params, node_id, stripes, version)


def shard_from_bytes(blob: bytes, out: np.ndarray) -> None:
    """Check a shard and unpack its (stripes, N) trits into ``out``, a
    C-contiguous uint8 array of that shape, such as one row of a decode's
    shard stack.  The header, the CRC and the packed bytes are all
    checked before anything is written, and the payload is read through a
    view of ``blob``, never copied."""
    header = shard_header(blob)
    shape = (header.stripes, header.params.n_rows)
    if out.shape != shape or out.dtype != np.uint8 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous uint8 array of shape {shape}")
    packed = memoryview(blob)[_HEADER_LEN:-4]
    if zlib.crc32(packed) & 0xFFFFFFFF != int.from_bytes(blob[-4:], "little"):
        raise ShardFormatError("payload CRC mismatch")
    _unpack_trits(packed, out.reshape(-1), header.version)


def write_shard_file(path, params: CodeParams, node_id: int, payload: np.ndarray) -> int:
    """Write a shard file; returns the payload CRC32."""
    blob = shard_to_bytes(params, node_id, payload)
    with open(path, "wb") as fh:
        fh.write(blob)
    return int.from_bytes(blob[-4:], "little")


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------

def _read_only(payload: np.ndarray) -> np.ndarray:
    """A view of ``payload`` that raises on any write, so no reader of a
    helper's shard can change the stored copy."""
    view = payload.view()
    view.setflags(write=False)
    return view


@dataclass
class NodeStore:
    """One storage node: its symbols, or None while it is failed."""

    node_id: int
    payload: Optional[np.ndarray]  # (stripes, N)

    def serve(self) -> np.ndarray:
        """Hand out a read-only view of the payload for a repair."""
        return _read_only(self.payload)


@dataclass(frozen=True)
class RepairReport:
    """What one repair did: reads, transfers and per-stage wall time.

    The report is the repair's only meter.  ``method`` names the plan, and
    ``expected_reads`` what that plan should read.  ``stage_seconds``
    holds ``downloads`` and ``solve``, and ``plan`` too on the repair that
    built the plan (a cluster reuses it for every later repair of that
    node, which then reports no plan stage).
    """

    node_id: int
    method: str  # "parity-plan" | "data-plan"
    reads_per_node: dict[int, int]
    total_reads: int
    total_sent: int
    expected_reads: int
    stripes: int
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def matches_expectation(self) -> bool:
        return self.total_reads == self.expected_reads


def repair_lost_node(
    params: CodeParams,
    cm: CodingMatrixSet,
    payloads: dict[int, np.ndarray],
    node_id: int,
    plans: Optional[dict[int, RepairPlan]] = None,
) -> tuple[np.ndarray, RepairReport]:
    """Rebuild the single lost node ``node_id`` through its repair plan.

    ``payloads`` maps every other node id to its (stripes, N) shard; all
    k+1 serve as helpers, and the report charges each with the symbols
    its download reads, and the repair with the symbols they send, per
    stripe of the payloads.  ``plans``, if given, caches plans by node for
    ``params`` and ``cm``: a plan found there is reused, and one built
    here is stored there.  The plan (when built, with its shard-layout
    forms), the downloads and the solve are timed separately.  Returns
    the rebuilt (stripes, N) payload and the report; storing the payload
    is the caller's.
    """
    stage_seconds = {}
    plan = plans.get(node_id) if plans is not None else None
    if plan is None:
        start = time.perf_counter()
        plan = plan_repair(params, cm, node_id)
        if plan._selects is not None:
            plan._gathers  # built here, so the plan stage pays for them
        stage_seconds["plan"] = time.perf_counter() - start
        if plans is not None:
            plans[node_id] = plan
    start = time.perf_counter()
    downloads = compute_downloads(plan, payloads)
    stage_seconds["downloads"] = time.perf_counter() - start
    start = time.perf_counter()
    restored = execute_repair(plan, downloads)
    stage_seconds["solve"] = time.perf_counter() - start
    stripes = restored.size // params.n_rows
    reads_per_node = {helper: stripes * io for helper, io in plan.io_per_node.items()}
    return restored, RepairReport(
        node_id=node_id,
        method="data-plan" if node_id < params.k else "parity-plan",
        reads_per_node=reads_per_node,
        total_reads=sum(reads_per_node.values()),
        total_sent=stripes * plan.bandwidth,
        expected_reads=stripes * expected_repair_io(params, node_id),
        stripes=stripes,
        stage_seconds=stage_seconds,
    )


@dataclass
class ClusterState:
    """A k+2 node cluster holding one striped file.

    Single-writer: every mutation goes through fail_node/repair_node on one
    thread; NodeStore payloads are only read elsewhere.  At most one node is
    failed, since every repair plan needs all k+1 others: ``fail_node``
    refuses a second, and ``repair_node`` a healthy one, with ``ValueError``.

    Repair plans are kept per node, each built on the first repair of its
    node, and dropped together whenever ``cm`` is no longer the coding
    matrix set they were built from.  Only a state that repairs the same
    node again reuses one; ``zigzag3 repair`` keeps no plans between runs.
    """

    params: CodeParams
    nodes: list[NodeStore]
    meta: FileMeta
    cm: CodingMatrixSet = field(repr=False)
    _plans: dict[int, RepairPlan] = field(init=False, repr=False, compare=False, default_factory=dict)
    _plans_cm: Optional[CodingMatrixSet] = field(init=False, repr=False, compare=False, default=None)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_bytes(cls, params: CodeParams, data: bytes) -> "ClusterState":
        cm = build_coding_matrices(params)
        parts, meta = ingest(params, data)
        shards = encode_parts_array(params, cm, parts)
        nodes = [NodeStore(i, shards[i].copy()) for i in range(params.n_nodes)]
        return cls(params, nodes, meta, cm)

    # -- queries --------------------------------------------------------------

    @property
    def failed_nodes(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.payload is None]

    # -- failure and repair ----------------------------------------------------

    def _check_node_id(self, node_id: int) -> None:
        if not 0 <= node_id < self.params.n_nodes:
            raise ValueError(f"node id {node_id} out of range [0, {self.params.n_nodes})")

    def fail_node(self, node_id: int) -> None:
        self._check_node_id(node_id)
        node = self.nodes[node_id]
        if node.payload is None:
            return
        if self.failed_nodes:
            raise ValueError(f"node {self.failed_nodes[0]} is already failed; repair it first")
        node.payload = None

    def repair_node(self, node_id: int) -> RepairReport:
        self._check_node_id(node_id)
        node = self.nodes[node_id]
        if node.payload is not None:
            raise ValueError(f"node {node_id} is not failed")
        if self._plans_cm is not self.cm:
            self._plans, self._plans_cm = {}, self.cm
        payloads = {n.node_id: n.serve() for n in self.nodes if n is not node}
        node.payload, report = repair_lost_node(self.params, self.cm, payloads, node_id, self._plans)
        return report
