"""Deterministic in-process simulation of a k+2 node storage cluster.

A byte file is read as little-endian 8-byte words, the last one
zero-padded, and each word is written as its 41 base-3 digits
(3^41 > 2^64), so a byte costs 41/8 = 5.125 trits.  The digits go to
stripes of k*N symbols plane by plane: a block of kN words fills 41
stripes, each holding one digit of every word of the block, word j*N + r
of the block in row r of part j.  Versions 2 and 3 keep each block's
stripes together, block b's digit d in stripe 41b+d.  Version 4 orders the
B = stripes // 41 whole blocks digit-major: digit 5g+i of block b (g < 8,
i < 5) goes to stripe (8i+g)*B + b, digit 40 of block b to stripe 40B+b.
A last block of W' < kN words is stored digit-major (digit d of word i at
d*W' + i) and zero-padded to whole stripes; in version 4 one that needs
all 41 stripes is stored as a whole block of zero-padded words instead, so
the stripe count alone gives B.  The code is a fixed-size block code, so
striping is the standard lift and all meters aggregate across stripes.
A node is its payload, and is failed while that is None.  A repair's
report meters the reads of each helper by the nonzero columns of the
matrix it applies, which is exactly the disk-I/O quantity the repair
strategy optimizes, even though the simulator could trivially read whole
shards.

On disk a shard packs five trits per byte (3^5 = 243 <= 256) behind a
fixed little-endian header and a CRC32 trailer; see ``shard_to_bytes``.
The header's version byte names the stripes' byte layout and the packing.
Version 1 holds an older layout, six trits per byte in file order, which
``extract`` still reads.  Versions 1 and 2 pack interleaved, byte i
holding trits 5i .. 5i+4.  Version 3 packs planar: with M = ceil(count /
5), byte i holds trits i, M+i, 2M+i, 3M+i and 4M+i, so each place value of
the packed bytes is one contiguous plane of trits.  Version 4, which
encode writes, packs its first 40BN trits, the group region, planar on
their own, and the rest, the tail, planar after them.  Each place value i
of the group region is then digit 5g+i of every word of every whole block,
so byte g*BN + b*N + r is digits 5g .. 5g+4 of the word in row r of block b
as one base-3 value: a decode recombines a data shard's words from its
packed bytes without unpacking them.  The shard is as long as in version
3.  Older sets are still read, and a repair writes its helpers' version.
``shard_header`` checks a shard's header alone, so a reader can check a
shard against others before it unpacks it, and ``shard_from_bytes`` can
unpack into a given row, such as one of the (k+2, stripes, N) stack that
``zigzag3 decode`` reads every shard into and decodes in place; it leaves
a version-4 group region packed until ``unpack_groups``.

Encode and ingest share one run stage: it splits each word of a run of
blocks by 3 into its digit 40 and a third, and the third by 3^20, 3^10
and 243 into the eight uint8 groups of five digits that a version-4
group region holds.  Encode (``encode_file``) keeps the groups as the
data shards' group regions, peels each run by uint8 division rounds into
a small digit buffer, sums the run's parities from it and packs them
into the parity shards' group regions; it builds no parts array and
packs only each shard's tail.  Ingest peels each run's groups into the
parts' stripes.  Extract's ``_block_words`` runs the inverse steps on
the whole blocks of versions 2 to 4, on groups packed from the parts by
a Horner pass or read from a version-4 data shard's packed bytes; a run
of version-2 or -3 blocks, which differ only in stripe order, is first
copied into version 4's digit order.  A last partial block is one
transposed copy of its stripes.  All three work a few blocks at a time,
so no temporary is file-sized.  Planar packing is the same kind of work
as the groups: a Horner pass over the five trit planes packs, and four
uint8 division rounds unpack.  Interleaved packing multiplies each
5-trit group, read as an 8-byte word, by one constant that sums its
place values into one byte of the product, and interleaved unpacking
looks each packed byte up in the 243-row table of its five trits (see
``_pack_trits``).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .code import (
    CodeParams,
    CodingMatrixSet,
    _encode_parities,
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
    "EncodedFile",
    "encode_file",
    "extract",
    "extract_array",
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "shard_to_bytes",
    "ShardHeader",
    "shard_header",
    "shard_from_bytes",
    "unpack_groups",
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


# packed byte value -> its 5 base-3 digits (values >= 243 are invalid),
# as one opaque row per value, and as five planes of 243 (plane i digit i)
_PACKED_TO_TRITS = _digit_rows(243, 5)
_PACKED_PLANES = np.ascontiguousarray(_PACKED_TO_TRITS.view(np.uint8).reshape(243, 5).T)
_PACKED_PLANES.setflags(write=False)

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


def _word_groups(words: np.ndarray, groups: np.ndarray, last: np.ndarray) -> None:
    """Write the base-3 digits of each word, most significant first, as
    eight uint8 groups into ``groups`` (8, *words.shape), group g the
    base-3 value of digits 5g .. 5g+4, and digit 40 into ``last``.

    A word is 3 * third + digit 40, and its third is below 3^40.  The
    third splits by 3^20 into uint32 halves, each half by 3^10 into uint16
    quarters, and each quarter by 243 into two groups.  ``words``,
    ``groups`` and ``last`` may be any views: the first division writes
    the thirds in C order, so every pass before the last is contiguous.
    """
    shape = words.shape
    thirds = np.empty(shape, dtype=np.uint64)
    np.floor_divide(words, 3, out=thirds)
    np.subtract(words, thirds * 3, out=last, casting="unsafe")
    high = thirds // _P20
    halves = np.empty((2, *shape), dtype=np.uint32)
    halves[0] = high
    high *= _P20
    np.subtract(thirds, high, out=halves[1], casting="unsafe")
    quotient = halves // _P10
    quarters = np.empty((2, 2, *shape), dtype=np.uint16)
    quarters[:, 0] = quotient
    quotient *= _P10
    np.subtract(halves, quotient, out=quarters[:, 1], casting="unsafe")
    quarters = quarters.reshape(4, *shape)
    quotient = quarters // 243
    groups[0::2] = quotient
    quotient *= 243
    np.subtract(quarters, quotient, out=groups[1::2], casting="unsafe")


def _group_words(groups: np.ndarray, last: np.ndarray, where) -> np.ndarray:
    """The uint64 words whose digits 5g .. 5g+4, as one base-3 value
    below 243, are the uint8 ``groups[g]`` (g < 8) and whose digit 40 is
    ``last``.  A word that would exceed 2^64 - 1 raises
    ``CorruptDataError`` naming it by ``where(i)``, i its flat index.

    Pairs of groups form uint16 quarters below 3^10, and pairs of quarters
    uint32 halves below 3^20; a word is (high * 3^20 + low) * 3 plus digit
    40, each step in the narrowest type that holds it.  The words are a
    new contiguous array: the uint64 steps run about twice as fast there
    as in a strided view of the caller's output.
    """
    quarters = np.multiply(groups[0::2], np.uint16(243))
    quarters += groups[1::2]
    halves = np.multiply(quarters[0::2], np.uint32(_P10))
    halves += quarters[1::2]
    high, low = halves
    # Below this high half, no word can exceed 2^64 - 1.
    if high.size and int(high.max()) >= _HI_MAX:
        bad = (high > _HI_MAX) | ((high == _HI_MAX) & ((low > _LO_MAX) | ((low == _LO_MAX) & (last > 0))))
        if bad.any():
            i = int(np.argmax(bad))
            value = (int(high.flat[i]) * _P20 + int(low.flat[i])) * 3 + int(last.flat[i])
            raise CorruptDataError(f"word {where(i)} recombines to {value} >= 2**64")
    words = np.multiply(high, np.uint64(_P20))
    words += low
    words *= 3
    words += last
    return words


def _horner5(planes: np.ndarray) -> np.ndarray:
    """The uint8 base-3 value of each position of the five trit planes
    ``planes[0..4]``, plane 0 most significant."""
    packed = planes[0] * np.uint8(3)
    for plane in planes[1:4]:
        packed += plane
        packed *= 3
    packed += planes[4]
    return packed


def _digit_words(planes: np.ndarray, first: int) -> np.ndarray:
    """Inverse of ``_word_planes``: the uint64 words of the digit planes
    (41, count).  A word whose digits exceed 2^64 - 1 raises
    ``CorruptDataError`` naming its index, counted from ``first``."""
    groups = _horner5(planes[:40].reshape(8, 5, -1).transpose(1, 0, 2))
    return _group_words(groups, planes[40], lambda i: first + i)


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


def _pack_interleaved(trits: np.ndarray) -> np.ndarray:
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
    return product.view(np.uint8)[4::8].copy()


def _pack_planar(trits: np.ndarray, split: int = 0) -> np.ndarray:
    """Pack the trits of each row along the last axis planar, one Horner
    step per plane: a row, zero-padded to 5M for M = ceil(count / 5), as
    five planes of M, so byte i is 81*t[i] + 27*t[M+i] + 9*t[2M+i] +
    3*t[3M+i] + t[4M+i].

    With ``split``, a multiple of 5, the first ``split`` trits of a row
    pack so on their own, into split / 5 bytes with no padding, and the
    rest after them; one Horner pass covers both, and every row.
    """
    lead, count = trits.shape[:-1], trits.shape[-1] - split
    g, m = split // 5, -(-count // 5)
    buf = np.empty((*lead, 5, g + m), dtype=np.uint8)
    if g:
        buf[..., :g] = trits[..., :split].reshape(*lead, 5, g)
        rest = np.zeros((*lead, 5 * m), dtype=np.uint8)
        rest[..., :count] = trits[..., split:]
        buf[..., g:] = rest.reshape(*lead, 5, m)
    else:
        flat = buf.reshape(*lead, 5 * m)
        flat[..., :count] = trits
        flat[..., count:] = 0
    return _horner5(np.moveaxis(buf, -2, 0))


def _pack_trits(trits: np.ndarray, version: int) -> np.ndarray:
    """Pack trits 5 per byte in the packing of shard ``version`` 1, 2 or
    3: interleaved for versions 1 and 2, planar for version 3."""
    return _pack_interleaved(trits) if version < 3 else _pack_planar(trits)


def _group_bytes(stripes: int, n: int) -> int:
    """Bytes of a version-4 shard's group region: the eight groups of
    five digits of each of its N rows in each of its ``stripes // 41``
    whole blocks."""
    return 8 * (stripes // _WORD_TRITS) * n


def _peel(packed: np.ndarray, planes: np.ndarray, last: np.ndarray) -> None:
    """Unpack planar bytes below 243 into their five digit planes: four
    uint8 division rounds write place values 81, 27, 9 and 3 into
    ``planes[0..3]``, each leaving its remainder in ``last``."""
    step = np.empty(packed.shape, dtype=np.uint8)
    rest = packed
    for plane, place in zip(planes, (81, 27, 9, 3)):
        np.floor_divide(rest, place, out=plane)
        np.multiply(plane, place, out=step)
        np.subtract(rest, step, out=last)
        rest = last


# Packed bytes from which a planar payload is peeled rather than looked up.
_PEEL_BYTES = 2048


def _check_bytes(packed: np.ndarray) -> None:
    if packed.size and int(packed.max()) >= 243:
        raise ShardFormatError("payload byte >= 243 cannot encode 5 trits")


def _unpack_trits(packed, out: np.ndarray, version: int, before: int) -> None:
    """Unpack into the flat uint8 ``out`` the first ``out.size`` trits of
    the bytes ``packed`` (any buffer) that ``_pack_trits`` packed for
    shard ``version``.  A byte >= 243, too short a payload, or a nonzero
    trit past ``out.size`` in the packer's trit order (which it never
    writes) raises ``ShardFormatError`` before anything is written.  The
    messages count ``before`` more trits, those of the shard that precede
    ``out``'s, as in a version-4 tail.

    Only the bytes that hold padding trits, at most four, are unpacked
    apart, through a table; the rest go straight into ``out``.
    Interleaved bytes are one whole-row lookup: each byte takes its 5
    trits from ``_PACKED_TO_TRITS``, 1,215 read-only bytes built at
    import, which stay in L1 cache from shard to shard.  Each output byte
    is written once, so the result does not depend on the order numpy
    writes rows in.  Every index is in range, so ``clip`` never clips; it
    only lets the take write into ``out`` directly.

    Planar bytes are peeled by ``_peel``, all in contiguous uint8 passes.
    The padding is the end of the last plane, the place-1 digits of the
    last bytes.  A payload of fewer than ``_PEEL_BYTES`` bytes, such as a
    version-4 tail, is instead one lookup in ``_PACKED_PLANES``, the same
    table as five planes: the peel's dozen or so numpy calls cost more
    than the lookup there, which also covers a payload whose planes are
    shorter than its padding.
    """
    packed = np.frombuffer(packed, dtype=np.uint8)
    _check_bytes(packed)
    count, m = out.size, packed.size
    if 5 * m < count:
        raise ShardFormatError(f"payload holds {before + 5 * m} trits, header claims {before + count}")
    padding = f"payload has a nonzero padding trit past trit {before + count}"
    if version >= 3 and m >= _PEEL_BYTES and count > 4 * m:
        head = count - 4 * m
        tail = _PACKED_PLANES.take(packed[head:], axis=1)
        if tail[4].any():
            raise ShardFormatError(padding)
        planes = out[: 4 * m].reshape(4, m)
        planes[:, head:] = tail[:4]
        _peel(packed[:head], planes[:, :head], out[4 * m :])
    elif version >= 3:
        planes = _PACKED_PLANES.take(packed, axis=1).reshape(-1)
        if planes[count:].any():
            raise ShardFormatError(padding)
        out[:] = planes[:count]
    else:
        head = count // 5
        tail = _PACKED_TO_TRITS[packed[head:]].view(np.uint8)
        if tail[count - 5 * head :].any():
            raise ShardFormatError(padding)
        out[5 * head :] = tail[: count - 5 * head]
        np.take(_PACKED_TO_TRITS, packed[:head], out=out[: 5 * head].view(_PACKED_TO_TRITS.dtype), mode="clip")


# ---------------------------------------------------------------------------
# Ingest / extract
# ---------------------------------------------------------------------------

# The shard version encode writes, in the byte layout ingest writes;
# extract and the shard reader also take versions 1 to 3.
SHARD_VERSION = 4
_SHARD_VERSIONS = (1, 2, 3, 4)


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


# Trits per codec block of the version-1 reader: it converts the stream a
# few stripes at a time, so it lays out no file-sized copy of it.
_BLOCK_TRITS = 1 << 18
# Words that ingest and extract handle at a time: of all k parts in ingest
# and in extract's versions 2 and 3, of one part in extract's version 4.
_GROUP_WORDS = 1 << 14


def _file_words(view: memoryview, w0: int, w1: int) -> np.ndarray:
    """Words [w0, w1) of the bytes ``view``, zero-padded past its end."""
    if 8 * w1 <= len(view):
        return np.frombuffer(view[8 * w0 : 8 * w1], dtype=_WORD)
    words = np.zeros(w1 - w0, dtype=_WORD)
    words.view(np.uint8)[: len(view) - 8 * w0] = np.frombuffer(view[8 * w0 :], dtype=np.uint8)
    return words


def _word_planes(words: np.ndarray, planes: np.ndarray) -> None:
    """Write the base-3 digits of each word into ``planes`` (41,
    len(words)): plane d gets digit d of every word."""
    groups = np.empty((8, words.shape[0]), dtype=np.uint8)
    _word_groups(words, groups, planes[40])
    digits = planes[:40].reshape(8, 5, -1).transpose(1, 0, 2)
    _peel(groups, digits[:4], digits[4])


def _geometry(params: CodeParams, size: int) -> tuple[int, int, int]:
    """(stripes, B, R) of a file of ``size`` bytes: its stripes, their
    whole blocks and the blocks of a run of ingest and encode, at most B
    (``_block_runs``)."""
    stripes = _stripe_count(params, -(-size // 8))
    blocks = stripes // _WORD_TRITS
    return stripes, blocks, min(blocks, max(1, _GROUP_WORDS // params.file_symbols))


def _block_runs(blocks: int, block_words: int):
    """(b0, b1) of each run of blocks [0, blocks) that holds about
    ``_GROUP_WORDS`` words, at least one block of ``block_words``."""
    step = max(1, _GROUP_WORDS // block_words)
    for b0 in range(0, blocks, step):
        yield b0, min(blocks, b0 + step)


def _run_groups(params: CodeParams, view: memoryview, b0: int, groups: np.ndarray, last: np.ndarray) -> None:
    """The run stage of ingest and encode: write the groups of each word
    of the whole blocks from ``b0`` of the file bytes ``view`` into
    ``groups`` (k, 8, blocks, N), a run of the data shards' group
    regions, and their digit 40 into ``last`` (k, blocks, N)."""
    k, n, kn = params.k, params.n_rows, params.file_symbols
    blocks = groups.shape[2]
    run = _file_words(view, b0 * kn, (b0 + blocks) * kn).reshape(blocks, k, n)
    _word_groups(run.transpose(1, 0, 2), groups.swapaxes(0, 1), last)


def _partial_block(params: CodeParams, view: memoryview, blocks: int, rest: np.ndarray) -> None:
    """Write the stripes of the words of ``view`` past ``blocks`` whole
    blocks, digit-major and zero-padded, into ``rest`` (k, stripes, N)."""
    k, n, kn = params.k, params.n_rows, params.file_symbols
    if rest.shape[1]:
        w0, words = kn * blocks, -(-len(view) // 8)
        stream = np.zeros(rest.shape[1] * kn, dtype=np.uint8)
        _word_planes(_file_words(view, w0, words), stream[: _WORD_TRITS * (words - w0)].reshape(_WORD_TRITS, -1))
        rest[...] = stream.reshape(-1, k, n).transpose(1, 0, 2)


def ingest(params: CodeParams, data: bytes) -> tuple[np.ndarray, FileMeta]:
    """Split a byte string into parts of shape (k, stripes, N) in version
    4's word layout (see the module docstring).

    An empty file still occupies one all-zero stripe.  Whole blocks go
    through encode's run stage (``_run_groups``) a run at a time, digit
    40 straight into the parts, and each run's groups are peeled into
    runs of contiguous rows of the parts; the last partial block goes
    through a stream buffer.
    """
    k, n, kn = params.k, params.n_rows, params.file_symbols
    stripes, blocks, step = _geometry(params, len(data))
    parts = np.empty((k, stripes, n), dtype=np.uint8)
    # digit 5g+i of part j's row r of block b, as [i, g, j, b, r]
    digits = parts[:, : 40 * blocks].reshape(k, 5, 8, blocks, n).transpose(1, 2, 0, 3, 4)
    tails = parts[:, 40 * blocks :]
    groups = np.empty((k, 8, step, n), dtype=np.uint8)
    view = memoryview(data)
    for b0, b1 in _block_runs(blocks, kn):
        run = groups[:, :, : b1 - b0]
        _run_groups(params, view, b0, run, tails[:, b0:b1])
        run_digits = digits[:, :, :, b0:b1]
        _peel(run.swapaxes(0, 1), run_digits[:4], run_digits[4])
    _partial_block(params, view, blocks, tails[:, blocks:])
    return parts, FileMeta(len(data), stripes)


@dataclass(frozen=True)
class EncodedFile:
    """A file as ``zigzag3 encode`` writes it, in version 4's layout.

    ``groups`` (k+2, 8, B, N) is byte for byte the group region of each
    node's shard, and ``tails`` (k+2, stripes - 40B, N) the trits of each
    shard's tail: digit 40 of every whole block, then the last partial
    block.  ``stage_seconds`` holds ``ingest``, the data shards' groups
    and tails, and ``parities``.
    """

    params: CodeParams
    meta: FileMeta
    groups: np.ndarray
    tails: np.ndarray
    stage_seconds: dict[str, float]

    def shards(self) -> list[tuple[list, int]]:
        """Each node's shard file as its pieces, flat byte buffers (its
        header, its group region, its packed tail and its CRC trailer),
        and its payload CRC32.  Only the tails are packed here, all in
        one pass."""
        k, stripes = self.params.k, self.meta.stripe_count
        tails = _pack_planar(self.tails.reshape(k + 2, -1))
        shards = []
        for node in range(k + 2):
            regions = [self.groups[node].reshape(-1), tails[node]]
            crc = zlib.crc32(regions[1], zlib.crc32(regions[0]))
            head = _shard_head(self.params, node, stripes, SHARD_VERSION)
            shards.append(([head, *regions, crc.to_bytes(4, "little")], crc))
        return shards


def encode_file(params: CodeParams, data: bytes) -> EncodedFile:
    """Encode ``data`` into the shards ``zigzag3 encode`` writes, a run of
    whole blocks at a time.

    The run stage (``_run_groups``) writes each run's groups into the
    data shards' group regions and its digit 40 into their tails.
    ``_peel`` unpacks the run's groups into a small contiguous digit
    buffer, [i, g, j, b, r]; the run's two parities are summed from it
    (``code._encode_parities``), and packed by one Horner pass into the
    parity shards' group regions.  The last partial block then goes into
    the data shards' tails, and the parities' tails are summed from them.
    So no (k, stripes, N) array of the parts is built, and no trit that
    encode computed is scanned for residues or packed twice.
    """
    k, n, kn = params.k, params.n_rows, params.file_symbols
    stripes, blocks, step = _geometry(params, len(data))
    cm = build_coding_matrices(params)
    groups = np.empty((k + 2, 8, blocks, n), dtype=np.uint8)
    tails = np.empty((k + 2, stripes - 40 * blocks, n), dtype=np.uint8)
    digits = np.empty((5, 8, k, step, n), dtype=np.uint8)
    # the run's parity digits 5g+i of row r of block b, as [p, i, g, b, r]
    parities = np.empty((2, 5, 8, step, n), dtype=np.uint8)
    view = memoryview(data)
    ingest_s = parities_s = 0.0
    for b0, b1 in _block_runs(blocks, kn):
        start = time.perf_counter()
        _run_groups(params, view, b0, groups[:k, :, b0:b1], tails[:k, b0:b1])
        middle = time.perf_counter()
        run, run_parities = digits[:, :, :, : b1 - b0], parities[:, :, :, : b1 - b0]
        _peel(groups[:k, :, b0:b1].swapaxes(0, 1), run[:4], run[4])
        _encode_parities(cm, run.transpose(2, 0, 1, 3, 4), run_parities)
        groups[k:, :, b0:b1] = _horner5(run_parities.swapaxes(0, 1))
        end = time.perf_counter()
        ingest_s += middle - start
        parities_s += end - middle
    start = time.perf_counter()
    _partial_block(params, view, blocks, tails[:k, blocks:])
    middle = time.perf_counter()
    _encode_parities(cm, tails[:k], tails[k:])
    ingest_s += middle - start
    parities_s += time.perf_counter() - middle
    seconds = {"ingest": ingest_s, "parities": parities_s}
    return EncodedFile(params, FileMeta(len(data), stripes), groups, tails, seconds)


def extract(params: CodeParams, parts: np.ndarray, meta: FileMeta) -> bytes:
    """Inverse of ingest: recombine the words of the layout ``meta.version``
    names and strip the padding.

    ``parts`` holds trits 0..2.  Like ``ingest`` it works a few blocks at
    a time, so no temporary is file-sized.
    """
    return extract_array(params, parts, meta).tobytes()


def extract_array(params: CodeParams, parts: np.ndarray, meta: FileMeta, packed=None) -> np.ndarray:
    """``extract``'s bytes as a uint8 array, a view of the recombined
    words, so a caller that only checks and writes them copies nothing.

    Whole blocks recombine through ``_block_words``, the last partial
    block from one transposed copy of its stripes.  In version 4's layout,
    ``packed`` may map a part index to that data shard's packed payload
    (as ``shard_from_bytes`` returns it): the part's whole-block words are
    then recombined from the payload's group region, and its group stripes
    in ``parts`` are not read.
    """
    k, n, kn = params.k, params.n_rows, params.file_symbols
    if parts.shape != (k, meta.stripe_count, n):
        raise ValueError(f"parts shape {parts.shape} != ({k}, {meta.stripe_count}, {n})")
    if meta.version == 1:
        return np.frombuffer(_extract_v1(params, parts, meta), dtype=np.uint8)
    if meta.version not in _SHARD_VERSIONS:
        raise ValueError(f"unsupported shard version {meta.version}")
    size = meta.original_len
    words = -(-size // 8)
    stripes = _stripe_count(params, words)
    if meta.stripe_count < stripes:
        raise CorruptDataError(f"need {stripes} stripes for {size} bytes, got {meta.stripe_count}")
    parts = np.ascontiguousarray(parts, dtype=np.uint8)
    if meta.version == 4:
        # Only the whole blocks the length reaches are read.
        blocks = min(meta.stripe_count // _WORD_TRITS, -(-words // kn))
    else:
        blocks = words // kn
    whole = kn * blocks
    out = np.empty(max(words, whole), dtype=_WORD)
    _block_words(params, parts, out[:whole].reshape(blocks, k, n), meta.version, packed or {})
    if whole < words:
        stream = parts[:, _WORD_TRITS * blocks : stripes].transpose(1, 0, 2).reshape(-1)
        out[whole:words] = _digit_words(stream[: _WORD_TRITS * (words - whole)].reshape(_WORD_TRITS, -1), whole)
    return out.view(np.uint8)[:size]


def _block_words(params: CodeParams, parts: np.ndarray, out: np.ndarray, version: int, packed) -> None:
    """Recombine into ``out`` (blocks, k, N) the words of the first
    ``blocks`` whole blocks of shard ``version``'s layout (2, 3 or 4), a
    few blocks at a time, from their digits 5g+i read as [i, g, b] and
    their digit 40.

    Versions 2 and 3 hold digit d of block b in stripe 41b + d.  A run of
    blocks is copied into [i, g, b, j] order first, each stripe of part j
    as one opaque N-byte row, so the Horner pass is contiguous rather than
    N bytes at a time; its words come out in file order, so an overflow
    names the first overflowing word.  Version 4 holds digit 5g+i in
    stripe (8i+g)B + b and digit 40 in stripe 40B + b, contiguous runs of
    blocks, read part by part: part j's groups are the group region of its
    packed payload ``packed[j]`` where given, else one planar Horner pass
    over its group stripes.
    """
    k, n, kn = params.k, params.n_rows, params.file_symbols
    blocks = out.shape[0]
    if version < 4:
        stored = parts[:, : _WORD_TRITS * blocks].reshape(k, blocks, _WORD_TRITS, n)
        rows = stored[:, :, :40].view(np.dtype((np.void, n)))[..., 0]
        digits = rows.reshape(k, blocks, 8, 5).transpose(3, 2, 1, 0)
        last = stored[:, :, 40].transpose(1, 0, 2)
        for b0, b1 in _block_runs(blocks, kn):
            groups = _horner5(np.ascontiguousarray(digits[:, :, b0:b1]).view(np.uint8).reshape(5, 8, -1, k, n))
            out[b0:b1] = _group_words(groups, last[b0:b1], lambda i: b0 * kn + i)
        return
    total = parts.shape[1] // _WORD_TRITS
    for j in range(k):
        if j in packed:
            groups = np.frombuffer(packed[j], dtype=np.uint8, count=8 * total * n).reshape(8, total, n)
        else:
            digits = parts[j, : 40 * total].reshape(5, 8, total, n)
        for b0, b1 in _block_runs(blocks, n):
            chunk = groups[:, b0:b1] if j in packed else _horner5(digits[:, :, b0:b1])
            last = parts[j, 40 * total + b0 : 40 * total + b1]
            out[b0:b1, j] = _group_words(chunk, last, lambda i: (b0 + i // n) * kn + j * n + i % n)


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


def _shard_head(params: CodeParams, node_id: int, stripes: int, version: int) -> bytes:
    """The header of node ``node_id``'s shard of ``stripes`` stripes."""
    return (
        SHARD_MAGIC
        + bytes([version, params.k, node_id])
        + stripes.to_bytes(4, "little")
        + (stripes * params.n_rows).to_bytes(8, "little")
    )


def shard_to_bytes(
    params: CodeParams, node_id: int, payload: np.ndarray, *, version: int = SHARD_VERSION
) -> bytes:
    """Serialize one node's payload (stripes, N), trits taken mod 3, to
    the shard wire format.

    ``version`` sets the header's version byte and the packing: the byte
    tells a reader which byte layout the stripes hold and how the payload
    packs them (see the module docstring).
    """
    if not 0 <= node_id < params.n_nodes:
        raise ValueError(f"node id {node_id} out of range")
    if version not in _SHARD_VERSIONS:
        raise ValueError(f"unsupported shard version {version}")
    stripes, n = payload.shape
    if n != params.n_rows:
        raise ValueError(f"payload row length {n} != {params.n_rows}")
    trits = residues(payload).reshape(-1)
    if version < 4:
        packed = _pack_trits(trits, version)
    else:
        packed = _pack_planar(trits, 5 * _group_bytes(stripes, n))
    crc = zlib.crc32(packed)
    return b"".join([_shard_head(params, node_id, stripes, version), packed, crc.to_bytes(4, "little")])


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


def shard_from_bytes(blob: bytes, out: np.ndarray, header: ShardHeader) -> memoryview:
    """Check a shard whole and unpack its (stripes, N) trits into ``out``,
    a C-contiguous uint8 array of that shape, such as one row of a
    decode's shard stack, all but a version-4 shard's group region.
    ``header`` is ``shard_header(blob)``.  The CRC and the packed bytes
    are all checked before anything is written, and the payload is read
    through a view of ``blob``, never copied.  Returns that view.

    The group region is checked but left packed, and its stripes of
    ``out`` are not written: ``unpack_groups`` unpacks it, and
    ``extract_array`` can recombine the shard's words from the payload as
    it is.
    """
    shape = (header.stripes, header.params.n_rows)
    if out.shape != shape or out.dtype != np.uint8 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous uint8 array of shape {shape}")
    packed = memoryview(blob)[_HEADER_LEN:-4]
    if zlib.crc32(packed) & 0xFFFFFFFF != int.from_bytes(blob[-4:], "little"):
        raise ShardFormatError("payload CRC mismatch")
    # A version-4 tail packs as a version-3 payload of its own.
    data = np.frombuffer(packed, dtype=np.uint8)
    size = _group_bytes(*shape) if header.version == 4 else 0
    _check_bytes(data[:size])
    _unpack_trits(data[size:], out.reshape(-1)[5 * size :], min(header.version, 3), 5 * size)
    return packed


def unpack_groups(packed, out: np.ndarray) -> None:
    """Unpack the group region of a version-4 payload ``packed`` that
    ``shard_from_bytes`` has checked into its stripes of ``out``, the
    shard's (stripes, N) row."""
    size = _group_bytes(*out.shape)
    planes = out.reshape(-1)[: 5 * size].reshape(5, size)
    _peel(np.frombuffer(packed, dtype=np.uint8)[:size], planes[:4], planes[4])


def write_shard_file(path, pieces) -> None:
    """Write a shard file from its pieces (``EncodedFile.shards``),
    one after another with no joined copy: one gathering write, repeated
    for whatever a short write left."""
    views = [memoryview(piece) for piece in pieces]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while views:
            written = os.writev(fd, views)
            while views and written >= len(views[0]):
                written -= len(views.pop(0))
            if views:
                views[0] = views[0][written:]
    finally:
        os.close(fd)


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
