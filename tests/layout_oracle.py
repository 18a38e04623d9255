"""The byte layouts and packings of every shard version, written the plain
way, as test oracles.

Version 1 expanded each byte to its six base-3 digits, most significant
first, and laid the trit stream out in file order: stripe s holds trits
[s*kN, (s+1)*kN), part j of it trits [j*N, (j+1)*N), the last stripe
zero-padded.  The program only reads that layout now
(``zigzag3.cluster.extract`` of a version-1 ``FileMeta``); ``ingest_v1``
writes it, so the tests can check that reader against every byte value,
padding and block boundary.

Version 2 reads little-endian 8-byte words (the last zero-padded) and
stores each block of kN words as its 41 digit planes, digit d of word i of
a block of W words at stream position d*W + i; ``word_stream`` builds that
stream one Python int at a time.

Version 3 keeps the version-2 layout.  Version 4 orders the stripes of
the B whole blocks digit-major, digit 5g+i of block b in stripe
(8i+g)*B + b and digit 40 in stripe 40B + b, where B = stripes // 41, so a
last block that needs all 41 stripes is a whole block of zero-padded
words; ``word_stream_v4`` builds that stream, its last partial block as
``word_stream`` does.  Every version packs a shard's
trits five to a byte, earliest trit in the highest place value.  Versions
1 and 2 pack interleaved, byte i holding trits 5i .. 5i+4:
``pack_trits_horner`` is the five-step Horner loop the program packed
with before it used one word multiply, and ``unpack_trits_by_rows``
unpacks by plain row indexing into the program's digit table.  Version 3
packs planar, byte i holding trits i, M+i, .., 4M+i of the trits
zero-padded to 5M: ``pack_trits_reference`` and ``unpack_trits_reference``
give either packing, the planar one as the interleaved one of the
transposed planes.
"""

import numpy as np

from zigzag3.cluster import FileMeta, _digit_rows
from zigzag3.code import CodeParams


def digits(value: int, count: int) -> list[int]:
    """Base-3 digits of ``value``, most significant first."""
    return [(value // 3**p) % 3 for p in range(count - 1, -1, -1)]


# byte value -> its 6 base-3 digits
BYTE_TO_TRITS = np.array([digits(b, 6) for b in range(256)], dtype=np.uint8)


def bytes_to_trits(data: bytes) -> np.ndarray:
    """The version-1 trit stream of ``data``: 6 trits per byte."""
    return BYTE_TO_TRITS[np.frombuffer(data, dtype=np.uint8)].reshape(-1)


def stream_to_parts(params: CodeParams, stream) -> np.ndarray:
    """Parts (k, stripes, N) of a trit stream of whole stripes."""
    stream = np.asarray(stream, dtype=np.uint8)
    stripes = stream.size // params.file_symbols
    return np.ascontiguousarray(stream.reshape(stripes, params.k, params.n_rows).transpose(1, 0, 2))


def ingest_v1(params: CodeParams, data: bytes) -> tuple[np.ndarray, FileMeta]:
    """Parts (k, stripes, N) of ``data`` in the version-1 layout."""
    trits = bytes_to_trits(data)
    stripes = max(1, -(-trits.shape[0] // params.file_symbols))
    stream = np.zeros(stripes * params.file_symbols, dtype=np.uint8)
    stream[: trits.shape[0]] = trits
    return stream_to_parts(params, stream), FileMeta(len(data), stripes, version=1)


def words_of(data: bytes) -> list[int]:
    """``data`` as little-endian 8-byte words, the last one zero-padded."""
    padded = data + bytes(-len(data) % 8)
    return [int.from_bytes(padded[i : i + 8], "little") for i in range(0, len(padded), 8)]


def word_stream(params: CodeParams, words: list[int]) -> list[int]:
    """The version-2 trit stream of ``words``, padded to whole stripes
    (one stripe at least)."""
    kn = params.file_symbols
    stream = []
    for b0 in range(0, len(words), kn):
        block = [digits(w, 41) for w in words[b0 : b0 + kn]]
        stream += [w[d] for d in range(41) for w in block]
    return stream + [0] * (-len(stream) % kn if stream else kn)


def word_stream_v4(params: CodeParams, words: list[int]) -> list[int]:
    """The version-4 trit stream of ``words``, padded to whole stripes."""
    kn = params.file_symbols
    stripes = len(word_stream(params, words)) // kn
    blocks = stripes // 41
    padded = words + [0] * (blocks * kn - len(words))
    rows = [[digits(w, 41) for w in padded[b * kn : (b + 1) * kn]] for b in range(blocks)]
    stream = []
    for d in [5 * g + i for i in range(5) for g in range(8)] + [40]:
        for block in rows:
            stream += [row[d] for row in block]
    if 41 * blocks < stripes:
        stream += word_stream(params, words[blocks * kn :])
    return stream


def pack_trits_horner(trits: np.ndarray) -> bytes:
    """Pack 5 trits per byte, a last short group zero-padded on the right,
    by a Horner step per stride-5 column."""
    count = trits.shape[0]
    groups = np.zeros((-(-count // 5), 5), dtype=np.uint8)
    groups.reshape(-1)[:count] = trits
    packed = groups[:, 0].copy()
    for c in range(1, 5):
        packed *= 3
        packed += groups[:, c]
    return packed.tobytes()


# packed byte value -> its 5 base-3 digits, one uint8 row per value
PACKED_ROWS = _digit_rows(243, 5).view(np.uint8).reshape(243, 5)


def unpack_trits_by_rows(blob: bytes) -> np.ndarray:
    """All 5 * len(blob) trits of packed bytes < 243, each byte's row of
    ``PACKED_ROWS`` picked by fancy indexing."""
    return PACKED_ROWS[np.frombuffer(blob, dtype=np.uint8)].reshape(-1)


def pack_trits_reference(trits: np.ndarray, version: int) -> bytes:
    """Pack trits as shard ``version`` does: interleaved for versions 1
    and 2; for version 3, the trits zero-padded to 5M are five planes of
    M, and byte i is the Horner value of column i of those planes."""
    if version < 3:
        return pack_trits_horner(trits)
    count = trits.shape[0]
    m = -(-count // 5)
    padded = np.zeros(5 * m, dtype=np.uint8)
    padded[:count] = trits
    return pack_trits_horner(padded.reshape(5, m).T.reshape(-1))


def unpack_trits_reference(blob: bytes, version: int) -> np.ndarray:
    """All 5 * len(blob) trits of bytes < 243 packed as shard ``version``
    does: each byte's row of ``PACKED_ROWS``, laid out in rows for
    versions 1 and 2 and in columns, one plane per place value, for
    version 3."""
    rows = PACKED_ROWS[np.frombuffer(blob, dtype=np.uint8)]
    return (rows if version < 3 else rows.T).reshape(-1)
