"""Cluster simulation: ingest/extract, shard files, failure and repair."""

import itertools
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from cluster_helpers import decode_available, extract_file, read_shard, unpack_trits
from fixture_sets import CURRENT_SETS, GRID
from layout_oracle import (
    bytes_to_trits,
    digits,
    ingest_v1,
    pack_trits_reference,
    stream_to_parts,
    unpack_trits_reference,
    word_stream,
    word_stream_v4,
    words_of,
)

import zigzag3.cluster as cluster_module
from zigzag3.cluster import (
    SHARD_VERSION,
    ClusterState,
    CorruptDataError,
    FileMeta,
    ShardFormatError,
    _pack_trits,
    byte_capacity,
    extract,
    extract_array,
    ingest,
    shard_from_bytes,
    shard_to_bytes,
    shard_header,
    trits_to_bytes,
    unpack_groups,
)
from zigzag3.code import CodeParams, build_coding_matrices, encode_parts_array
from zigzag3.gf3 import InconsistentSystemError
from zigzag3.repair import expected_repair_io, repair_bandwidth
from zigzag3.verification import flip_one_sign


# ---------------------------------------------------------------------------
# trit mapping and ingest/extract
#
# Version-1 tests write the old layout with the oracle in layout_oracle.py and
# check the program's version-1 reader (trits_to_bytes, extract) on it.
# ---------------------------------------------------------------------------


def test_byte_to_trits_example():
    assert bytes_to_trits(b"\x05").tolist() == [0, 0, 0, 0, 1, 2]
    assert trits_to_bytes(np.array([0, 0, 0, 0, 1, 2], dtype=np.uint8), 1) == b"\x05"


def test_bytes_to_trits_every_byte():
    trits = bytes_to_trits(bytes(range(256)))
    assert trits.dtype == np.uint8 and trits.flags.writeable
    assert trits.tolist() == [t for b in range(256) for t in digits(b, 6)]
    assert trits_to_bytes(trits, 256) == bytes(range(256))


def test_ingest_every_byte_with_padding():
    # Version 1: 256 bytes are 1536 trits; at k = 5 a stripe holds 80, so
    # the last of the 20 stripes is part padding.
    p = CodeParams(5)
    parts, meta = ingest_v1(p, bytes(range(256)))
    assert meta == FileMeta(256, 20, version=1)
    assert parts.dtype == np.uint8 and parts.shape == (5, 20, 16)
    stream = parts.transpose(1, 0, 2).reshape(-1).tolist()
    assert stream == [t for b in range(256) for t in digits(b, 6)] + [0] * 64
    assert extract(p, parts, meta) == bytes(range(256))
    # Versions 2 to 4: the same 32 words, at 80 words per block, are one
    # partial block stored digit-major, 41 * 32 = 1312 trits in 17 stripes.
    parts, meta = ingest(p, bytes(range(256)))
    assert meta == FileMeta(256, 17) and meta.version == SHARD_VERSION == 4
    words = [int.from_bytes(bytes(range(8 * i, 8 * i + 8)), "little") for i in range(32)]
    stream = parts.transpose(1, 0, 2).reshape(-1).tolist()
    assert stream == [digits(w, 41)[d] for d in range(41) for w in words] + [0] * 48
    assert extract(p, parts, meta) == bytes(range(256))


PACKINGS = (2, 3)  # the interleaved and the planar shard version


def test_unpack_every_packed_value():
    trits = unpack_trits(bytes(range(243)), 5 * 243, 2)
    assert trits.tolist() == [t for b in range(243) for t in digits(b, 5)]
    trits = unpack_trits(bytes(range(243)), 5 * 243, 3)
    assert trits.tolist() == [digits(b, 5)[p] for p in range(5) for b in range(243)]
    # 7 trits end in a byte whose last 3 digits are padding: 108 = 11000
    # in base 3 has zero padding, 100 = 10201 does not.
    assert unpack_trits(bytes([242, 108]), 7, 2).tolist() == [2] * 5 + digits(108, 5)[:2]
    with pytest.raises(ShardFormatError, match="padding trit past trit 7"):
        unpack_trits(bytes([242, 100]), 7, 2)
    # Planar, 7 trits fill planes 0-2 of 2 bytes and the first trit of
    # plane 3: the last digit of byte 0 and the last two of byte 1 are
    # padding.  240 = 22220, and 241 = 22221 sets padding.
    assert unpack_trits(bytes([240, 108]), 7, 3).tolist() == [2, 1, 2, 1, 2, 0, 2]
    for data in ([241, 108], [240, 100]):
        with pytest.raises(ShardFormatError, match="padding trit past trit 7"):
            unpack_trits(bytes(data), 7, 3)


def test_unpack_matches_the_reference_at_every_position():
    # Every byte value at every position of payloads of 0-12 bytes, the
    # other bytes random, and one random 67 KB payload (a bulk-k8 shard),
    # in either packing.
    rng = np.random.default_rng(21)
    for length in range(13):
        base = rng.integers(0, 243, size=length, dtype=np.uint8)
        for version in PACKINGS:
            want = unpack_trits_reference(base.tobytes(), version)
            assert np.array_equal(unpack_trits(base.tobytes(), 5 * length, version), want)
            for pos in range(length):
                for value in range(243):
                    data = base.copy()
                    data[pos] = value
                    got = unpack_trits(data.tobytes(), 5 * length, version)
                    want = unpack_trits_reference(data.tobytes(), version)
                    assert np.array_equal(got, want), (length, pos, value, version)
    payload = rng.integers(0, 243, size=67_000, dtype=np.uint8).tobytes()
    for version in PACKINGS:
        got = unpack_trits(payload, 5 * len(payload), version)
        assert np.array_equal(got, unpack_trits_reference(payload, version))


@pytest.mark.parametrize("length", [1, 3, 7, 64, 1001])
def test_unpack_odd_and_even_payloads(length):
    data = np.random.default_rng(length).integers(0, 243, size=length, dtype=np.uint8).tobytes()
    for version in PACKINGS:
        want = unpack_trits_reference(data, version).tolist()
        for count in (5 * length, 5 * length - 1, 5 * length - 4, 0):
            # The same payload with every trit past ``count`` zeroed
            # decodes to the first ``count`` trits; the random one only if
            # that changed nothing.
            trits = np.array(want[:count] + [0] * (5 * length - count), dtype=np.uint8)
            canonical = pack_trits_reference(trits, version)
            got = unpack_trits(canonical, count, version)
            assert got.dtype == np.uint8 and got.tolist() == want[:count]
            if canonical == data:
                assert unpack_trits(data, count, version).tolist() == want[:count]
            else:
                with pytest.raises(ShardFormatError, match="padding trit"):
                    unpack_trits(data, count, version)
        with pytest.raises(ShardFormatError, match="header claims"):
            unpack_trits(data, 5 * length + 1, version)


def test_unpack_rejects_every_padding_trit_of_short_payloads():
    # Up to 20 trits, planar padding reaches planes before the last: 6
    # trits in 2 bytes leave planes 3 and 4 all padding.  Each padding
    # trit is set alone, in either packing.
    rng = np.random.default_rng(24)
    for length in range(1, 26):
        trits = rng.integers(0, 3, length, dtype=np.uint8)
        for version in PACKINGS:
            packed = _pack_trits(trits, version)
            m = len(packed)
            assert np.array_equal(unpack_trits(packed, length, version), trits)
            for pos in range(length, 5 * m):
                byte, place = divmod(pos, 5) if version == 2 else (pos % m, pos // m)
                bad = bytearray(packed)
                bad[byte] += 3 ** (4 - place)
                with pytest.raises(ShardFormatError, match=f"padding trit past trit {length}"):
                    unpack_trits(bytes(bad), length, version)


@pytest.mark.parametrize("length", [4, 5])
def test_unpack_rejects_an_invalid_byte_in_either_place_of_a_pair(length):
    # Every position of an even and an odd payload, the last included; a
    # planar byte holds a trit of every plane.
    for version in PACKINGS:
        for pos in range(length):
            for value in (243, 250, 255):
                data = bytearray([0, 1, 241, 242, 100][:length])
                data[pos] = value
                with pytest.raises(ShardFormatError, match=">= 243"):
                    unpack_trits(bytes(data), 5 * length, version)


@pytest.mark.parametrize("value", range(243, 256))
def test_shard_rejects_packed_byte_out_of_range(value):
    # The CRC is recomputed, so only the range check can refuse the byte.
    p = CodeParams(3)
    payload = np.random.default_rng(value).integers(0, 3, size=(5, 4), dtype=np.uint8)
    blob = shard_to_bytes(p, 1, payload)
    header_len = len(blob) - 4 - 4  # 20 trits pack into 4 payload bytes
    for pos in (header_len, header_len + 2, len(blob) - 5):
        bad = bytearray(blob)
        bad[pos] = value
        packed = bytes(bad[header_len:-4])
        bad[-4:] = (zlib.crc32(packed) & 0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(ShardFormatError, match=">= 243"):
            read_shard(bytes(bad))


def test_trits_roundtrip_all_bytes():
    data = bytes(range(256))
    assert trits_to_bytes(bytes_to_trits(data), 256) == data


def test_trit_group_overflow_is_corruption():
    trits = np.array([2, 2, 2, 2, 2, 2], dtype=np.uint8)  # value 728
    with pytest.raises(CorruptDataError):
        trits_to_bytes(trits, 1)


@pytest.mark.parametrize("k, size", [(2, 40), (2, 64), (3, 97), (4, 256), (4, 263), (5, 1272), (8, 24568)])
def test_words_take_41_digit_planes(k, size):
    # Whole blocks of kN words put one digit plane in each stripe; a last
    # partial block is digit-major and padded.  At k = 2 (4 words a block)
    # 40 bytes are one whole block and one word; 64 bytes are two blocks.
    # From k = 5 a last block of more than 40kN/41 words takes all 41
    # stripes: 1,272 bytes at k = 5 are 80 + 79 words and 24,568 bytes at
    # k = 8 are 2 * 1,024 + 1,023, 82 and 123 stripes, digit-major in
    # version 3 and a zero-padded whole block in version 4.  Ingest writes
    # version 4's stripe order, and extract still reads version 3's.
    p = CodeParams(k)
    data = np.random.default_rng(size).bytes(size)
    parts, meta = ingest(p, data)
    want = word_stream_v4(p, words_of(data))
    assert meta == FileMeta(size, len(want) // p.file_symbols)
    assert parts.transpose(1, 0, 2).reshape(-1).tolist() == want
    old = word_stream(p, words_of(data))
    assert len(old) == len(want)
    assert extract(p, stream_to_parts(p, old), FileMeta(size, meta.stripe_count, 3)) == data
    if size % 8 == 0 and size // 8 % p.file_symbols == 0:
        # every stripe is one digit plane of one block, digit 5g+i of
        # block b in stripe (8i+g)B + b
        blocks = meta.stripe_count // 41
        for s in range(meta.stripe_count):
            place, block = divmod(s, blocks)
            d = 40 if place == 40 else 5 * (place % 8) + place // 8
            words = np.frombuffer(data, dtype="<u8").reshape(-1, p.k, p.n_rows)[block]
            assert parts[:, s].tolist() == [[digits(int(w), 41)[d] for w in row] for row in words]
    assert extract(p, parts, meta) == data


def test_ingest_empty_file():
    p = CodeParams(3)
    parts, meta = ingest(p, b"")
    assert parts.shape == (3, 1, 4)
    assert not parts.any()
    assert meta == FileMeta(0, 1)
    assert extract(p, parts, meta) == b""


@pytest.mark.parametrize("size", [1, 5, 64, 1000, 131072])
def test_ingest_extract_roundtrip(size):
    p = CodeParams(4)
    rng = np.random.default_rng(size)
    data = rng.bytes(size)
    parts, meta = ingest(p, data)
    assert meta.original_len == size
    assert extract(p, parts, meta) == data


@pytest.mark.parametrize("k", [2, 3, 6, 8])
def test_ingest_blocks_match_the_flat_stream(k):
    # 200,003 bytes span several codec blocks at each k, the last one
    # partly padding; at k = 3 and 6 a version-1 block holds a whole
    # number of stripes that is not a power of two.
    p = CodeParams(k)
    data = np.random.default_rng(k).bytes(200_003)
    parts, meta = ingest_v1(p, data)
    stream = parts.transpose(1, 0, 2).reshape(-1)
    n_trits = 6 * len(data)
    assert meta == FileMeta(len(data), -(-n_trits // (k * p.n_rows)), version=1)
    assert np.array_equal(stream[:n_trits], bytes_to_trits(data))
    assert not stream[n_trits:].any()
    assert extract(p, parts, meta) == data


def flat_word_planes(params, data: bytes, version: int) -> np.ndarray:
    """The trit stream of ``data`` in shard ``version`` 3's or 4's layout,
    built in one piece: all digits by 41 successive divisions by 3, then
    each block's planes, or all whole blocks' planes in version 4's
    order."""
    kn = params.file_symbols
    count = -(-len(data) // 8)
    words = np.frombuffer(data + bytes(8 * count - len(data)), dtype="<u8").copy()
    planes = np.empty((41, count), dtype=np.uint8)
    for d in range(40, -1, -1):
        planes[d] = words % 3
        words //= 3
    pieces = [planes[:, b0 : b0 + kn].reshape(-1) for b0 in range(0, count, kn)]
    if version == 4 and count >= kn:
        whole = count - count % kn
        order = [5 * g + i for i in range(5) for g in range(8)] + [40]
        pieces = [planes[order, :whole].reshape(-1), *pieces[whole // kn :]]
    stream = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
    return np.concatenate([stream, np.zeros(-stream.size % kn if stream.size else kn, dtype=np.uint8)])


@pytest.mark.parametrize("k", [2, 3, 6, 8, 10])
def test_word_planes_match_the_flat_stream(k):
    # 200,003 bytes span several codec chunks at each k, and end in a
    # partial block (of fewer than 41 stripes) and a partial word.
    # Ingest writes version 4, and extract reads versions 3 and 4.
    p = CodeParams(k)
    data = np.random.default_rng(k).bytes(200_003)
    parts, meta = ingest(p, data)
    want = flat_word_planes(p, data, 4)
    assert meta == FileMeta(len(data), want.size // p.file_symbols)
    assert np.array_equal(parts.transpose(1, 0, 2).reshape(-1), want)
    assert extract(p, parts, meta) == data
    old = stream_to_parts(p, flat_word_planes(p, data, 3))
    assert extract(p, old, FileMeta(len(data), meta.stripe_count, 3)) == data


@pytest.mark.parametrize("k", range(2, 11))
def test_files_round_trip_through_any_k_shards(k):
    # Bit-exact through encode and decode: every k-subset of the k+2
    # shards up to k = 6, beyond that the first and the last k.
    p = CodeParams(k)
    cm = build_coding_matrices(p)
    if k <= 6:
        subsets = list(itertools.combinations(range(k + 2), k))
    else:
        subsets = [tuple(range(k)), tuple(range(2, k + 2))]
    for size in (0, 1, 7, 8, 9, 17, 1001, 5000, 200_003):
        data = np.random.default_rng(1000 * k + size).bytes(size)
        parts, meta = ingest(p, data)
        shards = encode_parts_array(p, cm, parts)
        for nodes in subsets:
            decoded = decode_available(p, cm, {i: shards[i] for i in nodes})
            assert extract(p, decoded, meta) == data, (size, nodes)


def test_extract_reports_a_corrupt_group_by_its_stream_index():
    p = CodeParams(4)
    per_stripe = p.k * p.n_rows
    parts, meta = ingest_v1(p, bytes(100_000))
    # Group 70,001 lies in the fourth codec block at k = 4.
    for t in range(6 * 70_001, 6 * 70_002):
        s, rest = divmod(t, per_stripe)
        parts[rest // p.n_rows, s, rest % p.n_rows] = 2
    with pytest.raises(CorruptDataError, match="trit group 70001 recombines to 728"):
        extract(p, parts, meta)


@pytest.mark.parametrize(
    "version, word",
    [pytest.param(4, w, id=str(w)) for w in (0, 9_001, 12_499)]
    + [pytest.param(3, w, id=f"{w}-v3") for w in (0, 9_001, 12_499)],
)
def test_extract_reports_an_overflowing_word_by_its_index(version, word):
    # 100,000 bytes are 12,500 words at k = 4, 32 words a block: 390 whole
    # blocks, in version 3's or 4's stripe order, then 20 words of a
    # partial block.  Word 9,001 lies in part 2 of block 281, 12,499 in
    # the partial block.  All-2 digits recombine to 3^41 - 1.
    p = CodeParams(4)
    kn = p.file_symbols
    if version == 4:
        parts, meta = ingest(p, bytes(100_000))
    else:
        parts = stream_to_parts(p, word_stream(p, [0] * 12_500))
        meta = FileMeta(100_000, parts.shape[1], 3)
    blocks = meta.stripe_count // 41
    block, i = divmod(word, kn)
    width = min(kn, 12_500 - block * kn)
    for d in range(41):
        if block < blocks and version == 4:
            s, rest = (40 if d == 40 else 8 * (d % 5) + d // 5) * blocks + block, i
        else:
            s, rest = divmod(41 * block * kn + d * width + i, kn)
        parts[rest // p.n_rows, s, rest % p.n_rows] = 2
    with pytest.raises(CorruptDataError, match=f"word {word} recombines to {3**41 - 1} >= 2\\*\\*64"):
        extract(p, parts, meta)


def test_the_largest_word_round_trips_and_the_next_value_overflows():
    p = CodeParams(2)
    data = b"\xff" * 8
    parts, meta = ingest(p, data)
    assert parts.transpose(1, 0, 2).reshape(-1)[:41].tolist() == digits(2**64 - 1, 41)
    assert extract(p, parts, meta) == data
    # 2^64 shares every digit of 2^64 - 1 but the last: one more there.
    stream = parts.transpose(1, 0, 2).reshape(-1)
    assert stream[40] < 2
    stream[40] += 1
    over = np.ascontiguousarray(stream.reshape(meta.stripe_count, 2, 2).transpose(1, 0, 2))
    with pytest.raises(CorruptDataError, match=f"word 0 recombines to {2**64} >= 2"):
        extract(p, over, meta)


def test_ingest_stripe_geometry():
    p = CodeParams(3)  # 12 trits per stripe
    # Version 1: 2 bytes are 12 trits exactly, 3 bytes 18 trits -> 2 stripes.
    assert ingest_v1(p, b"\x00\x01")[1].stripe_count == 1
    assert ingest_v1(p, b"\x00\x01\x02")[1].stripe_count == 2
    # Version 2: a block is 12 words in 41 stripes; one more word is 41
    # trits, 4 stripes.
    assert ingest(p, bytes(96))[1].stripe_count == 41
    assert ingest(p, bytes(97))[1].stripe_count == 45
    assert ingest(p, b"\x00")[1].stripe_count == 4


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_byte_capacity_is_what_the_stripes_hold(k):
    p = CodeParams(k)
    for stripes in (1, 2, 40, 41, 42, 83, 200):
        v1 = byte_capacity(p, stripes, 1)
        assert ingest_v1(p, bytes(v1))[1].stripe_count <= stripes
        assert ingest_v1(p, bytes(v1 + 1))[1].stripe_count > stripes
        v2 = byte_capacity(p, stripes, 2)
        assert v2 % 8 == 0 and byte_capacity(p, stripes, 3) == byte_capacity(p, stripes, 4) == v2
        assert ingest(p, bytes(v2))[1].stripe_count <= stripes
        assert ingest(p, bytes(v2 + 1))[1].stripe_count > stripes
    with pytest.raises(ValueError, match="version"):
        byte_capacity(p, 1, 5)


@pytest.mark.parametrize("version", [0, 5])
def test_extract_rejects_an_unknown_version(version):
    p = CodeParams(3)
    parts, meta = ingest(p, b"abc")
    with pytest.raises(ValueError, match="version"):
        extract(p, parts, FileMeta(3, meta.stripe_count, version))


@pytest.mark.parametrize("version", [3, 4])
def test_extract_needs_the_stripes_the_length_takes(version):
    p = CodeParams(3)
    data = np.random.default_rng(97).bytes(97)
    if version == 4:
        parts, _ = ingest(p, data)  # 45 stripes
    else:
        parts = stream_to_parts(p, word_stream(p, words_of(data)))
    with pytest.raises(CorruptDataError, match="need 45 stripes"):
        extract(p, parts[:, :44], FileMeta(97, 44, version))
    # Stripes past those the length takes are padding.
    wide = np.concatenate([parts, np.ones((3, 5, 4), dtype=np.uint8)], axis=1)
    assert extract(p, wide, FileMeta(97, 50, version)) == data


def test_codec_temporaries_do_not_grow_with_the_file():
    # Ingest lays out the parts plus one chunk's temporaries; extract its
    # words and the bytes it returns, plus one chunk's.  The chunk margin
    # is the same at 1 MiB and 8 MiB.
    p = CodeParams(8)
    margins = []
    for size in (1 << 20, 8 << 20):
        data = np.random.default_rng(size).bytes(size)
        tracemalloc.start()
        try:
            parts, meta = ingest(p, data)
            ingest_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = extract(p, parts, meta)
            extract_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out == data
        margins.append((ingest_peak - parts.nbytes, extract_peak - 2 * size))
        del parts, out
    for ingest_margin, extract_margin in margins:
        assert ingest_margin < 1 << 20 and extract_margin < 1 << 20, margins


# ---------------------------------------------------------------------------
# shard files
# ---------------------------------------------------------------------------


def make_payload(k=4, stripes=3, seed=0):
    p = CodeParams(k)
    rng = np.random.default_rng(seed)
    return p, rng.integers(0, 3, size=(stripes, p.n_rows), dtype=np.uint8)


def test_shard_roundtrip():
    p, payload = make_payload()
    assert shard_to_bytes(p, 2, payload) == shard_to_bytes(p, 2, payload, version=4)
    for version in (1, 2, 3, 4):
        blob = shard_to_bytes(p, 2, payload, version=version)
        assert blob[:4] == b"ZZG3" and blob[4] == version == shard_header(blob).version
        params, node, got = read_shard(blob)
        assert params.k == 4 and node == 2
        assert np.array_equal(got, payload)


def test_every_shard_version_has_pinned_sets():
    # A shard version lands with checked-in sets: the one encode writes
    # with the k x size grid its tests re-encode, and every readable one
    # with a directory of sets its tests decode and repair.
    # Version 4's sets add k8_20000, the first at k = 8 with whole blocks.
    fixtures = Path(__file__).resolve().parent / "fixtures"
    current = fixtures / f"v{SHARD_VERSION}"
    sets = sorted(d.name for d in current.iterdir() if d.is_dir())
    assert sets == CURRENT_SETS and set(GRID) < set(sets)
    for name in sets:
        k = int(name.removeprefix("k").split("_")[0])
        files = sorted(p.name for p in (current / name).iterdir())
        assert files == ["manifest.json"] + sorted(f"node_{i}.shard" for i in range(k + 2))
    for version in cluster_module._SHARD_VERSIONS:
        directory = fixtures / f"v{version}"
        assert (directory / "README.md").is_file() and any(d.is_dir() for d in directory.iterdir()), version


def test_shard_bytes_reduce_signed_payload():
    _, _, got = read_shard(shard_to_bytes(CodeParams(2), 0, np.array([[-1, 1]])))
    assert got.tolist() == [[2, 1]]


def test_shard_wire_format_is_bit_exact():
    # k=2, node 0, one stripe of trits (1, 2): the packed payload is the
    # single byte 1*81 + 2*27 = 135, then CRC32 of that byte.
    import zlib

    blob = shard_to_bytes(CodeParams(2), 0, np.array([[1, 2]], dtype=np.uint8))
    expected = (
        bytes.fromhex("5a5a4733")          # magic "ZZG3"
        + bytes([4, 2, 0])                 # version, k, node_id
        + (1).to_bytes(4, "little")        # stripe count
        + (2).to_bytes(8, "little")        # payload trit count
        + bytes([135])                     # packed trits
        + (zlib.crc32(bytes([135])) & 0xFFFFFFFF).to_bytes(4, "little")
    )
    assert blob == expected
    # In one byte the packings agree: versions 1 to 3 differ only in their
    # version byte.
    for version in (1, 2, 3):
        old = shard_to_bytes(CodeParams(2), 0, np.array([[1, 2]], dtype=np.uint8), version=version)
        assert old == expected[:4] + bytes([version]) + expected[5:]
    # Three stripes, trits 1 2 0 1 2 2: planar, the planes are (1, 2),
    # (0, 1), (2, 2) and two of padding, so the bytes are 81 + 18 = 99
    # and 162 + 27 + 18 = 207; interleaved, 12012 = 140 and 20000 = 162.
    # Below 41 stripes, version 4 is all tail, planar as version 3.
    payload = np.array([[1, 2], [0, 1], [2, 2]], dtype=np.uint8)
    for version, packed in ((4, [99, 207]), (3, [99, 207]), (2, [140, 162])):
        blob = shard_to_bytes(CodeParams(2), 0, payload, version=version)
        assert blob[4] == version and blob[11:19] == (6).to_bytes(8, "little")
        assert blob[19:-4] == bytes(packed)
        assert np.array_equal(read_shard(blob)[2], payload)


def test_shard_rejects_bad_magic():
    p, payload = make_payload()
    blob = shard_to_bytes(p, 0, payload)
    with pytest.raises(ShardFormatError, match="magic"):
        read_shard(b"XXXX" + blob[4:])


def test_shard_rejects_bad_version():
    p, payload = make_payload()
    blob = bytearray(shard_to_bytes(p, 0, payload))
    for version in (0, 5, 9):
        blob[4] = version
        with pytest.raises(ShardFormatError, match="version"):
            read_shard(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        shard_to_bytes(p, 0, payload, version=5)


def test_shard_rejects_crc_mismatch():
    p, payload = make_payload()
    blob = bytearray(shard_to_bytes(p, 0, payload))
    blob[25] ^= 1  # flip a payload bit
    with pytest.raises(ShardFormatError, match="CRC"):
        read_shard(bytes(blob))


def test_shard_rejects_truncation():
    p, payload = make_payload()
    blob = shard_to_bytes(p, 0, payload)
    with pytest.raises(ShardFormatError):
        read_shard(blob[:-3])


def test_shard_rejects_invalid_packed_byte():
    p, payload = make_payload(stripes=1)
    blob = bytearray(shard_to_bytes(p, 0, payload))
    blob[19] = 250  # >= 243 cannot encode 5 trits
    # recompute nothing: CRC now fails first unless we patch it; patch CRC
    import zlib

    payload_len = len(blob) - 19 - 4
    crc = zlib.crc32(bytes(blob[19 : 19 + payload_len])) & 0xFFFFFFFF
    blob[-4:] = crc.to_bytes(4, "little")
    with pytest.raises(ShardFormatError, match="243"):
        read_shard(bytes(blob))


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_a_refused_shard_writes_nothing_into_its_row(version):
    # Into a row of a stack, a shard unpacks in place; every check runs
    # before the first write, so a refused shard leaves the row as it was.
    p, payload = make_payload(k=4, stripes=7, seed=version)
    blob = shard_to_bytes(p, 1, payload, version=version)
    stack = np.full((6, 7, p.n_rows), 0xA5, dtype=np.uint8)

    def with_crc(data):
        data = bytearray(data)
        data[-4:] = zlib.crc32(bytes(data[19:-4])).to_bytes(4, "little")
        return bytes(data)

    padded = bytearray(blob)
    padded[-5] += 1  # 56 trits in 12 bytes: the last byte holds padding in either packing
    refused = {
        "magic": b"XXXX" + blob[4:],
        "version": blob[:4] + bytes([7]) + blob[5:],
        "length": blob[:-1],
        "CRC": blob[:19] + bytes([blob[19] ^ 1]) + blob[20:],
        "243": with_crc(blob[:19] + bytes([250]) + blob[20:]),
        "padding": with_crc(padded),
    }
    for reason, bad in refused.items():
        with pytest.raises(ShardFormatError):
            shard_from_bytes(bad, stack[1], shard_header(bad))
        assert (stack == 0xA5).all(), reason
    with pytest.raises(ValueError, match="out must be"):
        shard_from_bytes(blob, stack[1, :6], shard_header(blob))
    assert (stack == 0xA5).all()
    shard_from_bytes(blob, stack[1], shard_header(blob))
    assert np.array_equal(stack[1], payload) and (stack[[0, 2, 3, 4, 5]] == 0xA5).all()


def test_a_v4_group_byte_is_five_digits_of_one_word():
    # k = 2, 4 words: one whole block in 41 stripes.  Node 0 holds words 0
    # and 1 in rows 0 and 1; group byte g*N + r is digits 5g .. 5g+4 of
    # word r, and the tail (stripe 40, the digits 40) packs planar as one
    # byte.
    p = CodeParams(2)
    data = np.random.default_rng(4).bytes(32)
    parts, meta = ingest(p, data)
    assert meta.stripe_count == 41
    blob = shard_to_bytes(p, 0, parts[0])
    words = np.frombuffer(data, dtype="<u8").tolist()
    want = [int(words[r]) // 3 ** (36 - 5 * g) % 243 for g in range(8) for r in range(2)]
    assert list(blob[19:35]) == want
    assert blob[35:-4] == bytes([81 * (words[0] % 3) + 27 * (words[1] % 3)])


def v4_set(k=4, size=2_800, seed=9):
    """Parts, meta, shards and shard blobs of a file of whole blocks and a
    partial one (at k = 4: 10 blocks of 32 words, then 30 words in 39
    stripes)."""
    p = CodeParams(k)
    data = np.random.default_rng(seed).bytes(size)
    parts, meta = ingest(p, data)
    shards = encode_parts_array(p, build_coding_matrices(p), parts)
    return p, data, meta, shards, [shard_to_bytes(p, i, shards[i]) for i in range(k + 2)]


def with_crc(data) -> bytes:
    data = bytearray(data)
    data[-4:] = zlib.crc32(bytes(data[19:-4])).to_bytes(4, "little")
    return bytes(data)


def test_a_v4_shard_is_checked_whole_but_leaves_its_groups_packed():
    p, data, meta, shards, blobs = v4_set()
    stripes, n = meta.stripe_count, p.n_rows
    region = 40 * (stripes // 41)
    row = np.full((stripes, n), 0xA5, dtype=np.uint8)
    payload = shard_from_bytes(blobs[1], row, shard_header(blobs[1]))
    assert bytes(payload) == blobs[1][19:-4]
    assert (row[:region] == 0xA5).all() and np.array_equal(row[region:], shards[1][region:])
    unpack_groups(payload, row)
    assert np.array_equal(row, shards[1])
    # A byte >= 243 in the group region, or a padding trit in the tail, is
    # refused with the group region left packed, before anything is written.
    padded = bytearray(blobs[1])
    padded[-5] += 1  # a tail of 392 trits in 79 bytes: the last holds padding
    for reason, bad in {"243": with_crc(blobs[1][:30] + bytes([243]) + blobs[1][31:]),
                        "padding trit past trit 3592": with_crc(padded)}.items():
        row[...] = 0xA5
        with pytest.raises(ShardFormatError, match=reason):
            shard_from_bytes(bad, row, shard_header(bad))
        assert (row == 0xA5).all()


def test_extract_array_recombines_words_from_packed_payloads():
    # The group stripes of the parts whose payloads are given are never
    # read; those of the others are packed from the parts.
    p, data, meta, shards, blobs = v4_set()
    region = 40 * (meta.stripe_count // 41)
    parts = shards[: p.k].copy()
    packed = {j: memoryview(blobs[j])[19:-4] for j in (0, 2)}
    parts[[0, 2], :region] = 7
    got = extract_array(p, parts, meta, packed)
    assert got.dtype == np.uint8 and got.tobytes() == data
    assert extract(p, shards[: p.k], meta) == data


def test_an_overflowing_word_in_a_packed_payload_is_named():
    # Groups 242, 242, ... recombine to 3^41 - 1 with digit 40 = 2.  Word
    # 45 of the file is row 5 of part 1 in block 1, 32 + 8 + 5 (32 words a
    # block, 8 a row).
    p, data, meta, shards, blobs = v4_set()
    blocks, n = meta.stripe_count // 41, p.n_rows
    packed = np.frombuffer(blobs[1], dtype=np.uint8)[19:-4].copy()
    packed.reshape(-1)[: 8 * blocks * n].reshape(8, blocks, n)[:, 1, 5] = 242
    parts = shards[: p.k].copy()
    parts[1, 40 * blocks + 1, 5] = 2
    with pytest.raises(CorruptDataError, match=f"word 45 recombines to {3**41 - 1} >= 2"):
        extract_array(p, parts, meta, {1: packed})


# ---------------------------------------------------------------------------
# cluster failure / repair
# ---------------------------------------------------------------------------


def fresh_cluster(k=3, size=40, seed=1):
    rng = np.random.default_rng(seed)
    return ClusterState.from_bytes(CodeParams(k), rng.bytes(size))


def test_parity_repair_meters_k3():
    cl = ClusterState.from_bytes(CodeParams(3), b"")
    cl.fail_node(3)
    rep = cl.repair_node(3)
    assert rep.method == "parity-plan"
    assert rep.reads_per_node == {0: 3, 1: 3, 2: 3, 4: 4}
    assert rep.total_reads == 13 and rep.expected_reads == 13 and rep.matches_expectation
    assert rep.total_sent == 8


def test_parity_repair_meters_k4_second_parity():
    cl = ClusterState.from_bytes(CodeParams(4), b"")
    cl.fail_node(5)
    rep = cl.repair_node(5)
    assert rep.total_reads == 36 and rep.matches_expectation


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_meter_law_per_parity_repair(k):
    p = CodeParams(k)
    cl = fresh_cluster(k=k, size=60, seed=k)
    stripes = cl.meta.stripe_count
    for parity in (k, k + 1):
        cl.fail_node(parity)
        rep = cl.repair_node(parity)
        assert rep.stripes == stripes and set(rep.reads_per_node) == set(range(k + 2)) - {parity}
        assert rep.total_reads == sum(rep.reads_per_node.values()) == stripes * expected_repair_io(p, parity)
        assert rep.total_sent == stripes * repair_bandwidth(p)


def test_systematic_repair_is_fallback():
    # A lost data node takes the zigzag plan: every helper reads and sends
    # N/2 symbols per stripe.
    cl = fresh_cluster()
    p, stripes = cl.params, cl.meta.stripe_count
    original = cl.nodes[1].payload.copy()
    cl.fail_node(1)
    rep = cl.repair_node(1)
    assert rep.method == "data-plan"
    assert rep.reads_per_node == {h: stripes * p.n_rows // 2 for h in (0, 2, 3, 4)}
    assert rep.total_reads == rep.expected_reads == rep.total_sent == stripes * repair_bandwidth(p)
    assert rep.matches_expectation
    assert np.array_equal(cl.nodes[1].payload, original)


def test_data_node_plan_at_max_k():
    # One stripe at k = 16: a dense (N/2) x N matrix would be 512 MiB, so the
    # data-node plan must stay in gathers.
    cl = ClusterState.from_bytes(CodeParams(16), b"sixteen")
    for node in (0, 15):
        original = cl.nodes[node].payload.copy()
        cl.fail_node(node)
        rep = cl.repair_node(node)
        assert rep.method == "data-plan" and rep.total_reads == 17 * (1 << 14)
        assert np.array_equal(cl.nodes[node].payload, original)
    assert extract_file(cl) == b"sixteen"


@pytest.mark.parametrize("k", range(2, 9))
def test_repairs_and_extract_leave_helper_payloads_unchanged(k):
    # Helpers hand out read-only views, and no repair or decode writes
    # through one: every other node keeps its payload, bit for bit.
    data = np.random.default_rng(40 + k).bytes(300)
    cl = ClusterState.from_bytes(CodeParams(k), data)
    originals = [n.payload.copy() for n in cl.nodes]

    def assert_unchanged(skip=()):
        for i, orig in enumerate(originals):
            if i not in skip:
                assert np.array_equal(cl.nodes[i].payload, orig), (k, i)

    assert not cl.nodes[0].serve().flags.writeable
    for node in range(k + 2):
        cl.fail_node(node)
        cl.repair_node(node)
        assert_unchanged()
    cl.fail_node(k + 1)
    assert extract_file(cl) == data
    assert_unchanged(skip=(k + 1,))


def test_repairs_hand_helpers_read_only_views(monkeypatch):
    # Every repair reads the k+1 other nodes through views that raise on
    # a write, so no repair can change a helper's stored copy.
    seen = []

    def downloads(plan, payloads):
        seen.append((plan.failed_node, {h: x.flags.writeable for h, x in payloads.items()}))
        return real(plan, payloads)

    real = cluster_module.compute_downloads
    monkeypatch.setattr(cluster_module, "compute_downloads", downloads)
    cl = fresh_cluster(k=4)
    n = cl.params.n_nodes
    for node in range(n):
        cl.fail_node(node)
        cl.repair_node(node)
    assert seen == [(node, {h: False for h in range(n) if h != node}) for node in range(n)]


@pytest.mark.parametrize("first", [0, 2, 3, 4])
def test_a_second_failure_is_refused(first):
    # Every repair plan needs all k+1 other nodes, so a cluster holds one
    # failed node at a time.  The refusal changes nothing, the failed node
    # still repairs, and then another node may fail.
    cl = fresh_cluster()
    originals = [n.payload.copy() for n in cl.nodes]
    cl.fail_node(first)
    cl.fail_node(first)  # failing the failed node again is no second failure
    for other in range(cl.params.n_nodes):
        if other != first:
            with pytest.raises(ValueError, match=f"node {first} is already failed"):
                cl.fail_node(other)
            assert cl.failed_nodes == [first]
    assert cl.repair_node(first).matches_expectation
    assert all(np.array_equal(n.payload, o) for n, o in zip(cl.nodes, originals))
    cl.fail_node(1)
    assert cl.failed_nodes == [1]


def test_repairing_a_healthy_node_is_refused():
    cl = fresh_cluster()
    originals = [n.payload.copy() for n in cl.nodes]
    for node in range(cl.params.n_nodes):
        with pytest.raises(ValueError, match=f"node {node} is not failed"):
            cl.repair_node(node)
    cl.fail_node(3)
    with pytest.raises(ValueError, match="node 0 is not failed"):
        cl.repair_node(0)
    assert cl.failed_nodes == [3] and cl._plans == {}
    cl.repair_node(3)
    assert all(np.array_equal(n.payload, o) for n, o in zip(cl.nodes, originals))


@pytest.mark.parametrize("node_id", [-1, -5, 5, 7])
def test_node_ids_out_of_range_rejected(node_id):
    cl = ClusterState.from_bytes(CodeParams(3), b"range check")
    with pytest.raises(ValueError, match="out of range"):
        cl.fail_node(node_id)
    assert cl.failed_nodes == []
    cl.fail_node(4)
    with pytest.raises(ValueError, match="out of range"):
        cl.repair_node(node_id)
    assert cl.failed_nodes == [4]
    # The failed node still repairs through its plan, reading what it plans.
    rep = cl.repair_node(4)
    assert rep.method == "parity-plan" and rep.matches_expectation


def counting_plans(monkeypatch):
    """Record the (node, coding matrices) of every plan the cluster builds."""
    built = []

    def plan(params, cm, node):
        built.append((node, cm))
        return real(params, cm, node)

    real = cluster_module.plan_repair
    monkeypatch.setattr(cluster_module, "plan_repair", plan)
    return built


@pytest.mark.parametrize("k", [2, 3, 5])
def test_repeated_repairs_reuse_one_plan(k, monkeypatch):
    built = counting_plans(monkeypatch)
    cl = fresh_cluster(k=k, size=300, seed=k)
    originals = [n.payload.copy() for n in cl.nodes]
    for node in range(cl.params.n_nodes):
        plans = []
        for attempt in range(3):
            cl.fail_node(node)
            rep = cl.repair_node(node)
            assert np.array_equal(cl.nodes[node].payload, originals[node]), (node, attempt)
            assert rep.matches_expectation
            # Only the repair that built the plan reports its stage.
            want = {"plan", "downloads", "solve"} if attempt == 0 else {"downloads", "solve"}
            assert set(rep.stage_seconds) == want, (node, attempt)
            plans.append(cl._plans[node])
        assert plans[0] is plans[1] is plans[2]
    assert [node for node, _ in built] == list(range(k + 2))


def test_replaced_coding_matrices_never_meet_a_stale_plan(monkeypatch):
    built = counting_plans(monkeypatch)
    cl = fresh_cluster(k=4, size=200)
    healthy = cl.cm
    parity = cl.params.k
    cl.fail_node(parity)
    cl.repair_node(parity)
    # A flipped sign breaks the parity plan: the repair must replan and fail.
    cl.cm = flip_one_sign(healthy)
    cl.fail_node(parity)
    with pytest.raises(InconsistentSystemError):
        cl.repair_node(parity)
    assert built[-1] == (parity, cl.cm)
    # Back on the healthy set, a fresh plan rebuilds the node.
    original = cl.nodes[0].payload.copy()
    cl.cm = healthy
    rep = cl.repair_node(parity)
    assert "plan" in rep.stage_seconds and built[-1] == (parity, healthy)
    cl.fail_node(0)
    assert "plan" in cl.repair_node(0).stage_seconds
    assert np.array_equal(cl.nodes[0].payload, original)
    assert [node for node, _ in built] == [parity, parity, parity, 0]


def test_from_bytes_builds_no_plan(monkeypatch):
    built = counting_plans(monkeypatch)
    cl = fresh_cluster(k=4)
    assert built == [] and cl._plans == {}


def test_repair_reports_stage_seconds():
    cl = fresh_cluster()
    cl.fail_node(cl.params.k)
    rep = cl.repair_node(cl.params.k)
    assert set(rep.stage_seconds) == {"plan", "downloads", "solve"}
    assert all(t >= 0 for t in rep.stage_seconds.values())
    cl.fail_node(0)
    rep = cl.repair_node(0)
    assert set(rep.stage_seconds) == {"plan", "downloads", "solve"}


def test_the_plan_stage_builds_the_shard_layout_forms(monkeypatch):
    # A data plan's shard-layout forms are built while the plan stage is
    # timed, so the first repair's downloads stage costs what a later
    # one's does; a parity plan never builds them.
    seen = []

    def downloads(plan, payloads):
        seen.append((plan.failed_node, "_gathers" in vars(plan)))
        return real(plan, payloads)

    real = cluster_module.compute_downloads
    monkeypatch.setattr(cluster_module, "compute_downloads", downloads)
    cl = fresh_cluster(k=4, size=200)
    for node in range(cl.params.n_nodes):
        cl.fail_node(node)
        assert "plan" in cl.repair_node(node).stage_seconds
    assert seen == [(node, node < cl.params.k) for node in range(cl.params.n_nodes)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_durability_exhaustive_patterns(k):
    p = CodeParams(k)
    rng = np.random.default_rng(500 + k)
    data = rng.bytes(30)
    for nid in range(p.n_nodes):
        cl = ClusterState.from_bytes(p, data)
        before = [n.payload.copy() for n in cl.nodes]
        cl.fail_node(nid)
        cl.repair_node(nid)
        for i in range(p.n_nodes):
            assert np.array_equal(cl.nodes[i].payload, before[i]), (nid, i)
        assert extract_file(cl) == data


def test_determinism_same_commands_same_state():
    def run():
        cl = fresh_cluster(k=4, size=100, seed=9)
        reports = []
        for node in (4, 0):
            cl.fail_node(node)
            rep = cl.repair_node(node)
            reports.append((rep.method, rep.reads_per_node, rep.total_reads, rep.total_sent))
        return [n.payload.tobytes() for n in cl.nodes], reports

    assert run() == run()
