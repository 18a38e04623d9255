"""Property tests of the parity kernels and the byte codec, drawn with
hypothesis.

The word gather of ``SignedPermutation.terms`` is compared with a
per-byte gather, the encoder with the row rule, and the decoder with the
parts it started from.  The codec is compared with the Python-int layout
oracles of versions 2 and 4 in ``layout_oracle.py``, and both packings,
interleaved and planar, with the Horner references there.  Examples are
few and small, so the module runs in a few seconds; no example database
is written.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cluster_helpers import decode_available, unpack_trits  # noqa: E402
from layout_oracle import (  # noqa: E402
    digits,
    pack_trits_reference,
    stream_to_parts,
    word_stream,
    word_stream_v4,
    words_of,
)

from zigzag3.cluster import (  # noqa: E402
    CorruptDataError,
    FileMeta,
    ShardFormatError,
    _pack_trits,
    extract,
    ingest,
)
from zigzag3.code import (  # noqa: E402
    CodeParams,
    build_coding_matrices,
    encode_parts_array,
)
from zigzag3.gf3 import SignedPermutation  # noqa: E402
from zigzag3.verification import second_parity_by_rows  # noqa: E402

FEW = settings(max_examples=30, deadline=None, database=None)

SHAPES = ("1-d", "stripes", "3-d", "empty", "rows-step", "columns-step", "reversed")


def operand(rng, shape_kind: str, n: int, signed: bool) -> np.ndarray:
    """An operand of last axis n: uint8 residues, or an int8 partial sum
    with negative entries, laid out as ``shape_kind`` says."""

    def draw(*shape):
        if signed:
            return rng.integers(-100, 101, size=shape).astype(np.int8)
        return rng.integers(0, 3, size=shape, dtype=np.uint8)

    if shape_kind == "1-d":
        return draw(n)
    if shape_kind == "stripes":
        return draw(5, n)
    if shape_kind == "3-d":
        return draw(2, 3, n)
    if shape_kind == "empty":
        return draw(0, n)
    if shape_kind == "rows-step":  # last axis contiguous, rows strided
        return draw(6, n)[::2]
    if shape_kind == "columns-step":  # last axis strided
        return draw(3, 2 * n)[:, ::2]
    return draw(4, n)[:, ::-1]


@pytest.mark.parametrize("k", range(2, 13))
@FEW
@given(
    c_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    shape_kind=st.sampled_from(SHAPES),
    signed=st.booleans(),
)
def test_word_gather_equals_the_byte_gather(k, c_seed, seed, shape_kind, signed):
    n = 1 << (k - 1)
    c = c_seed % n
    rng = np.random.default_rng(seed)
    sp = SignedPermutation(np.arange(n) ^ c, rng.choice([-1, 1], size=n))
    x = operand(rng, shape_kind, n, signed)
    want = np.take(x.view(np.int8), sp.target, axis=-1) * sp.sign
    got = sp.terms(x)
    assert got.dtype == np.int8 and got.shape == x.shape
    assert np.array_equal(got, want)
    assert sp._word_xor() == c


@FEW
@given(k=st.integers(2, 9), stripes=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_encoder_equals_the_row_rule(k, stripes, seed):
    p = CodeParams(k)
    parts = np.random.default_rng(seed).integers(0, 3, size=(k, stripes, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, build_coding_matrices(p), parts)
    assert np.array_equal(shards[k + 1], second_parity_by_rows(p, parts))


@pytest.mark.parametrize("k", range(2, 7))
@settings(max_examples=10, deadline=None, database=None)
@given(stripes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_every_k_subset_decodes_to_the_parts(k, stripes, seed):
    p = CodeParams(k)
    cm = build_coding_matrices(p)
    parts = np.random.default_rng(seed).integers(0, 3, size=(k, stripes, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for nodes in itertools.combinations(range(k + 2), k):
        assert np.array_equal(decode_available(p, cm, {i: shards[i] for i in nodes}), parts), nodes


@st.composite
def file_lengths(draw):
    """(k, byte length): any length up to three blocks of kN words, or one
    that sits on a block edge (exactly one block, or one word either side)."""
    k = draw(st.integers(2, 8))
    block = 8 * k * (1 << (k - 1))
    edge = draw(st.sampled_from([block - 8, block, block + 8]))
    length = draw(st.one_of(st.integers(0, 3 * block), st.just(edge), st.integers(edge - 7, edge + 7)))
    return k, max(0, length)


@FEW
@given(shape=file_lengths(), seed=st.integers(0, 2**32 - 1))
def test_word_codec_round_trips_and_matches_the_oracle(shape, seed):
    k, length = shape
    p = CodeParams(k)
    data = np.random.default_rng(seed).bytes(length)
    parts, meta = ingest(p, data)
    want = stream_to_parts(p, word_stream_v4(p, words_of(data)))
    assert np.array_equal(parts, want)
    assert extract(p, want, meta) == data
    old = stream_to_parts(p, word_stream(p, words_of(data)))
    assert extract(p, old, FileMeta(length, meta.stripe_count, 3)) == data
    # The stripe count, from the word count W and a block of kN words.
    words, kn = -(-length // 8), k * p.n_rows
    assert meta == FileMeta(length, max(1, 41 * (words // kn) + -(-41 * (words % kn) // kn)))


@FEW
@given(
    k=st.integers(2, 6),
    words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80),
    pick=st.integers(0, 2**32 - 1),
    value=st.integers(2**64, 3**41 - 1),
)
def test_an_overflowing_word_is_reported_by_its_index(k, words, pick, value):
    # Any digit pattern above 2^64 - 1, in any word of whole or partial
    # blocks, is corruption named by that word's index, in the layouts of
    # versions 3 and 4.
    p = CodeParams(k)
    bad = pick % len(words)
    assert int("".join(map(str, digits(value, 41))), 3) == value
    for version, layout in ((3, word_stream), (4, word_stream_v4)):
        stream = layout(p, words[:bad] + [value] + words[bad + 1 :])
        meta = FileMeta(8 * len(words), len(stream) // p.file_symbols, version)
        with pytest.raises(CorruptDataError, match=f"word {bad} recombines to {value} "):
            extract(p, stream_to_parts(p, stream), meta)


def trit_operand(rng, length: int, layout: str) -> np.ndarray:
    """``length`` random trits, contiguous or as a strided view."""
    if layout == "contiguous":
        return rng.integers(0, 3, length, dtype=np.uint8)
    if layout == "column":
        return rng.integers(0, 3, (length, 3), dtype=np.uint8)[:, 1]
    return rng.integers(0, 3, length, dtype=np.uint8)[::-1]


PACKINGS = (2, 3)  # the interleaved and the planar shard version


@FEW
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["contiguous", "column", "reversed"]))
def test_packer_equals_the_horner_reference_at_every_short_length(seed, layout):
    # Every length 0..64 ends a group at every place, so the zero padding
    # and the window over it are each hit at every offset, in either
    # packing; up to 20 trits the planar padding reaches earlier planes.
    rng = np.random.default_rng(seed)
    for length in range(65):
        trits = trit_operand(rng, length, layout)
        for version in PACKINGS:
            packed = _pack_trits(trits, version).tobytes()
            assert packed == pack_trits_reference(trits, version), (length, version)
            assert np.array_equal(unpack_trits(packed, length, version), trits)
    assert _pack_trits(np.full(64, 2, dtype=np.uint8), 2).tobytes() == bytes([242] * 12 + [240])
    # 13 planar bytes: planes 0-3 full, plane 4 holding the last 12 trits.
    assert _pack_trits(np.full(64, 2, dtype=np.uint8), 3).tobytes() == bytes([242] * 12 + [240])


@FEW
@given(
    length=st.integers(0, 200_000),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["contiguous", "column", "reversed"]),
)
def test_packer_equals_the_horner_reference_at_any_length(length, seed, layout):
    trits = trit_operand(np.random.default_rng(seed), length, layout)
    for version in PACKINGS:
        packed = _pack_trits(trits, version).tobytes()
        assert packed == pack_trits_reference(trits, version)
        assert np.array_equal(unpack_trits(packed, length, version), trits)


@FEW
@given(
    groups=st.integers(0, 400),
    tail=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, 2**32 - 1),
)
def test_unpack_rejects_a_nonzero_padding_trit(groups, tail, seed, pick):
    # Padding trits are zero as packed, so adding the place value of one
    # of them to its byte sets it and nothing else.  Interleaved, they are
    # the last byte's low digits; planar, the ends of the last planes.
    length = 5 * groups + tail
    trits = np.random.default_rng(seed).integers(0, 3, length, dtype=np.uint8)
    for version in PACKINGS:
        packed = bytearray(_pack_trits(trits, version))
        m = len(packed)
        pos = length + pick % (5 * m - length)
        byte, place = divmod(pos, 5) if version < 3 else (pos % m, pos // m)
        packed[byte] += 3 ** (4 - place)
        with pytest.raises(ShardFormatError, match="padding trit"):
            unpack_trits(bytes(packed), length, version)
