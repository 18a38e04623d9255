"""Property tests of the parity kernels, drawn with hypothesis.

The word gather of ``SignedPermutation.terms`` is compared with a
per-byte gather, the encoder with the row rule, and the decoder with the
parts it started from.  Examples are few and small, so the module runs in
a few seconds; no example database is written.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zigzag3.code import (  # noqa: E402
    CodeParams,
    build_coding_matrices,
    decode_shards_array,
    encode_parts_array,
    second_parity_by_rows,
)
from zigzag3.gf3 import SignedPermutation  # noqa: E402

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
    assert sp._word_xor() == (c if n >= 8 else -1)


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
        assert np.array_equal(decode_shards_array(p, cm, {i: shards[i] for i in nodes}), parts), nodes
