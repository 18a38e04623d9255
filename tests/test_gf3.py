"""GF(3) symbol kernel and matrix tests."""

import itertools

import numpy as np
import pytest

from gf3_oracle import dense, gf3, identity, mul, sub
from zigzag3.gf3 import (
    Gf3ShapeError,
    InconsistentSystemError,
    SignedPermutation,
    SingularMatrixError,
    _row_reduce,
    inverse,
    rank,
    reduce_sum,
    residues,
    solve_left,
    solve_square,
)

ELEMENTS = (0, 1, 2)

# [[0, -1], [1, 0]]: row 0 is -1 at column 1, row 1 is +1 at column 0.
ROTATION = SignedPermutation([1, 0], [-1, 1])


# ---------------------------------------------------------------------------
# matrix basics
# ---------------------------------------------------------------------------


def test_negative_entries_normalize():
    assert solve_square(identity(2), [[0, -1], [1, 0]]).tolist() == [[0, 2], [1, 0]]
    assert rank([[-1, 1], [1, -1]]) == 1


def test_identity_product():
    a = SignedPermutation([2, 0, 1], [1, -1, -1])
    assert SignedPermutation.identity(3) @ a == a == a @ SignedPermutation.identity(3)


def test_rotation_squares_to_minus_identity():
    assert ROTATION @ ROTATION == SignedPermutation.identity(2).negate()
    assert np.array_equal(dense(ROTATION @ ROTATION), [[2, 0], [0, 2]])


def test_matvec_example():
    v = np.array([0, 1], dtype=np.uint8)
    assert reduce_sum(ROTATION.terms(v)).tolist() == [2, 0]


def test_shape_errors():
    with pytest.raises(Gf3ShapeError):
        ROTATION @ SignedPermutation.identity(3)
    with pytest.raises(Gf3ShapeError):
        solve_square([[1, 2]], [[1]])
    with pytest.raises(Gf3ShapeError):
        solve_square(identity(2), [[1, 2, 0]])
    with pytest.raises(Gf3ShapeError):
        solve_left([[1, 2]], [[1, 2, 0]])
    with pytest.raises(Gf3ShapeError):
        rank(np.zeros((2, 2, 2)))


def test_entries_are_read_only():
    # Solutions are read-only uint8 arrays, safe to share.
    for got in (inverse([[1, 2], [0, 1]]), solve_left([[0, 1]], [[0, 2]]), solve_square(identity(2), [[1], [2]])):
        assert got.dtype == np.uint8
        with pytest.raises(ValueError):
            got[0, 0] = 0


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank(np.zeros((4, 4), dtype=np.uint8)) == 0


def test_rank_block_rotation():
    a31 = gf3([[0, 0, 2, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert rank(a31) == 4


def test_rank_stacked_interference_block():
    # Worked 4x4 case: two half-rank blocks that share one row space.
    s = gf3([[0, 1, 0, 2], [0, 0, 1, 1]])
    st = gf3([[1, 1, 1, 0], [0, 0, 0, 1]])
    a0 = identity(4)
    a1 = gf3([[0, 0, 2, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert rank(np.vstack([s, mul(st, sub(a0, a1))])) == 2


def test_rank_transpose_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.integers(0, 3, size=(rng.integers(1, 9), rng.integers(1, 9)))
        assert rank(m) == rank(m.T)


def test_rank_product_bound():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = rng.integers(0, 3, size=(6, 5))
        b = rng.integers(0, 3, size=(5, 7))
        assert rank(mul(a, b)) <= min(rank(a), rank(b))


def nullspace(m):
    """Basis of {x : m @ x = 0}, one vector per column; cols = nullity."""
    a = gf3(m).astype(np.int16)
    pivots = _row_reduce(a, full=True)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((cols, len(free)), dtype=np.int16)
    for idx, f in enumerate(free):
        basis[f, idx] = 1
        for row, p in enumerate(pivots):
            basis[p, idx] = (-a[row, f]) % 3
    return gf3(basis)


def test_nullspace():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.integers(0, 3, size=(4, 7))
        ker = nullspace(m)
        assert ker.shape[1] == m.shape[1] - rank(m)
        if ker.shape[1]:
            assert not mul(m, ker).any()


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_solve_left_identity():
    m = gf3([[1, 2, 0], [0, 1, 1]])
    assert np.array_equal(solve_left(identity(3), m), m)


def test_solve_left_row_vector_example():
    t = solve_left([[0, 1]], [[0, 2]])
    assert t.tolist() == [[2]]


def test_solve_left_outside_row_space():
    with pytest.raises(InconsistentSystemError):
        solve_left([[0, 1]], [[1, 0]])


def test_solve_left_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x = rng.integers(0, 3, size=(3, 6))
        t_true = rng.integers(0, 3, size=(4, 3))
        target = mul(t_true, x)
        t = solve_left(x, target)
        assert np.array_equal(mul(t, x), target)


def test_solve_square_identity():
    b = gf3([[1], [2]])
    assert np.array_equal(solve_square(identity(2), b), b)


def test_solve_square_roundtrip_all_vectors():
    a = gf3([[0, 1], [1, 1]])
    for f in itertools.product(ELEMENTS, repeat=2):
        fv = gf3([[f[0]], [f[1]]])
        assert np.array_equal(solve_square(a, mul(a, fv)), fv)


def test_solve_square_singular():
    with pytest.raises(SingularMatrixError):
        solve_square(np.zeros((2, 2)), np.zeros((2, 1)))


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    found = 0
    while found < 10:
        a = rng.integers(0, 3, size=(5, 5))
        if rank(a) < 5:
            continue
        found += 1
        assert np.array_equal(mul(a, inverse(a)), identity(5))


# ---------------------------------------------------------------------------
# signed permutations
# ---------------------------------------------------------------------------


def test_signed_permutation_terms_match_dense():
    # terms followed by one reduce_sum is the dense product, on uint8
    # residues and on an int8 partial sum, the two inputs decode gives it.
    rng = np.random.default_rng(13)
    sp = SignedPermutation(rng.permutation(8), rng.choice([-1, 1], size=8))
    dense_t = dense(sp).T.astype(np.int64)
    x = rng.integers(0, 3, size=(5, 8), dtype=np.uint8)
    terms = sp.terms(x)
    assert terms.dtype == np.int8
    assert np.array_equal(reduce_sum(terms), (x.astype(np.int64) @ dense_t) % 3)
    partial = rng.integers(-127, 128, size=(3, 5, 8)).astype(np.int8)
    got = reduce_sum(sp.terms(partial))
    assert got.dtype == np.uint8
    assert np.array_equal(got, (partial.astype(np.int64) @ dense_t) % 3)


def test_word_gather_for_every_xor_constant():
    # Every c at N = 64: each word offset c >> 3 and each of the eight
    # lane-reversal combinations for c & 7, on residues and on a partial
    # sum, against the per-byte gather.
    rng = np.random.default_rng(14)
    x = rng.integers(0, 3, size=(3, 64), dtype=np.uint8)
    partial = rng.integers(-127, 128, size=(2, 3, 64)).astype(np.int8)
    for c in range(64):
        sp = SignedPermutation(np.arange(64) ^ c, rng.choice([-1, 1], size=64))
        assert sp._word_xor() == c
        for operand in (x, partial):
            want = np.take(operand.view(np.int8), sp.target, axis=-1) * sp.sign
            assert np.array_equal(sp.terms(operand), want), c


def test_signed_permutation_terms_reject_other_inputs():
    sp = SignedPermutation.identity(4)
    for dtype in (np.int16, np.int64, np.uint16, np.float64):
        with pytest.raises(TypeError):
            sp.terms(np.zeros((2, 4), dtype=dtype))
    with pytest.raises(Gf3ShapeError):
        sp.terms(np.zeros((2, 5), dtype=np.uint8))


def test_residues_reuse_reduced_uint8_and_wrap_negatives():
    x = np.array([0, 1, 2], dtype=np.uint8)
    assert residues(x) is x
    got = residues(np.array([-1, -2, 3, 4, 255]))
    assert got.dtype == np.uint8 and got.tolist() == [2, 1, 0, 1, 0]
    assert residues(np.array([3, 255], dtype=np.uint8)).tolist() == [0, 0]


def test_reduce_sum_every_int8_value():
    acc = np.arange(-128, 128).astype(np.int8)
    assert np.array_equal(reduce_sum(acc), np.mod(np.arange(-128, 128), 3))


def assert_reduces(acc):
    """reduce_sum equals the scalar residue of every entry, in a new
    writable uint8 array of the input's shape."""
    got = reduce_sum(acc)
    assert got.dtype == np.uint8 and got.shape == acc.shape and got.flags.writeable
    assert not np.shares_memory(got, acc)
    want = [v % 3 for v in acc.astype(np.int64).reshape(-1).tolist()]
    assert got.reshape(-1).tolist() == want


def test_reduce_sum_every_ordered_int8_pair():
    a, b = np.meshgrid(np.arange(-128, 128), np.arange(-128, 128), indexing="ij")
    pairs = np.stack([a.reshape(-1), b.reshape(-1)], axis=-1).astype(np.int8)
    assert pairs.shape == (65536, 2)
    assert_reduces(pairs)
    assert_reduces(pairs.reshape(-1))


def test_reduce_sum_odd_last_axis():
    acc = np.random.default_rng(3).integers(-40, 41, size=(7, 5)).astype(np.int8)
    assert_reduces(acc)
    assert_reduces(acc[0])


def test_reduce_sum_transposed_and_strided_views():
    acc = np.random.default_rng(4).integers(-40, 41, size=(16, 8)).astype(np.int8)
    assert_reduces(acc.T)
    assert_reduces(acc[:, ::2])
    assert_reduces(acc[::3, 1:7])


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
def test_reduce_sum_empty(shape):
    assert_reduces(np.zeros(shape, dtype=np.int8))


def test_reduce_sum_output_is_c_contiguous():
    # The result is in C order whatever the layout of the sum, and keeps
    # its shape, none included.
    acc = np.random.default_rng(5).integers(-40, 41, size=(16, 8)).astype(np.int8)
    for view in (acc.T, acc[:, ::2], acc[0]):
        assert reduce_sum(view).flags.c_contiguous
    assert reduce_sum(np.array(-1, dtype=np.int8)).shape == ()


def test_reduce_sum_uint8_sums_below_128():
    assert_reduces(np.arange(128, dtype=np.uint8).reshape(8, 16))
    assert_reduces(np.arange(127, dtype=np.uint8))


def test_signed_permutation_composition_matches_dense():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a, b = (SignedPermutation(rng.permutation(6), rng.choice([-1, 1], size=6)) for _ in range(2))
        assert np.array_equal(dense(a @ b), mul(dense(a), dense(b)))


def test_signed_permutation_inverse():
    rng = np.random.default_rng(14)
    sp = SignedPermutation(rng.permutation(6), rng.choice([-1, 1], size=6))
    assert np.array_equal(mul(dense(sp.inverse()), dense(sp)), identity(6))


def test_signed_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        SignedPermutation([0, 0], [1, 1])
    with pytest.raises(ValueError):
        SignedPermutation([0, 1], [1, 0])


def test_reduce_sum_rejects_wide_sums():
    with pytest.raises(TypeError):
        reduce_sum(np.zeros(4, dtype=np.int16))
