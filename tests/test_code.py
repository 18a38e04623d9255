"""Code construction, encoding and decoding tests."""

import itertools

import numpy as np
import pytest

from cluster_helpers import UNSET, decode_available
from gf3_oracle import dense, gf3, identity, mul
from zigzag3.cli import main
from zigzag3.cluster import extract, ingest
from zigzag3.code import (
    MAX_K,
    CodeParams,
    CodingMatrixSet,
    InconsistentShardsError,
    InsufficientShardsError,
    basis_index,
    build_coding_matrices,
    decode_shards_array,
    encode_parts_array,
    second_parity_by_matrices,
)
from zigzag3.gf3 import SignedPermutation, SingularMatrixError, solve_square
from zigzag3.verification import (
    beta_row_coefficients,
    coding_matrix_from_zigzag,
    flip_one_sign,
    second_parity_by_rows,
    verify_mds,
)


def cm_for(k):
    return build_coding_matrices(CodeParams(k))


def beta(params, i, j):
    """Scalar oracle for the zigzag coefficient of part j's row-i symbol:
    1 for j = 0, otherwise 1 or 2 (for -1) by the parity of the first j
    of the k-1 index bits of i."""
    if j == 0:
        return 1
    return 1 if (i >> (params.k - 1 - j)).bit_count() % 2 == 0 else 2


# Scalar forms of the row-index definitions, built on ``basis_index``.


def index_bits(params, i):
    """Row index as its k-1 bits (i_1, ..., i_{k-1}), most significant first."""
    if not 0 <= i < params.n_rows:
        raise ValueError(f"row index {i} out of range [0, {params.n_rows})")
    return tuple((i >> (params.k - 1 - j)) & 1 for j in range(1, params.k))


def index_from_bits(params, bits):
    bits = tuple(bits)
    if len(bits) != params.k - 1 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need {params.k - 1} bits in {{0,1}}, got {bits}")
    return sum(b << (params.k - 1 - j) for j, b in enumerate(bits, start=1))


def permutation_apply(params, j, x):
    """Row permutation used by part j: flip bit j of x (identity for j=0).

    Self-inverse, since XOR undoes itself.
    """
    if not 0 <= x < params.n_rows:
        raise ValueError(f"row index {x} out of range [0, {params.n_rows})")
    return x ^ basis_index(params, j)


def zigzag_set(params, l):
    """The k (row, part) pairs feeding row l of the zigzag parity."""
    if not 0 <= l < params.n_rows:
        raise ValueError(f"row index {l} out of range [0, {params.n_rows})")
    return [(l ^ basis_index(params, j), j) for j in range(params.k)]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_derived_quantities():
    p = CodeParams(4)
    assert (p.n_rows, p.n_nodes, p.file_symbols) == (8, 6, 32)


def test_params_rejects_small_k():
    with pytest.raises(ValueError):
        CodeParams(1)


def test_params_rejects_k_above_cap():
    assert CodeParams(MAX_K).n_rows == 1 << (MAX_K - 1)
    with pytest.raises(ValueError):
        CodeParams(MAX_K + 1)


# ---------------------------------------------------------------------------
# permutations, zigzag sets, coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
def test_index_bits_roundtrip(k):
    p = CodeParams(k)
    for i in range(p.n_rows):
        bits = index_bits(p, i)
        assert len(bits) == k - 1
        assert index_from_bits(p, bits) == i
    # most significant bit first: e_1 has value 2^(k-2)
    assert index_from_bits(p, (1,) + (0,) * (k - 2)) == 1 << (k - 2)


def test_permutation_zero_is_identity():
    p = CodeParams(3)
    for x in range(p.n_rows):
        assert permutation_apply(p, 0, x) == x


def test_permutation_bit_value():
    assert permutation_apply(CodeParams(3), 1, 0) == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_permutation_self_inverse(k):
    p = CodeParams(k)
    for j in range(k):
        for x in range(p.n_rows):
            assert permutation_apply(p, j, permutation_apply(p, j, x)) == x


def test_permutation_range_checks():
    p = CodeParams(3)
    with pytest.raises(ValueError):
        permutation_apply(p, 3, 0)
    with pytest.raises(ValueError):
        permutation_apply(p, 0, 4)


def test_zigzag_set_small_cases():
    assert set(zigzag_set(CodeParams(2), 0)) == {(0, 0), (1, 1)}
    assert set(zigzag_set(CodeParams(3), 0)) == {(0, 0), (2, 1), (1, 2)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_zigzag_set_covers_every_part_once(k):
    p = CodeParams(k)
    for l in range(p.n_rows):
        pairs = zigzag_set(p, l)
        assert len(pairs) == k
        assert sorted(j for _, j in pairs) == list(range(k))


def test_beta_examples():
    p = CodeParams(3)
    for i in range(p.n_rows):
        assert beta(p, i, 0) == 1
    assert beta(p, 2, 1) == 2
    assert beta(p, 3, 2) == 1


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_beta_row_coefficients_match_scalar_beta(k):
    p = CodeParams(k)
    for j in range(k):
        want = [beta(p, i, j) for i in range(p.n_rows)]
        assert beta_row_coefficients(p, j).tolist() == want


# ---------------------------------------------------------------------------
# coding matrices
# ---------------------------------------------------------------------------


def test_matrices_k2_golden():
    cm = cm_for(2)
    assert np.array_equal(dense(cm.matrices[0]), identity(2))
    assert np.array_equal(dense(cm.matrices[1]), [[0, 2], [1, 0]])


def test_matrices_k3_golden():
    cm = cm_for(3)
    assert np.array_equal(dense(cm.matrices[1]), [[0, 0, 2, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert np.array_equal(dense(cm.matrices[2]), [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])


@pytest.mark.parametrize("k", range(2, 9))
def test_block_recursion_matches_row_rule(k):
    p = CodeParams(k)
    cm = cm_for(k)
    for j in range(k):
        assert np.array_equal(dense(cm.matrices[j]), dense(coding_matrix_from_zigzag(p, j)))


@pytest.mark.parametrize("k", range(2, 9))
def test_matrices_square_to_minus_identity(k):
    cm = cm_for(k)
    n = CodeParams(k).n_rows
    minus_i = gf3(-np.eye(n, dtype=int))
    for j in range(1, k):
        d = dense(cm.matrices[j])
        assert np.array_equal(mul(d, d), minus_i)
        # one nonzero per row and per column
        nz = d != 0
        assert (nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()


@pytest.mark.parametrize("k", [9, 10])
def test_matrices_square_to_minus_identity_compact(k):
    # Same claim at the sizes where dense products get slow: row r of A@A
    # lands on target[target[r]] with sign[r]*sign[target[r]].
    cm = cm_for(k)
    for j in range(1, k):
        m = cm.matrices[j]
        assert np.array_equal(m.target[m.target], np.arange(m.size))
        assert (m.sign * m.sign[m.target] == -1).all()


@pytest.mark.parametrize("k", range(2, 7))
def test_mds_ranks_hold(k):
    assert verify_mds(cm_for(k)) == (True, "")


def test_mds_detects_duplicate_matrix():
    p = CodeParams(3)
    cm = cm_for(3)
    broken = CodingMatrixSet(p, (cm.matrices[1], cm.matrices[1], cm.matrices[2]))
    ok, detail = verify_mds(broken)
    assert not ok
    assert any("A_0 - A_1" in v for v in detail.split("; "))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_k2_worked_example():
    p = CodeParams(2)
    shards = encode_parts_array(p, cm_for(2), np.array([[1, 0], [0, 1]]))
    assert shards[2].tolist() == [1, 1]
    assert shards[3].tolist() == [0, 0]


def test_encode_zero_file():
    p = CodeParams(3)
    assert not encode_parts_array(p, cm_for(3), np.zeros((3, 4), dtype=np.uint8)).any()


def test_encode_reduces_signed_parts_before_the_cast():
    p = CodeParams(2)
    raw = np.array([[-1, 1], [0, 4]])
    shards = encode_parts_array(p, cm_for(2), raw)
    assert shards.dtype == np.uint8
    assert shards[0].tolist() == [2, 1]
    assert np.array_equal(shards, encode_parts_array(p, cm_for(2), raw % 3))


@pytest.mark.parametrize("k", range(2, MAX_K + 1))
def test_encoder_forms_agree_on_random_data(k):
    # The encoder's zigzag parity against the row-rule reference, at every
    # k the code accepts; 2 stripes past k = 10, where N grows large.
    p = CodeParams(k)
    cm = cm_for(k)
    rng = np.random.default_rng(100 + k)
    parts = rng.integers(0, 3, size=(k, 40 if k <= 10 else 2, p.n_rows), dtype=np.uint8)
    by_rows = second_parity_by_rows(p, parts)
    assert np.array_equal(by_rows, second_parity_by_matrices(cm, parts))
    assert np.array_equal(encode_parts_array(p, cm, parts)[k + 1], by_rows)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_single_symbol_update_touches_one_symbol_per_parity(k):
    p = CodeParams(k)
    cm = cm_for(k)
    rng = np.random.default_rng(200 + k)
    parts = rng.integers(0, 3, size=(k, p.n_rows), dtype=np.uint8)
    base = encode_parts_array(p, cm, parts)
    for j in range(k):
        for i in range(p.n_rows):
            bumped = parts.copy()
            bumped[j, i] = (bumped[j, i] + 1) % 3
            delta = encode_parts_array(p, cm, bumped) != base
            assert delta[k].sum() == 1 and delta[k + 1].sum() == 1
            assert delta[:k].sum() == 1  # only the rewritten symbol itself


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def all_k_subsets(k):
    return itertools.combinations(range(k + 2), k)


def test_decode_systematic_passthrough():
    p = CodeParams(4)
    cm = cm_for(4)
    rng = np.random.default_rng(31)
    parts = rng.integers(0, 3, size=(4, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    got = decode_available(p, cm, {j: shards[j] for j in range(4)})
    assert np.array_equal(got, parts)


def test_decode_from_parities_only_k2_exhaustive():
    p = CodeParams(2)
    cm = cm_for(2)
    for vals in itertools.product(range(3), repeat=4):
        parts = np.array(vals, dtype=np.uint8).reshape(2, 2)
        shards = encode_parts_array(p, cm, parts)
        got = decode_available(p, cm, {2: shards[2], 3: shards[3]})
        assert np.array_equal(got, parts)


@pytest.mark.parametrize("k", [2, 3])
def test_decode_every_subset_exhaustive_small(k):
    p = CodeParams(k)
    cm = cm_for(k)
    rng = np.random.default_rng(40 + k)
    parts = rng.integers(0, 3, size=(k, 25, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for subset in all_k_subsets(k):
        got = decode_available(p, cm, {i: shards[i] for i in subset})
        assert np.array_equal(got, parts), subset


@pytest.mark.parametrize("k", [4, 5, 6])
def test_decode_every_subset_sampled(k):
    p = CodeParams(k)
    cm = cm_for(k)
    rng = np.random.default_rng(50 + k)
    parts = rng.integers(0, 3, size=(k, 5, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for subset in all_k_subsets(k):
        got = decode_available(p, cm, {i: shards[i] for i in subset})
        assert np.array_equal(got, parts), subset


def test_decode_drop_two_systematic_repeated():
    p = CodeParams(4)
    cm = cm_for(4)
    rng = np.random.default_rng(60)
    parts = rng.integers(0, 3, size=(4, 100, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    available = {i: shards[i] for i in (0, 2, 4, 5)}  # drop nodes 1 and 3
    assert np.array_equal(decode_available(p, cm, available), parts)


def dense_two_erasure_solve(params, cm, shards, j1, j2):
    """Oracle for the two-systematic decode: one dense 2N x 2N solve.

    Stacks [I I; A_j1 A_j2] over the parities left after removing the
    present parts, computed with dense int64 products.
    """
    k, n = params.k, params.n_rows
    r1 = shards[k].astype(np.int64)
    r2 = shards[k + 1].astype(np.int64)
    for l in range(k):
        if l not in (j1, j2):
            r1 -= shards[l]
            r2 -= shards[l].astype(np.int64) @ dense(cm.matrices[l]).T.astype(np.int64)
    system = np.block([[identity(n), identity(n)], [dense(cm.matrices[j1]), dense(cm.matrices[j2])]])
    sol = solve_square(system, np.concatenate([r1.T, r2.T], axis=0))
    return sol[:n].T, sol[n:].T


@pytest.mark.parametrize("k", range(2, 9))
def test_two_erasure_closed_form_matches_dense_oracle(k):
    p = CodeParams(k)
    cm = cm_for(k)
    rng = np.random.default_rng(300 + k)
    parts = rng.integers(0, 3, size=(k, 6, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for j1, j2 in itertools.combinations(range(k), 2):
        available = {i: shards[i] for i in range(k + 2) if i not in (j1, j2)}
        got = decode_available(p, cm, available)
        want1, want2 = dense_two_erasure_solve(p, cm, shards, j1, j2)
        assert np.array_equal(got[j1], want1), (j1, j2)
        assert np.array_equal(got[j2], want2), (j1, j2)
        assert np.array_equal(got, parts), (j1, j2)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_two_erasure_decode_refuses_singular_pair(k):
    # flip_one_sign makes A_0 - A_1 singular: both solvers must refuse it.
    p = CodeParams(k)
    cm = cm_for(k)
    bad = flip_one_sign(cm)
    rng = np.random.default_rng(400 + k)
    shards = encode_parts_array(p, cm, rng.integers(0, 3, size=(k, 3, p.n_rows), dtype=np.uint8))
    with pytest.raises(SingularMatrixError):
        dense_two_erasure_solve(p, bad, shards, 0, 1)
    with pytest.raises(SingularMatrixError):
        decode_available(p, bad, {i: shards[i] for i in range(2, k + 2)})


def test_worst_case_accumulation_at_max_k():
    # Stripe 0 is all 2s and stripe 1 all 1s: every int8 partial sum the
    # encoder and decoder build takes its largest magnitude at k = 16.
    k = MAX_K
    p = CodeParams(k)
    cm = cm_for(k)
    parts = np.empty((k, 2, p.n_rows), dtype=np.uint8)
    parts[:, 0] = 2
    parts[:, 1] = 1
    shards = encode_parts_array(p, cm, parts)
    assert np.array_equal(shards[:k], parts)
    assert (shards[k, 0] == (2 * k) % 3).all() and (shards[k, 1] == k % 3).all()
    for l in (0, 1, p.n_rows - 1):
        coeff = sum(beta(p, l ^ basis_index(p, j), j) for j in range(k))
        assert shards[k + 1, 0, l] == (2 * coeff) % 3
        assert shards[k + 1, 1, l] == coeff % 3
    lost1_zigzag = {i: shards[i] for i in (*range(1, k), k + 1)}
    lost2 = {i: shards[i] for i in range(2, k + 2)}
    for available in (lost1_zigzag, lost2):
        assert np.array_equal(decode_available(p, cm, available), parts)


def test_decode_insufficient_shards():
    p = CodeParams(3)
    cm = cm_for(3)
    shards = encode_parts_array(p, cm, np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(InsufficientShardsError):
        decode_available(p, cm, {0: shards[0], 1: shards[1]})


SHORT_SHARD_CASES = {"lost0": (0, 1, 2, 3), "lost1": (0, 1, 2, 4), "lost2": (0, 1, 4, 5)}


@pytest.mark.parametrize("case", SHORT_SHARD_CASES)
def test_decode_rejects_a_short_shard(case):
    # A stack short of a node, of a symbol per stripe, or of uint8, or a
    # node id outside it: every decode case refuses it before it writes.
    p = CodeParams(4)
    cm = cm_for(4)
    parts = np.random.default_rng(62).integers(0, 3, size=(4, 3, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    present = SHORT_SHARD_CASES[case]
    for stack in (shards[:5], shards[..., :7], shards.astype(np.int8)):
        before = stack.copy()
        with pytest.raises(ValueError, match="shard stack has shape"):
            decode_shards_array(p, cm, stack, present)
        assert np.array_equal(stack, before)
    with pytest.raises(ValueError, match="unknown node id 6"):
        decode_shards_array(p, cm, shards, (*present, 6))


def test_decode_detects_inconsistent_extra_shard():
    p = CodeParams(3)
    cm = cm_for(3)
    rng = np.random.default_rng(61)
    parts = rng.integers(0, 3, size=(3, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    tampered = shards[4].copy()
    tampered[0] = (tampered[0] + 1) % 3
    available = {0: shards[0], 1: shards[1], 2: shards[2], 4: tampered}
    with pytest.raises(InconsistentShardsError):
        decode_available(p, cm, available)


@pytest.mark.parametrize("k", range(2, 9))
def test_every_erasure_pattern_decodes_in_the_stack(k):
    # Every set of k, k+1 or k+2 shards, laid out in one stack: the decode
    # writes only the lost systematic rows, returns the stack's first k
    # rows, and extract reads the file back from them.
    p, cm = CodeParams(k), cm_for(k)
    for size in (0, 1, 17, 5000):
        data = np.random.default_rng(700 * k + size).bytes(size)
        parts, meta = ingest(p, data)
        shards = encode_parts_array(p, cm, parts)
        for count in (k, k + 1, k + 2):
            for nodes in itertools.combinations(range(k + 2), count):
                stack = np.full_like(shards, UNSET)
                stack[list(nodes)] = shards[list(nodes)]
                got = decode_shards_array(p, cm, stack, nodes)
                assert np.shares_memory(got, stack) and got.shape == parts.shape
                assert extract(p, got, meta) == data, (size, nodes)
                assert np.array_equal(stack[list(nodes)], shards[list(nodes)]), nodes
                assert np.array_equal(stack[:k], parts), nodes
                for node in set(range(k, k + 2)) - set(nodes):
                    assert (stack[node] == UNSET).all(), nodes


def test_decode_operators_never_keep_a_failure():
    # flip_one_sign breaks the pair (0, 1): every lost-2 decode of it
    # raises, the first and the second alike, while the healthy set's
    # operators are the same objects on every call.
    import zigzag3.code as code

    k = 5
    p, cm = CodeParams(k), cm_for(k)
    bad = flip_one_sign(cm)
    shards = encode_parts_array(p, cm, np.random.default_rng(71).integers(0, 3, (k, 4, p.n_rows), dtype=np.uint8))
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            decode_shards_array(p, bad, shards.copy(), range(2, k + 2))
        with pytest.raises(SingularMatrixError):
            code._decode_operators(bad, (0, 1))
    first = code._decode_operators(cm, (0, 1))
    for _ in range(2):
        stack = shards.copy()
        stack[:2] = 0
        assert np.array_equal(decode_shards_array(p, cm, stack, range(2, k + 2)), shards[:k])
        assert all(a is b for a, b in zip(code._decode_operators(cm, (0, 1)), first))
    assert code._decode_operators(cm, (3,))[0] is code._decode_operators(cm, (3,))[0]
    assert code._decode_operators(cm, (3,))[0] == cm.matrices[3].inverse()


@pytest.mark.parametrize("k", range(4, 13))
def test_every_encode_and_decode_apply_takes_the_word_gather(k):
    # Each matrix encode and decode apply (A_j, A_j^-1, P = A_j1^-1 A_j2
    # and P A_j1^-1 for every pair) is XOR-structured, so none of them
    # falls back to the per-byte gather.
    mats = cm_for(k).matrices
    applied = [*mats, *(m.inverse() for m in mats)]
    for a1, a2 in itertools.combinations(mats, 2):
        p = a1.inverse() @ a2
        applied += [p, p @ a1.inverse()]
    assert all(m._word_xor() >= 0 for m in applied)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_encode_and_decode_run_every_apply_through_the_word_gather(k, monkeypatch):
    # Counted in the code itself: every terms or residue_terms call of an
    # encode and of each decode from k shards goes through the word gather.
    import zigzag3.gf3 as gf3

    calls = {"terms": 0, "words": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(SignedPermutation, "terms", counting("terms", SignedPermutation.terms))
    monkeypatch.setattr(SignedPermutation, "residue_terms", counting("terms", SignedPermutation.residue_terms))
    monkeypatch.setattr(gf3, "_xor_gather", counting("words", gf3._xor_gather))
    p, cm = CodeParams(k), cm_for(k)
    parts = np.random.default_rng(500 + k).integers(0, 3, size=(k, 2, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for nodes in itertools.combinations(range(k + 2), k):
        assert np.array_equal(decode_available(p, cm, {i: shards[i] for i in nodes}), parts)
    assert calls["terms"] > 0 and calls["words"] == calls["terms"]


@pytest.mark.parametrize("k", range(4, 13))
def test_flipped_sign_still_fails_the_encoder_and_matrix_checks(k):
    # flip_one_sign keeps A_1's XOR target and changes one sign, so the
    # word gather runs and must still see the fault.
    from zigzag3.verification import _check_encoder_forms, _check_equivalence

    p = CodeParams(k)
    bad = flip_one_sign(cm_for(k))
    assert bad.matrices[1]._word_xor() >= 0
    assert not _check_encoder_forms(p, bad, 20, np.random.default_rng(k))[0]
    assert not _check_equivalence(p, bad)[0]


def test_one_read_only_coding_matrix_set_per_k():
    for k in range(2, MAX_K + 1):
        cm = build_coding_matrices(CodeParams(k))
        assert build_coding_matrices(CodeParams(k)) is cm
        for m in cm.matrices:
            for array in (m.target, m.sign):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]


def _encode_file(tmp_path):
    data = np.random.default_rng(3000).bytes(3000)
    (tmp_path / "input.bin").write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", "4", "--input", str(tmp_path / "input.bin"), "--out-dir", str(out_dir)]) == 0
    return data, out_dir


def _decode_without_nodes_0_and_1(tmp_path, out_dir):
    out = tmp_path / "restored.bin"
    shards = [str(out_dir / f"node_{i}.shard") for i in range(2, 6)]
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    return out.read_bytes()


def test_fault_hooks_leave_the_shared_set_alone(tmp_path, capsys):
    assert flip_one_sign(cm_for(4)) != cm_for(4)
    assert main(["verify", "--k-range", "2..6", "--inject-fault"]) == 2
    for k in range(2, 7):
        p = CodeParams(k)
        assert all(cm_for(k).matrices[j] == coding_matrix_from_zigzag(p, j) for j in range(k))
    data, out_dir = _encode_file(tmp_path)
    assert _decode_without_nodes_0_and_1(tmp_path, out_dir) == data


def test_two_decodes_run_the_block_recursion_once(tmp_path, capsys, monkeypatch):
    import zigzag3.code as code

    data, out_dir = _encode_file(tmp_path)
    levels = []
    recursion = code._recursion_level

    def counted(k):
        levels.append(k)
        return recursion(k)

    monkeypatch.setattr(code, "_recursion_level", counted)
    build_coding_matrices.cache_clear()
    for _ in range(2):
        assert _decode_without_nodes_0_and_1(tmp_path, out_dir) == data
    # One build recurses once through each level, k = 4 down to 2.
    assert levels == [4, 3, 2]
