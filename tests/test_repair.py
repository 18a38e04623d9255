"""Repair-matrix construction, rank conditions, planning and I/O accounting."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

import zigzag3.repair as repair
from gf3_oracle import add, dense, gf3, identity, mul, sub
from zigzag3.code import (
    CodeParams,
    CodingMatrixSet,
    build_coding_matrices,
    encode_parts_array,
    second_parity_by_matrices,
)
from zigzag3.gf3 import (
    Gf3ShapeError,
    InconsistentSystemError,
    SignedPermutation,
    inverse,
    rank,
    reduce_sum,
    residues,
    solve_left,
)
from zigzag3.repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    RepairPlan,
    SparseRows,
    _apply,
    _pack,
    _Pairs,
    _residue_stack,
    _Runs,
    _signed,
    _transpose,
    compute_downloads,
    execute_repair,
    expected_repair_io,
    plan_repair,
    repair_bandwidth,
)
from zigzag3.verification import (
    RepairMatrixPair,
    _combined,
    _condition_ranks,
    _conditions,
    _duality_ranks,
    _gathered,
    _rank,
    _reductions,
    _stacked_inverse,
    _summed,
    _terms,
    _Terms,
    _unit_pivots,
    _zero_columns,
    brute_force_min_io,
    build_repair_pair,
    enumerate_rref,
    flip_one_sign,
    io_lower_bound,
    verify_duality,
    verify_repair_conditions,
    verify_zero_column_structure,
)

VARIANTS = (FIRST_PARITY, SECOND_PARITY)


def setup_k(k):
    p = CodeParams(k)
    return p, build_coding_matrices(p)


# ---------------------------------------------------------------------------
# recursive construction
# ---------------------------------------------------------------------------


def dense_recursion(k, variant):
    """The block recursion on dense matrices, the oracle of the sparse one:
    (s, s_tilde) of ``build_repair_pair`` as uint8 arrays."""
    if variant == FIRST_PARITY:
        s, st, e, f = gf3([[0, 1]]), gf3([[1, 1]]), gf3([[0, -1]]), gf3([[-1, 0]])
    else:
        s, st, e, f = gf3([[1, -1]]), gf3([[0, 1]]), gf3([[-1, 0]]), gf3([[0, -1]])
    for _ in range(k - 2):
        zero = np.zeros_like(s)
        s, st = np.block([[s, e], [zero, st]]), np.block([[st, sub(0, f)], [zero, s]])
        e, f = np.block([[e, zero], [zero, f]]), np.block([[f, zero], [zero, e]])
    return (st, s) if variant == SECOND_PARITY else (s, st)


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_pair_matches_dense_recursion(k, variant):
    pair = build_repair_pair(k, variant)
    s, st = dense_recursion(k, variant)
    assert np.array_equal(pair.s.array, s) and np.array_equal(pair.s_tilde.array, st)
    # Each row has at most k nonzeros, in ascending column order.
    for m in (pair.s, pair.s_tilde):
        assert m.slots.shape[1] <= k
        cols = np.where(m.slots < 2 * m.cols, m.slots % m.cols, m.cols)
        assert np.array_equal(np.sort(cols, axis=1), cols)


def coupling_blocks(k, variant):
    """The coupling blocks e, f of recursion level k, read off the pair one
    level up.  In the recursion's own labelling (which the zigzag parity
    swaps) that pair is s = [[s, e], [0, s_tilde]] and
    s_tilde = [[s_tilde, -f], [0, s]]."""
    pair = build_repair_pair(k + 1, variant)
    s, st = (pair.s, pair.s_tilde) if variant == FIRST_PARITY else (pair.s_tilde, pair.s)
    rows, cols = s.rows // 2, s.cols // 2
    return s.array[:rows, cols:], sub(0, st.array[:rows, cols:])


def test_helper_seeds():
    e, f = coupling_blocks(2, FIRST_PARITY)
    assert e.tolist() == [[0, 2]] and f.tolist() == [[2, 0]]
    e, f = coupling_blocks(2, SECOND_PARITY)
    assert e.tolist() == [[2, 0]] and f.tolist() == [[0, 2]]


def test_helper_one_level():
    e, f = coupling_blocks(3, FIRST_PARITY)
    assert e.tolist() == [[0, 2, 0, 0], [0, 0, 2, 0]]
    assert f.tolist() == [[2, 0, 0, 0], [0, 0, 0, 2]]


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_helper_dimensions(k, variant):
    e, f = coupling_blocks(k, variant)
    assert e.shape == f.shape == (1 << (k - 2), 1 << (k - 1))


def test_helpers_reject_k1():
    with pytest.raises(ValueError):
        build_repair_pair(1, FIRST_PARITY)


def test_pair_seeds():
    p = build_repair_pair(2, FIRST_PARITY)
    assert p.s.array.tolist() == [[0, 1]] and p.s_tilde.array.tolist() == [[1, 1]]
    p = build_repair_pair(2, SECOND_PARITY)
    assert p.s.array.tolist() == [[0, 1]] and p.s_tilde.array.tolist() == [[1, 2]]


def test_pair_k3_goldens():
    p = build_repair_pair(3, FIRST_PARITY)
    assert np.array_equal(p.s.array, gf3([[0, 1, 0, -1], [0, 0, 1, 1]]))
    assert np.array_equal(p.s_tilde.array, gf3([[1, 1, 1, 0], [0, 0, 0, 1]]))
    p = build_repair_pair(3, SECOND_PARITY)
    assert np.array_equal(p.s.array, gf3([[0, 1, 0, 1], [0, 0, 1, -1]]))
    assert np.array_equal(p.s_tilde.array, gf3([[1, -1, -1, 0], [0, 0, 0, 1]]))


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_pair_ranks(k, variant):
    pair = build_repair_pair(k, variant)
    half = 1 << (k - 2)
    assert pair.s.array.shape == pair.s_tilde.array.shape == (half, 2 * half)
    assert rank(pair.s.array) == rank(pair.s_tilde.array) == half


# ---------------------------------------------------------------------------
# rank conditions, duality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_repair_conditions_hold(k, variant):
    p, cm = setup_k(k)
    ok, detail = verify_repair_conditions(build_repair_pair(k, variant), cm)
    assert ok, detail


def test_repair_conditions_reject_duplicated_matrix():
    p, cm = setup_k(3)
    s = build_repair_pair(3, FIRST_PARITY).s
    pair = RepairMatrixPair(s, s, FIRST_PARITY)
    assert _condition_ranks(pair, cm)[0] == p.n_rows // 2
    ok, detail = verify_repair_conditions(pair, cm)
    assert not ok
    assert detail.split("; ")[0] == f"full-rank: {p.n_rows // 2} != {p.n_rows}"


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_duality(k, variant):
    _, cm = setup_k(k)
    pair = build_repair_pair(k, variant)
    assert pair.swapped().variant != variant
    assert verify_duality(pair, cm) == (True, "")
    swapped, sides = _duality_ranks(pair, cm)
    assert len(swapped) == k and len(sides) == k - 1
    assert all(a == b for a, b in sides)


def test_duality_swap_is_involution():
    _, cm = setup_k(4)
    pair = build_repair_pair(4, FIRST_PARITY)
    again = pair.swapped().swapped()
    assert again.s == pair.s and again.s_tilde == pair.s_tilde and again.variant == pair.variant
    assert _duality_ranks(again, cm) == _duality_ranks(pair, cm)
    assert verify_duality(again, cm) == verify_duality(pair, cm)


# ---------------------------------------------------------------------------
# zero-column structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_zero_column_census_and_propagation(k, variant):
    p = CodeParams(k)
    pair = build_repair_pair(k, variant)
    assert _zero_columns(pair) == ([0], [])
    floor = p.n_rows - Fraction(p.n_rows, 2 * (k - 1))
    assert p.n_rows - 1 >= floor
    assert verify_zero_column_structure(pair, p) == (True, f"zero cols s=(0,) s_tilde=(); floor {floor}")


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_plan_first_parity_k3():
    p, cm = setup_k(3)
    plan = plan_repair(p, cm, 3)
    assert plan.io_per_node == {0: 3, 1: 3, 2: 3, 4: 4}
    assert plan.total_io == 13 == expected_repair_io(p, 3)
    assert plan.bandwidth == 8


def test_plan_second_parity_k4():
    p, cm = setup_k(4)
    plan = plan_repair(p, cm, 5)
    assert plan.total_io == 36
    assert plan.bandwidth == 20
    assert plan.helper_nodes == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("k", range(2, 9))
def test_plan_meters_both_parities(k):
    p, cm = setup_k(k)
    for failed in (k, k + 1):
        plan = plan_repair(p, cm, failed)
        assert plan.total_io == expected_repair_io(p, failed)
        assert plan.bandwidth == repair_bandwidth(p) == (k + 1) * p.n_rows // 2
        assert all(m.rows == p.n_rows // 2 for m in plan.downloads.values())


def test_plan_rejects_unknown_node():
    p, cm = setup_k(3)
    for node in (-1, p.n_nodes):
        with pytest.raises(ValueError, match="out of range"):
            plan_repair(p, cm, node)


def test_plan_rejects_coding_matrices_of_another_k():
    p = CodeParams(3)
    for other in (2, 4):
        cm = build_coding_matrices(CodeParams(other))
        for node in range(p.n_nodes):
            with pytest.raises(Gf3ShapeError, match=f"k={other}, plan for k=3"):
                plan_repair(p, cm, node)


def test_data_node_plan_rows_k3():
    # Node 0: even-weight rows from the data helpers and the row-sum
    # parity, odd-weight rows from the zigzag parity.  Node j >= 1: the rows
    # whose bit j is 0 from every helper.
    p, cm = setup_k(3)
    rows = {n: m.slots[:, 0].tolist() for n, m in plan_repair(p, cm, 0).downloads.items()}
    assert rows == {1: [0, 3], 2: [0, 3], 3: [0, 3], 4: [1, 2]}
    rows = {n: m.slots[:, 0].tolist() for n, m in plan_repair(p, cm, 1).downloads.items()}
    assert rows == {0: [0, 1], 2: [0, 1], 3: [0, 1], 4: [0, 1]}
    rows = {n: m.slots[:, 0].tolist() for n, m in plan_repair(p, cm, 2).downloads.items()}
    assert rows == {0: [0, 2], 1: [0, 2], 3: [0, 2], 4: [0, 2]}


def dense_plan(p, cm, failed):
    """Reference plan from dense products: one solve_left per projector."""
    k = p.k
    s, st = dense_recursion(k, FIRST_PARITY if failed == k else SECOND_PARITY)
    eye, a = identity(p.n_rows), [dense(m) for m in cm.matrices]
    if failed == k:
        downloads = {j: s for j in range(k)}
        transforms = {l: sub(eye, a[l]) for l in range(1, k)}
        base = mul(st, a[0])
    else:
        downloads = {j: mul(s, a[j]) for j in range(k)}
        transforms = {l: add(eye, a[l]) for l in range(1, k)}
        base = mul(st, dense(cm.matrices[0].inverse()))
    downloads[2 * k + 1 - failed] = st
    projectors = {l: solve_left(s, mul(st, t)) for l, t in transforms.items()}
    return downloads, projectors, inverse(np.vstack([s, base]))


def dense_views(plan):
    """The plan's downloads, projectors (with the base, if any) and solve
    inverse as dense lists."""
    base = 0 if plan.projector_base is None else plan.projector_base.array.astype(int)
    return (
        {n: m.array.tolist() for n, m in plan.downloads.items()},
        {l: ((base + m.array) % 3).tolist() for l, m in plan.projectors.items()},
        plan.solve_inverse.array.tolist(),
    )


def oracle_lists(downloads, projectors, solve_inv):
    return (
        {n: m.tolist() for n, m in downloads.items()},
        {l: m.tolist() for l, m in projectors.items()},
        solve_inv.tolist(),
    )


@pytest.mark.parametrize("k", range(2, 9))
def test_plan_matches_dense_oracle(k):
    p, cm = setup_k(k)
    for failed in (k, k + 1):
        plan = plan_repair(p, cm, failed)
        downloads, projectors, solve_inv = dense_plan(p, cm, failed)
        assert dense_views(plan) == oracle_lists(downloads, projectors, solve_inv)
        assert plan.io_per_node == {n: int(m.any(axis=0).sum()) for n, m in downloads.items()}


@pytest.mark.parametrize("k", range(2, 9))
def test_plan_on_flipped_sign_behaves_like_dense_oracle(k):
    # A flipped sign leaves the interference rows outside the row space of
    # s from k = 3 on, so the dense oracle fails too.  At k = 2 it still
    # solves, but the set is not the paper's, so no closed-form plan is
    # made for it either.
    p, cm = setup_k(k)
    bad = flip_one_sign(cm)
    for failed in (k, k + 1):
        if k > 2:
            with pytest.raises(InconsistentSystemError):
                dense_plan(p, bad, failed)
        with pytest.raises(InconsistentSystemError):
            plan_repair(p, bad, failed)


# ---------------------------------------------------------------------------
# the closed form of parity plans
# ---------------------------------------------------------------------------


def closed_form_t(k, sigma):
    """T = I + sigma C as a dense matrix, entry by entry: row u holds
    sigma (-1)^popcount(u mod 2^b) at column u | 2^b for every bit
    b < k - 1 clear in u."""
    n = 1 << (k - 1)
    t = np.eye(n, dtype=np.int64)
    for u in range(n):
        for b in range(k - 1):
            if not (u >> b) & 1:
                t[u, u | 1 << b] = sigma * (-1) ** bin(u % (1 << b)).count("1")
    return gf3(t)


def odd_weight(n):
    return np.array([bin(u).count("1") % 2 == 1 for u in range(n)])


def sigma_of(variant):
    return 1 if variant == FIRST_PARITY else -1


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("variant", VARIANTS)
def test_repair_pair_is_the_rows_of_t(k, variant):
    # s is T at the odd-weight rows and s_tilde at the even-weight ones,
    # each in ascending order, so row m of each comes from pair (2m,
    # 2m + 1).  The unit-column pivots of s are its odd-weight columns,
    # each +1.  C squares to 0, so T (2I - T) = T (I - sigma C) = I.
    pair = build_repair_pair(k, variant)
    t = closed_form_t(k, sigma_of(variant))
    odd = odd_weight(t.shape[0])
    assert np.array_equal(pair.s.array, t[odd]) and np.array_equal(pair.s_tilde.array, t[~odd])
    pivots = _unit_pivots(pair.s)
    assert np.array_equal(pivots.unit, np.flatnonzero(odd)) and (pivots.sign == 1).all()
    if k <= 8:
        eye = identity(t.shape[0])
        assert np.array_equal(mul(t, sub(2 * eye, t)), eye)


def merged_key(*matrices):
    """The merged terms of the sum of ``matrices``, as their keys."""
    terms = [_terms(m.slots, m.cols) for m in matrices]
    return _summed(_Terms(terms[0].rows, terms[0].cols, np.concatenate([t.key for t in terms]))).key


def eliminated_parity_plan(p, cm, failed):
    """The pair, projectors and solve inverse of a parity plan by
    unit-column elimination: X of each interference block, as merged
    keys, and the inverse of the stack from its Schur factors, as summed
    terms."""
    variant = FIRST_PARITY if failed == p.k else SECOND_PARITY
    pair = build_repair_pair(p.k, variant)
    pivots = _unit_pivots(pair.s)
    perms, combos = _conditions(cm, variant)
    xs, residuals = zip(*_reductions(pair.s, pivots, pair.s_tilde, perms))
    assert not _combined(residuals, combos[1:]).key.size
    projectors = {l: _combined(xs, [combo]).key for l, combo in enumerate(combos[1:], 1)}
    return pair, projectors, _stacked_inverse(pair.s, pivots, xs[1], residuals[1])


@pytest.mark.parametrize("k", range(2, 13))
def test_closed_form_plans_equal_eliminated_plans(k):
    # Every part of both parity plans against elimination: the downloads
    # slot for slot, top, bottom node and reads, each projector as the
    # base plus its one-slot part, and the solve inverse.
    p, cm = setup_k(k)
    n = p.n_rows
    for failed in (k, k + 1):
        plan = plan_repair(p, cm, failed)
        pair, projectors, solve = eliminated_parity_plan(p, cm, failed)
        surviving = 2 * k + 1 - failed
        downloads = {j: pair.s if failed == k else pair.s.times(cm.matrices[j]) for j in range(k)}
        downloads[surviving] = pair.s_tilde
        assert {h: m.slots.tolist() for h, m in plan.downloads.items()} == {
            h: m.slots.tolist() for h, m in downloads.items()
        }
        assert plan.top == {j: 1 for j in range(k)} and plan.bottom_node == surviving
        assert plan.io_per_node == {**{j: n - 1 for j in range(k)}, surviving: n}
        assert plan.io_per_node is plan.io_per_node  # counted once per plan
        assert plan.projectors.keys() == projectors.keys()
        for l, key in projectors.items():
            assert plan.projectors[l].slots.shape == (n // 2, 1)
            assert np.array_equal(merged_key(plan.projector_base, plan.projectors[l]), key), (k, failed, l)
        assert np.array_equal(merged_key(plan.solve_inverse), solve.key), (k, failed)


def test_projector_base_needs_one_slot_parts_of_top_helpers():
    # execute_repair applies the base to the sum of the projected
    # downloads that the top forms, and gathers one slot of each part.
    p, cm = setup_k(4)
    plan = plan_repair(p, cm, 4)
    with pytest.raises(ValueError, match="projector base"):
        dataclasses.replace(plan, top={**plan.top, 1: -1})
    with pytest.raises(ValueError, match="projector base"):
        dataclasses.replace(plan, projectors={**plan.projectors, 1: plan.projector_base})


# ---------------------------------------------------------------------------
# executing repairs
# ---------------------------------------------------------------------------


def apply_matrix_rows(m, x):
    """``m`` applied to the last axis of ``x`` by the runtime's kernel: the
    residues of ``x`` laid out symbol-major in a residue stack, one
    whole-row gather per slot, and one reduction."""
    x = np.asarray(x)
    if x.shape[-1] != m.cols:
        raise ValueError(f"last axis {x.shape[-1]} != matrix cols {m.cols}")
    flat = residues(x).reshape(-1, m.cols)
    buf = np.empty((2 * m.cols + 1, flat.shape[0]), dtype=np.int8)
    return _apply(m, _residue_stack(flat, buf)).T.reshape(x.shape[:-1] + (m.rows,))


def dense_apply(m, x):
    """Reference for apply_matrix_rows: an int64 matmul and one % 3."""
    x = np.asarray(x)
    flat = x.reshape(-1, m.cols).astype(np.int64)
    out = (flat @ m.array.T.astype(np.int64)) % 3
    return out.astype(np.uint8).reshape(x.shape[:-1] + (m.rows,))


def check_apply(m, x):
    got = apply_matrix_rows(m, x)
    assert got.dtype == np.uint8
    assert np.array_equal(got, dense_apply(m, x))


@pytest.mark.parametrize("cols", [1, 5, 64, 200])
def test_apply_matches_dense_oracle_random(cols):
    rng = np.random.default_rng(cols)
    m = SparseRows.from_dense(rng.integers(0, 3, size=(7, cols)))
    check_apply(m, rng.integers(0, 3, size=(11, cols), dtype=np.uint8))


@pytest.mark.parametrize("cols", [62, 63, 64, 125, 126, 127, 300])
def test_apply_worst_case_rows_stay_exact(cols):
    # Every term has the same sign, and with symbols 2 it is +-2: the int8
    # sum reaches its edge just before each reduction.  One or two leading
    # 1s make a block of 62 or 63 terms reduce to 2, the largest residue
    # the next block builds on.
    x = np.full((4, cols), 2, dtype=np.uint8)
    x[0] = 1
    x[2, :1] = 1
    x[3, :2] = 1
    for coefficient in (1, 2):
        check_apply(SparseRows.from_dense(np.full((3, cols), coefficient)), x)


def test_apply_zero_matrix():
    x = np.arange(30).reshape(3, 10) % 3
    got = apply_matrix_rows(SparseRows.from_dense(np.zeros((4, 10))), x.astype(np.uint8))
    assert got.dtype == np.uint8 and got.shape == (3, 4) and not got.any()


def test_apply_unreduced_and_negative_input():
    rng = np.random.default_rng(7)
    m = SparseRows.from_dense(rng.integers(0, 3, size=(6, 9)))
    check_apply(m, rng.integers(-1000, 1000, size=(5, 9), dtype=np.int64))
    check_apply(m, rng.integers(3, 256, size=(5, 9), dtype=np.uint8))


def test_apply_vector_and_3d_shapes():
    rng = np.random.default_rng(8)
    m = SparseRows.from_dense(rng.integers(0, 3, size=(4, 6)))
    vec = rng.integers(0, 3, size=6, dtype=np.uint8)
    assert apply_matrix_rows(m, vec).shape == (4,)
    check_apply(m, vec)
    # Leading shapes of one and three axes.
    for lead in [(1,), (7,), (2, 3), (2, 3, 5)]:
        x = rng.integers(0, 3, size=lead + (6,), dtype=np.uint8)
        assert apply_matrix_rows(m, x).shape == lead + (4,)
        check_apply(m, x)


# The blocked transpose copies 32 KiB at a time, 256 stripes of a k = 8
# shard (N = 128): these stripe counts sit on and around its block edges.
BLOCK_EDGE_STRIPES = [1, 255, 256, 257, 3073]


@pytest.mark.parametrize("stripes", BLOCK_EDGE_STRIPES)
def test_blocked_transpose_across_block_edges(stripes):
    x = np.random.default_rng(stripes).integers(0, 256, size=(stripes, 128), dtype=np.uint8)
    there = np.empty((128, stripes), dtype=np.uint8)
    _transpose(x, there)
    assert np.array_equal(there, x.T)
    # The transposed view of a C-contiguous array is copied straight.
    again = np.empty_like(there)
    _transpose(there.T, again)
    assert np.array_equal(again, there)


@pytest.mark.parametrize("stripes", BLOCK_EDGE_STRIPES)
def test_apply_plan_matrices_across_block_edges(stripes):
    p, cm = setup_k(8)
    plan = plan_repair(p, cm, p.k + 1)
    x = np.random.default_rng(stripes).integers(0, 3, size=(stripes, p.n_rows), dtype=np.uint8)
    for m in (plan.downloads[0], plan.downloads[p.k], plan.solve_inverse):
        check_apply(m, x)
    check_apply(plan.projectors[1], x[:, : p.n_rows // 2])
    downloads = compute_downloads(plan, {h: x for h in plan.helper_nodes})
    for node, m in plan.downloads.items():
        assert np.array_equal(downloads[node], dense_apply(m, x))


def test_apply_transposed_and_strided_input():
    # A transposed view, strided views along either axis and an unreduced
    # int64 view all read the same symbols.
    rng = np.random.default_rng(12)
    m = SparseRows.from_dense(rng.integers(0, 3, size=(9, 40)) * (rng.random((9, 40)) < 0.3))
    x = rng.integers(0, 3, size=(300, 40), dtype=np.uint8)
    check_apply(m, np.ascontiguousarray(x.T).T)
    check_apply(m, np.repeat(x, 2, axis=0)[::2])
    check_apply(m, np.repeat(x, 3, axis=1)[:, ::3])
    check_apply(m, (np.ascontiguousarray(x.T).T.astype(np.int64) - 999)[::-1])
    got = apply_matrix_rows(m, x)
    assert got.T.flags.c_contiguous  # the transposed view of the symbol-major result


@pytest.mark.parametrize("sign", [1, -1])
def test_apply_reduces_a_full_sum_in_place(sign):
    # A row of 130 stack terms of 2 (260) would leave uint8: its sum is
    # reduced in place once it holds 85 terms.  A -1 entry reads 3 - x, so
    # x = 1 gives that term too.  The one-slot row is gathered second and
    # put back first.
    m = SparseRows.from_dense([[0] * 130 + [sign], [sign] * 130 + [0]])
    x = np.full((5, 131), 2 if sign == 1 else 1, dtype=np.uint8)
    stack = _residue_stack(x, np.empty((263, 5), dtype=np.int8))
    assert np.array_equal(stack[:131], x.T) and np.array_equal(stack[131:262], 3 - x.T) and not stack[262].any()
    value = int(x[0, 0]) * sign
    assert _apply(m, stack).tolist() == [[value % 3] * 5, [(130 * value) % 3] * 5]


def test_ell_form_slots():
    m = SparseRows.from_dense(np.array([[0, 1, 2, 0], [0, 0, 0, 0], [2, 0, 0, 0]], dtype=np.uint8))
    # +1 at column c is slot c, -1 is slot n + c, padding the zero row 2n.
    assert m.slots.tolist() == [[1, 6], [8, 8], [4, 8]]
    assert m.rows == 3 and m.cols == 4
    m = SparseRows(np.array([3, 1])[:, None], 4)
    assert m.slots.tolist() == [[3], [1]]
    assert m.array.tolist() == [[0, 0, 0, 1], [0, 1, 0, 0]]
    m = SparseRows.from_permutation([2, 0, 1], [1, -1, 1])
    assert m.slots.tolist() == [[2], [3], [1]]


def test_from_permutation_rejects_non_permutations():
    for target, sign in (([0, 0, 1], [1, 1, 1]), ([0, 1, 3], [1, 1, 1]), ([0, -1, 1], [1, 1, 1]),
                         ([0, 1, 2], [1, 0, 1]), ([0, 1, 2], [1, 2, 1])):
        with pytest.raises(ValueError):
            SparseRows.from_permutation(target, sign)
    with pytest.raises(ValueError):
        SparseRows.from_permutation([0, 1], [1])
    assert SparseRows.from_permutation([], []).rows == 0


def random_sparse_rows(rng, rows, cols):
    """A random residue matrix with a zero row, rows of unequal weight (so
    the form pads) and entries of both signs."""
    a = rng.integers(0, 3, size=(rows, cols), dtype=np.uint8)
    a *= (rng.random((rows, cols)) < rng.random((rows, 1))).astype(np.uint8)
    a[rng.integers(rows)] = 0
    return a


@pytest.mark.parametrize("seed", range(6))
def test_sparse_rows_from_dense_round_trip(seed):
    rng = np.random.default_rng(seed)
    a = random_sparse_rows(rng, 9, 13)
    m = SparseRows.from_dense(a)
    assert np.array_equal(m.array, a)
    assert (m.slots == 2 * 13).any() and ((m.slots >= 13) & (m.slots < 2 * 13)).any()  # padding and -1 entries
    assert m.nonzero_column_count() == np.count_nonzero(a.any(axis=0))
    assert SparseRows.from_dense(np.zeros((3, 5), dtype=np.uint8)).nonzero_column_count() == 0


@pytest.mark.parametrize("seed", range(6))
def test_sparse_rows_times_matches_dense(seed):
    rng = np.random.default_rng(seed)
    a = random_sparse_rows(rng, 9, 16)
    p = SignedPermutation(rng.permutation(16), rng.choice([-1, 1], size=16))
    got = SparseRows.from_dense(a).times(p)
    assert np.array_equal(got.array, mul(a, dense(p)))
    assert got.nonzero_column_count() == np.count_nonzero(a.any(axis=0))
    with pytest.raises(ValueError):
        SparseRows.from_dense(a).times(SignedPermutation.identity(8))


def random_terms(rng, rows, cols, count):
    r = np.sort(rng.integers(0, rows, count))
    return _Terms.of(rows, cols, r, rng.integers(0, cols, count), rng.integers(1, 3, count))


def dense_sum(t):
    """The matrix a list of terms sums to, by dense accumulation."""
    out = np.zeros((t.rows, t.cols), dtype=np.int64)
    np.add.at(out, (t.r, t.c), t.v)
    return out % 3


def merged(t):
    """The ``SparseRows`` of a sum of terms: ``_summed``, then packed, each
    row in ascending column order."""
    t = _summed(t)
    return _pack(t.rows, t.cols, t.r, t.c, t.v)


@pytest.mark.parametrize("seed", range(6))
def test_merged_terms_match_dense_sum(seed):
    # Repeated cells, cells that cancel (1 + 2) and empty rows.
    rng = np.random.default_rng(seed)
    t = random_terms(rng, 9, 7, 60)
    m = merged(t)
    assert np.array_equal(m.array, dense_sum(t))
    cols = np.where(m.slots < 2 * m.cols, m.slots % m.cols, m.cols)
    assert np.array_equal(np.sort(cols, axis=1), cols)
    assert merged(_Terms(3, 5, np.zeros(0, dtype=np.int64))).array.tolist() == [[0] * 5] * 3


@pytest.mark.parametrize("seed", range(6))
def test_gathered_product_matches_dense(seed):
    rng = np.random.default_rng(10 + seed)
    a, b = random_terms(rng, 6, 8, 20), random_terms(rng, 8, 11, 30)
    want = (dense_sum(a) @ dense_sum(b)) % 3
    assert np.array_equal(merged(_gathered(a, b)).array, want)
    with pytest.raises(ValueError):
        _gathered(b, a)


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_dense(seed):
    # Sparse matrices with chains of singletons, and a dense core.
    rng = np.random.default_rng(30 + seed)
    a = random_sparse_rows(rng, 12, 10)
    if seed % 2:
        a[:4, :4] = rng.integers(0, 3, size=(4, 4))
    r, c = np.nonzero(a)
    assert _rank(_Terms.of(12, 10, r, c, a[r, c].astype(np.int64))) == rank(a), seed


def test_sparse_rows_rejects_malformed_slots():
    for slots in (np.zeros(3), np.zeros((3, 0)), [[0, 9]], [[-1]]):
        with pytest.raises(ValueError):
            SparseRows(slots, 4)


def test_plan_forms_each_matrix_once():
    # The row-sum plan's k systematic downloads share one form; the zigzag
    # plan maps the form of its s, download 0 (A_0 = I), through each A_j.
    p, cm = setup_k(5)
    plan = plan_repair(p, cm, p.k)
    assert len({id(m) for m in plan.downloads.values()}) == 2
    zigzag = plan_repair(p, cm, p.k + 1)
    s = zigzag.downloads[0]
    assert np.array_equal(s.array, build_repair_pair(p.k, SECOND_PARITY).s.array)
    for j in range(p.k):
        assert np.array_equal(zigzag.downloads[j].slots, s.times(cm.matrices[j]).slots)
        assert np.array_equal(zigzag.downloads[j].array, mul(s.array, dense(cm.matrices[j])))


def test_repairs_build_no_dense_matrix(monkeypatch):
    # Every plan matrix is gathered from its slots; no dense view of one is
    # built to plan or run a repair (a signed permutation has none).
    def refuse(*args):
        raise AssertionError("dense form built")

    monkeypatch.setattr(SparseRows, "array", property(refuse))
    for k in range(2, 9):
        p, cm = setup_k(k)
        parts = np.random.default_rng(k).integers(0, 3, size=(k, 9, p.n_rows), dtype=np.uint8)
        shards = encode_parts_array(p, cm, parts)
        for failed in range(p.n_nodes):
            plan = plan_repair(p, cm, failed)
            downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
            assert np.array_equal(execute_repair(plan, downloads), shards[failed]), (k, failed)
            assert plan.total_io == expected_repair_io(p, failed)


@pytest.mark.parametrize("failed", ["row-sum", "zigzag"])
def test_parity_plan_memory_stays_near_what_it_keeps(failed):
    # Planning works on sparse rows throughout: its traced peak stays
    # within a small multiple of the slots the plan keeps (no (N/2) x N
    # or N x N array, each 0.5 or 4 MiB of uint8 at k = 11).
    import tracemalloc

    p, cm = setup_k(11)
    node = p.k if failed == "row-sum" else p.k + 1
    plan_repair(p, cm, node)
    tracemalloc.start()
    try:
        plan = plan_repair(p, cm, node)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept_matrices = [*plan.downloads.values(), *plan.projectors.values(), plan.solve_inverse, plan.projector_base]
    matrices = {id(m): m for m in kept_matrices}
    kept = sum(m.slots.nbytes for m in matrices.values())
    assert peak <= 4 * kept, (peak, kept)


def run_repair(p, cm, parts, failed):
    shards = encode_parts_array(p, cm, parts)
    plan = plan_repair(p, cm, failed)
    downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
    return execute_repair(plan, downloads), shards[failed]


def test_repair_exhaustive_k2():
    p, cm = setup_k(2)
    for failed in (2, 3):
        for vals in itertools.product(range(3), repeat=4):
            parts = np.array(vals, dtype=np.uint8).reshape(2, 2)
            got, want = run_repair(p, cm, parts, failed)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("k", range(2, 12))
def test_data_node_plans_round_trip(k):
    p, cm = setup_k(k)
    half = p.n_rows // 2
    parts = np.random.default_rng(700 + k).integers(0, 3, size=(k, 6, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for failed in range(k):
        plan = plan_repair(p, cm, failed)
        assert plan.io_per_node == {h: half for h in range(k + 2) if h != failed}
        assert plan.total_io == (k + 1) * half == expected_repair_io(p, failed) == plan.bandwidth
        # Raw rows, and signed permutations of N/2 and of N.
        assert all(m.slots.shape == (half, 1) and (m.slots < p.n_rows).all() for m in plan.downloads.values())
        for m, size in [(m, half) for m in plan.projectors.values()] + [(plan.solve_inverse, p.n_rows)]:
            assert m.cols == size and m.slots.shape == (size, 1)
            assert sorted(m.slots[:, 0] % size) == list(range(size))
        downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
        assert np.array_equal(execute_repair(plan, downloads), shards[failed]), (k, failed)


@pytest.mark.parametrize("k", range(2, 7))
def test_data_node_repair_on_flipped_sign(k):
    # The zigzag rebuild uses only the index structure of the coding
    # matrices, so a flipped sign still rebuilds a codeword encoded with it.
    p, cm = setup_k(k)
    bad = flip_one_sign(cm)
    parts = np.random.default_rng(800 + k).integers(0, 3, size=(k, 6, p.n_rows), dtype=np.uint8)
    shards = np.concatenate([parts, parts.sum(axis=0, keepdims=True) % 3,
                             second_parity_by_matrices(bad, parts)[None]])
    for failed in range(k):
        plan = plan_repair(p, bad, failed)
        downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
        assert np.array_equal(execute_repair(plan, downloads), shards[failed]), (k, failed)


@pytest.mark.parametrize("k", range(2, 7))
def test_data_plans_on_other_row_orders_are_refused(k):
    # Every coding matrix with its rows reversed still has a zigzag
    # rebuild, but its zigzag parity sends other rows than the shard
    # layout selects: the other runs for j >= 1, and for node 0 at even k
    # the even-weight rows.  The planner refuses those nodes.  At odd k,
    # reversing keeps each row's weight parity, so node 0's zigzag parity
    # still sends the odd rows: that plan selects them and rebuilds
    # exactly.  The set is not the paper's, so both parities are refused.
    p, cm = setup_k(k)
    other = CodingMatrixSet(p, tuple(SignedPermutation(a.target[::-1], a.sign[::-1]) for a in cm.matrices))
    parts = np.random.default_rng(850 + k).integers(0, 3, size=(k, 6, p.n_rows), dtype=np.uint8)
    shards = np.concatenate([parts, parts.sum(axis=0, keepdims=True) % 3,
                             second_parity_by_matrices(other, parts)[None]])
    for failed in range(p.n_nodes):
        if failed == 0 and k % 2:
            plan = plan_repair(p, other, failed)
            assert plan._selects is not None
            downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
            assert np.array_equal(execute_repair(plan, downloads), shards[failed]), k
            continue
        with pytest.raises(InconsistentSystemError, match="shard-layout rows" if failed < k else "paper's"):
            plan_repair(p, other, failed)


# Stripe counts of the shard-layout equivalence test: 2,624 is the 512 KiB
# file at k = 8, 41 and 205 are odd, 8 and 257 sit on and past powers of two.
SHARD_LAYOUT_STRIPES = [1, 7, 8, 41, 205, 257, 2624]


def payload_layouts(x):
    """The same symbols as ``x``, a C-contiguous (stripes, N) shard, in
    every layout ``compute_downloads`` accepts: the array itself, a
    transposed view, a view with strided rows, one with a strided last
    axis, unreduced uint8 symbols (up to 239), and an unreduced int64
    view (negative entries, rows reversed).  Past 257 stripes, only the
    shard itself, to keep the test quick."""
    if x.shape[0] > 257:
        return {"c-contiguous": x}
    return {
        "c-contiguous": x,
        "transposed": np.ascontiguousarray(x.T).T,
        "rows-step": np.repeat(x, 2, axis=0)[::2],
        "columns-step": np.repeat(x, 3, axis=1)[:, ::3],
        "uint8": x + (3 * (np.arange(x.size) % 80)).astype(np.uint8).reshape(x.shape),
        "int64": (x[::-1].astype(np.int64) - 999)[::-1],
    }


@pytest.mark.parametrize("k", range(2, 11))
def test_data_node_repairs_in_the_shard_layout_are_exact(k):
    # Every fast path of the shard layout: runs of one to four symbols as
    # sub-word integers, runs of eight or more as void blocks, word
    # gathers of N/2 whole words and of one short word (k <= 4), on
    # healthy and flipped-sign coding sets and every payload layout, for
    # every data node: node 0 selects one row of each pair.  Its downloads
    # are C-contiguous raw rows.  Every rebuild is the stored shard, byte
    # for byte.
    p = CodeParams(k)
    half = p.n_rows // 2
    rng = np.random.default_rng(900 + k)
    for cm in (build_coding_matrices(p), flip_one_sign(build_coding_matrices(p))):
        for stripes in SHARD_LAYOUT_STRIPES:
            parts = rng.integers(0, 3, size=(k, stripes, p.n_rows), dtype=np.uint8)
            shards = encode_parts_array(p, cm, parts)
            sets = [payload_layouts(x) for x in shards]
            for failed in range(k):
                plan = plan_repair(p, cm, failed)
                assert plan._selects is not None
                sent = {h: shards[h][:, m.slots[:, 0]] for h, m in plan.downloads.items()}
                for layout in sets[0]:
                    payloads = {h: sets[h][layout] for h in plan.helper_nodes}
                    downloads = compute_downloads(plan, payloads)
                    for h, d in downloads.items():
                        assert d.flags.c_contiguous
                        assert d.dtype == np.uint8 and d.shape == (stripes, half)
                        assert np.array_equal(d, sent[h]), (layout, h)
                    rebuilt = execute_repair(plan, downloads)
                    assert rebuilt.flags.c_contiguous and rebuilt.dtype == np.uint8
                    assert np.array_equal(rebuilt, shards[failed]), (k, stripes, failed, layout)


def pair_parity(pairs):
    """The parity of the weight of each of 0..pairs-1, the plain way."""
    return np.array([bin(m).count("1") % 2 for m in range(pairs)], dtype=bool)


def test_data_node_forms_follow_the_node():
    # Node j >= 1 sends the runs of rows with bit k-1-j clear, and so
    # does the zigzag parity; node 0 row 2m + parity(m) of each pair, and
    # the zigzag parity the other row.  Every projector and the solve's
    # bottom half are XOR word gathers.
    for k in range(2, 12):
        p, cm = setup_k(k)
        parity = pair_parity(p.n_rows // 2)
        for failed in range(k):
            plan = plan_repair(p, cm, failed)
            sent, zigzag = plan._selects
            if failed == 0:
                assert isinstance(sent, _Pairs) and isinstance(zigzag, _Pairs)
                assert np.array_equal(sent.high, parity) and np.array_equal(zigzag.high, ~parity)
            else:
                assert sent == zigzag == _Runs(k - 1 - failed)
            projectors, bottom = plan._gathers
            for gather in [*projectors.values(), bottom]:
                assert isinstance(gather, SignedPermutation) and gather._word_xor() >= 0


def row_indices(select, n):
    """The rows ``select`` takes from n rows, read off two byte planes of
    the row indices."""
    planes = np.stack([np.arange(n) & 255, np.arange(n) >> 8]).astype(np.uint8)
    low, high = select.take(planes).astype(np.int64)
    return low | high << 8


def merged_sources(select, n):
    """For each of n rows, where ``select.merge`` takes it from: i for
    row i of the selected half, n/2 + i for row i of the other."""
    half = n // 2
    mine, other = (np.stack([v & 255, v >> 8]).astype(np.uint8) for v in (np.arange(half), half + np.arange(half)))
    low, high = select.merge(mine, other).astype(np.int64)
    return low | high << 8


@pytest.mark.parametrize("k", range(2, 17))
def test_data_plan_forms_agree_with_their_rows(k):
    # The recorded forms of every data plan, entry for entry against the
    # plan's SparseRows: each select takes the rows its downloads name,
    # each projector is its slots, and the solve puts the top half in
    # order at the rows of the top select and the signed bottom at the
    # rest, as the solve inverse's slots say.
    p, cm = setup_k(k)
    n, half = p.n_rows, p.n_rows // 2
    for failed in range(k):
        plan = plan_repair(p, cm, failed)
        sent, zigzag = plan._selects
        for h, m in plan.downloads.items():
            select = zigzag if h == plan.bottom_node else sent
            assert np.array_equal(row_indices(select, n), m.slots[:, 0]), (k, failed, h)
        projectors, bottom = plan._gathers
        assert projectors.keys() == plan.projectors.keys()
        for h, gather in projectors.items():
            assert np.array_equal(gather.target + half * (gather.sign < 0), plan.projectors[h].slots[:, 0])
        source = merged_sources(sent, n)
        at = source[source >= half] - half
        solve = source.copy()
        solve[source >= half] = half + bottom.target[at] + n * (bottom.sign[at] < 0)
        assert np.array_equal(solve, plan.solve_inverse.slots[:, 0]), (k, failed)


def relabeled_plan(plan, order):
    """``plan`` for shards whose rows are relabeled, row r moving to
    order[r]: the downloads read the moved rows, and the solve writes
    them.  Built by hand, it has neither the planner's selects nor a
    projector base."""
    n = plan.params.n_rows
    downloads = {h: SparseRows(order[m.slots], n) for h, m in plan.downloads.items()}
    solve = np.empty_like(plan.solve_inverse.slots)
    solve[order] = plan.solve_inverse.slots
    return RepairPlan(
        plan.params, plan.failed_node, downloads, plan.top, plan.bottom_node, plan.projectors, SparseRows(solve, n)
    )


@pytest.mark.parametrize("k", range(2, 8))
def test_plans_of_neither_kind_are_refused(k, monkeypatch):
    # A plan built by hand (a data plan with its rows relabeled), or by
    # ``dataclasses.replace`` of any plan, has no selects; without a base
    # it is neither a data plan nor a parity plan.  Both steps refuse it
    # with ``ValueError`` before any kernel runs.
    p, cm = setup_k(k)
    shards = encode_parts_array(p, cm, np.random.default_rng(950 + k).integers(0, 3, (k, 33, p.n_rows), dtype=np.uint8))
    order = np.arange(p.n_rows)[::-1]

    def refuse(*args, **kwargs):
        raise AssertionError("kernel called")

    for failed in range(p.n_nodes):
        plan = plan_repair(p, cm, failed)
        payloads = {h: shards[h] for h in plan.helper_nodes}
        downloads = compute_downloads(plan, payloads)
        with monkeypatch.context() as m:
            for name in ("residues", "_transpose", "_residue_stack", "_apply", "_sum_halves"):
                m.setattr(repair, name, refuse)
            hands = [dataclasses.replace(plan, projector_base=None)]
            if failed < k:
                hands.append(relabeled_plan(plan, order))
            for hand in hands:
                assert hand._selects is None and hand.projector_base is None
                with pytest.raises(ValueError, match="neither"):
                    compute_downloads(hand, payloads)
                with pytest.raises(ValueError, match="neither"):
                    execute_repair(hand, downloads)
                assert "_gathers" not in vars(hand) and "_one_slot" not in vars(hand)


@pytest.mark.parametrize("cols", [1, 2, 4, 8, 16, 64])
def test_shard_layout_kernels_match_the_dense_view(cols):
    # The signed gather of one-slot signed rows, every run select with
    # its merge, and pair selects of alternating and random rows with
    # their merges, against plain indexing.
    rng = np.random.default_rng(cols)
    x = rng.integers(0, 3, size=(37, cols), dtype=np.uint8)
    slots = rng.permutation(cols) + cols * rng.integers(0, 2, cols)
    assert np.array_equal(reduce_sum(_signed(slots, cols).terms(x)), dense_apply(SparseRows(slots[:, None], cols), x))
    if cols < 2:
        return
    for bit in range(cols.bit_length() - 1):
        check_select(_Runs(bit), np.flatnonzero(((np.arange(cols) >> bit) & 1) == 0), x)
    # Bytes beyond the residues too: a select and a merge move any byte.
    x = rng.integers(0, 256, size=(37, cols), dtype=np.uint8)
    pairs = np.arange(cols // 2)
    for high in (pair_parity(cols // 2), ~pair_parity(cols // 2), rng.integers(0, 2, cols // 2).astype(bool)):
        check_select(_Pairs(high), 2 * pairs + high, x)


def check_select(form, rows, x):
    mine = form.take(x)
    assert mine.flags.c_contiguous and np.array_equal(mine, x[:, rows])
    rest = np.setdiff1d(np.arange(x.shape[1]), rows)
    assert np.array_equal(form.merge(mine, np.ascontiguousarray(x[:, rest])), x)


def test_data_node_repairs_never_transpose(monkeypatch):
    # The shard layout runs every data-node plan, node 0's too, with
    # neither a transpose nor a residue stack; a parity plan still
    # reaches them, so a dispatch that flips fails here.
    def refuse(*args, **kwargs):
        raise AssertionError("symbol-major kernel called")

    monkeypatch.setattr(repair, "_transpose", refuse)
    monkeypatch.setattr(repair, "_residue_stack", refuse)
    for k in range(2, 11):
        p, cm = setup_k(k)
        shards = encode_parts_array(p, cm, np.random.default_rng(k).integers(0, 3, (k, 9, p.n_rows), dtype=np.uint8))
        for failed in range(k):
            plan = plan_repair(p, cm, failed)
            downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
            assert np.array_equal(execute_repair(plan, downloads), shards[failed]), (k, failed)
        for failed in (p.k, p.k + 1):
            plan = plan_repair(p, cm, failed)
            with pytest.raises(AssertionError, match="symbol-major"):
                compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})


def test_row_selection_matches_its_dense_view():
    # Every download of every plan, row selections and parity matrices,
    # equals its dense view applied to the shard.
    for k in range(2, 9):
        p, cm = setup_k(k)
        x = np.random.default_rng(9 + k).integers(0, 3, size=(5, p.n_rows), dtype=np.uint8)
        for failed in range(p.n_nodes):
            plan = plan_repair(p, cm, failed)
            downloads = compute_downloads(plan, {h: x for h in plan.helper_nodes})
            for node, m in plan.downloads.items():
                assert m.array.shape == (m.rows, m.cols) == (p.n_rows // 2, p.n_rows)
                assert np.array_equal(downloads[node], dense_apply(m, x)), (k, failed, node)


@pytest.mark.parametrize("k", range(3, 11))
def test_repair_random_files(k):
    p, cm = setup_k(k)
    rng = np.random.default_rng(300 + k)
    parts = rng.integers(0, 3, size=(k, 200, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for failed in (k, k + 1):
        plan = plan_repair(p, cm, failed)
        downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
        assert np.array_equal(execute_repair(plan, downloads), shards[failed])
        # The columns each download gathers are exactly its nonzero
        # columns, the ones io_per_node charges for.
        for node, m in plan.downloads.items():
            slots = m.slots
            gathered = np.unique(slots[slots < 2 * p.n_rows] % p.n_rows).tolist()
            assert gathered == np.flatnonzero(m.array.any(axis=0)).tolist()
            assert len(gathered) == plan.io_per_node[node]


def test_repair_zero_file():
    p, cm = setup_k(4)
    got, want = run_repair(p, cm, np.zeros((4, p.n_rows), dtype=np.uint8), 4)
    assert not got.any() and np.array_equal(got, want)


def test_downloads_are_views_of_symbol_major_arrays():
    # A parity plan's downloads are transposed views of symbol-major
    # (N/2, stripes) arrays; a data plan's are C-contiguous arrays in the
    # shard layout.  Each plan also takes the other layout back.
    p, cm = setup_k(5)
    half = p.n_rows // 2
    parts = np.random.default_rng(5).integers(0, 3, size=(p.k, 2, 3, 7, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts.reshape(p.k, -1, p.n_rows)).reshape((p.n_nodes,) + parts.shape[1:])
    for failed in range(p.n_nodes):
        plan = plan_repair(p, cm, failed)
        downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
        for d in downloads.values():
            assert d.shape == (2, 3, 7, half)
            flat = d.reshape(-1, half)
            assert flat.flags.c_contiguous if failed < p.k else flat.T.flags.c_contiguous
        rebuilt = execute_repair(plan, downloads)
        assert rebuilt.flags.c_contiguous and np.array_equal(rebuilt, shards[failed])
        # A parity plan never builds the shard-layout forms.
        assert ("_gathers" in vars(plan)) == (failed < p.k)
        if failed < p.k:
            others = {h: np.ascontiguousarray(d.reshape(-1, half).T).T for h, d in downloads.items()}
        else:
            others = {h: np.ascontiguousarray(d.reshape(-1, half)) for h, d in downloads.items()}
        assert np.array_equal(execute_repair(plan, others), shards[failed].reshape(-1, p.n_rows))


@pytest.mark.parametrize("length", [7, 9])
def test_compute_downloads_rejects_wrong_row_length(length):
    p, cm = setup_k(4)
    plan = plan_repair(p, cm, 0)
    payloads = {h: np.zeros((5, length), dtype=np.uint8) for h in plan.helper_nodes}
    with pytest.raises(ValueError, match="last axis"):
        compute_downloads(plan, payloads)


def test_compute_downloads_rejects_inconsistent_leading_shapes():
    p, cm = setup_k(4)
    for failed in (0, p.k):
        plan = plan_repair(p, cm, failed)
        payloads = {h: np.zeros((5, p.n_rows), dtype=np.uint8) for h in plan.helper_nodes}
        payloads[plan.helper_nodes[-1]] = np.zeros((6, p.n_rows), dtype=np.uint8)
        with pytest.raises(ValueError, match="leading shapes"):
            compute_downloads(plan, payloads)


def test_execute_repair_validates_downloads():
    p, cm = setup_k(3)
    plan = plan_repair(p, cm, 3)
    shards = encode_parts_array(p, cm, np.zeros((3, 4), dtype=np.uint8))
    downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
    with pytest.raises(ValueError):
        execute_repair(plan, {0: downloads[0]})
    bad = dict(downloads)
    bad[0] = bad[0][..., :1]
    with pytest.raises(ValueError):
        execute_repair(plan, bad)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def test_bound_k3():
    r = io_lower_bound(3)
    assert (r.lower_bound, r.achieved_io, r.gap) == (12, 13, 1)
    assert not r.clamped


def test_bound_k4():
    r = io_lower_bound(4)
    assert r.lower_bound == Fraction(100, 3)
    assert r.achieved_io == 36
    assert r.lower_bound_ceil == 34


def test_bound_k5():
    r = io_lower_bound(5)
    assert (r.lower_bound, r.achieved_io) == (84, 91)


def test_bound_k2_clamped():
    r = io_lower_bound(2)
    assert r.lower_bound == 3 and r.achieved_io == 4
    assert r.clamped
    assert r.displayed_bound == r.bandwidth_floor == 3


def test_bound_rejects_k1():
    with pytest.raises(ValueError):
        io_lower_bound(1)


@pytest.mark.parametrize("k", range(2, 11))
def test_achieved_at_least_ceiling(k):
    r = io_lower_bound(k)
    assert r.achieved_io >= r.lower_bound_ceil


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_rref_enumeration_counts():
    assert sum(1 for _ in enumerate_rref(1, 2)) == 4
    assert sum(1 for _ in enumerate_rref(2, 4)) == 130


def test_brute_force_k2():
    r = brute_force_min_io(2)
    assert r.min_io == 4  # frozen from the enumeration itself
    assert r.lower_bound_ceil == 3 and r.construction_io == 4
    assert r.valid_pairs == 4
    assert r.witness.s.array.tolist() == [[1, 0]]
    assert r.witness.s_tilde.array.tolist() == [[1, 2]]


def test_brute_force_k3():
    # The minimum, the pair count and the first minimal pair in
    # enumeration order, all frozen from the enumeration itself.
    r = brute_force_min_io(3)
    assert (r.min_io, r.valid_pairs, r.lower_bound_ceil, r.construction_io) == (13, 9, 12, 13)
    assert r.witness.s.array.tolist() == [[1, 0, 0, 1], [0, 1, 0, 1]]
    assert r.witness.s_tilde.array.tolist() == [[1, 0, 2, 1], [0, 1, 0, 0]]
    assert r.witness.variant == FIRST_PARITY


def test_brute_force_witness_is_valid():
    _, cm = setup_k(2)
    r = brute_force_min_io(2)
    assert verify_repair_conditions(r.witness, cm) == (True, "")


def test_brute_force_matches_dense_ranks_on_a_flipped_set():
    # Row-space masks against the dense ranks of every stack, pair by pair
    # in enumeration order, on coding matrices the construction does not
    # use.
    p, cm = setup_k(2)
    bad = flip_one_sign(cm)
    reps = list(enumerate_rref(1, 2))
    valid, best = 0, None
    for s, st in itertools.product(reps, repeat=2):
        products = [mul(st, dense(a)) for a in bad.matrices]
        if rank(np.vstack([s, st])) == 2 and rank(np.vstack([s, sub(products[0], products[1])])) == 1:
            valid += 1
            io = 2 * int(s.any(axis=0).sum()) + int(st.any(axis=0).sum())
            if best is None or io < best[0]:
                best = (io, s.tolist(), st.tolist())
    r = brute_force_min_io(2, bad)
    assert (r.valid_pairs, r.min_io) == (valid, best[0])
    assert [r.witness.s.array.tolist(), r.witness.s_tilde.array.tolist()] == list(best[1:])


def test_brute_force_rejects_large_k():
    with pytest.raises(ValueError, match="k <= 3"):
        brute_force_min_io(4)
