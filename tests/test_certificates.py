"""Unit-column certificates against the dense-elimination oracle.

The runtime checks MDS ranks by a cycle walk and the repair rank
conditions by unit-column pivots, on sparse rows.  The dense bodies they
replaced are kept here, and the reports of both must agree exactly, on
the healthy coding matrices and on ones with a flipped sign.
"""

from fractions import Fraction

import numpy as np
import pytest

import zigzag3.repair as repair
import zigzag3.verification as verification
from zigzag3.code import (
    CodeParams,
    encode_parts_array,
    CodingMatrixSet,
    MdsReport,
    _fixed_space_dim,
    build_coding_matrices,
    verify_mds,
)
from zigzag3.gf3 import Gf3Matrix, SignedPermutation, SingularMatrixError, inverse, rank
from zigzag3.repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    ConditionCheck,
    ConditionReport,
    DualityReport,
    MissingPivotError,
    RankEquality,
    RepairMatrixPair,
    SparseRows,
    ZeroColumnReport,
    _conditions,
    _stacked_ranks,
    _unit_pivots,
    build_repair_pair,
    compute_downloads,
    execute_repair,
    plan_repair,
    verify_duality,
    verify_repair_conditions,
    verify_zero_column_structure,
)
from zigzag3.code import basis_index
from zigzag3.verification import flip_one_sign, run_sweep

VARIANTS = (FIRST_PARITY, SECOND_PARITY)


# ---------------------------------------------------------------------------
# dense oracles: the elimination-based bodies the certificates replaced
# ---------------------------------------------------------------------------


def dense_verify_mds(cm):
    params = cm.params
    n = params.n_rows
    violations = []
    dense = [cm.dense(j) for j in range(params.k)]
    for i in range(params.k):
        r = rank(dense[i])
        if r != n:
            violations.append(f"rank(A_{i}) = {r}, expected {n}")
    for i in range(params.k):
        for j in range(params.k):
            if i == j:
                continue
            r = rank(dense[i] - dense[j])
            if r != n:
                violations.append(f"rank(A_{i} - A_{j}) = {r}, expected {n}")
    return MdsReport(params, tuple(violations))


def dense(m):
    return Gf3Matrix(m.array)


def dense_interference_transform(cm, l, variant):
    identity = cm.dense(0)
    if variant == FIRST_PARITY:
        return identity - cm.dense(l)
    return identity + cm.dense(l)


def dense_verify_repair_conditions(pair, cm, variant=None):
    if variant is None:
        variant = pair.variant
    n = cm.params.n_rows
    s, st = dense(pair.s), dense(pair.s_tilde)
    if variant == FIRST_PARITY:
        base = st @ cm.dense(0)
    else:
        base = st @ cm.matrices[0].inverse().dense()
    checks = [ConditionCheck("full-rank", n, rank(Gf3Matrix.stack(s, base)))]
    for l in range(1, cm.params.k):
        stacked = Gf3Matrix.stack(s, st @ dense_interference_transform(cm, l, variant))
        checks.append(ConditionCheck(f"interference-l{l}", n // 2, rank(stacked)))
    return ConditionReport(variant, tuple(checks))


def dense_verify_duality(pair, cm):
    swapped_report = dense_verify_repair_conditions(pair.swapped(), cm)
    identity = cm.dense(0)
    s, st = dense(pair.s), dense(pair.s_tilde)
    equalities = []
    for l in range(1, cm.params.k):
        a_l = cm.dense(l)
        lhs = rank(Gf3Matrix.stack(st, s @ (identity + a_l)))
        rhs = rank(Gf3Matrix.stack(s, st @ (identity - a_l)))
        equalities.append(RankEquality(l, lhs, rhs))
    return DualityReport(pair.variant, swapped_report, tuple(equalities))


def dense_verify_zero_column_structure(pair, params):
    n = params.n_rows
    s, st = dense(pair.s), dense(pair.s_tilde)

    def violations(zero_cols, other, label):
        out = []
        for i in zero_cols:
            base = other.column(i).astype(np.int16)
            for l in range(1, params.k):
                j = i ^ basis_index(params, l)
                col = other.column(j).astype(np.int16)
                if not (np.array_equal(col, base) or np.array_equal(col, (-base) % 3)):
                    out.append(f"{label}: column {j} is not +-column {i} (flip l={l})")
        return out

    zc_s, zc_st = s.zero_columns(), st.zero_columns()
    return ZeroColumnReport(
        variant=pair.variant,
        zero_cols_s=tuple(zc_s),
        zero_cols_s_tilde=tuple(zc_st),
        nonzero_cols_s=s.nonzero_column_count(),
        nonzero_cols_s_tilde=st.nonzero_column_count(),
        per_matrix_floor=n - Fraction(n, 2 * (params.k - 1)),
        propagation_violations=tuple(
            violations(zc_s, st, "parity-side") + violations(zc_st, s, "systematic-side")
        ),
    )


def coding_sets(k):
    cm = build_coding_matrices(CodeParams(k))
    return {"healthy": cm, "flipped": flip_one_sign(cm)}


# ---------------------------------------------------------------------------
# reports equal the oracle's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 9))
def test_reports_match_dense_oracle(k):
    for label, cm in coding_sets(k).items():
        assert verify_mds(cm) == dense_verify_mds(cm), (k, label)
        for variant in VARIANTS:
            pair = build_repair_pair(k, variant)
            assert verify_repair_conditions(pair, cm) == dense_verify_repair_conditions(
                pair, cm
            ), (k, label, variant)
            assert verify_duality(pair, cm) == dense_verify_duality(pair, cm), (k, label, variant)
            assert verify_zero_column_structure(pair, cm.params) == dense_verify_zero_column_structure(
                pair, cm.params
            ), (k, label, variant)


def test_zero_column_report_on_other_pairs():
    # Pairs with many zero columns, and columns equal only up to rows.
    params = CodeParams(3)
    healthy = build_repair_pair(3, FIRST_PARITY)
    for s, st in (
        ([[1, 0, 0, 0], [0, 0, 0, 0]], [[1, 1, 2, 0], [0, 2, 0, 1]]),
        ([[0, 1, 0, 0], [0, 0, 1, 0]], [[1, 2, 0, 0], [0, 0, 1, 2]]),
        (healthy.s.array, np.zeros((2, 4))),
    ):
        pair = RepairMatrixPair(SparseRows.from_dense(s), SparseRows.from_dense(st), FIRST_PARITY)
        assert verify_zero_column_structure(pair, params) == dense_verify_zero_column_structure(pair, params)


def test_flipped_sign_reports_fail():
    # The oracle comparison above is only meaningful if the flipped set
    # really fails: MDS from k = 2, the repair conditions from k = 3.
    for k in (2, 3, 6):
        bad = coding_sets(k)["flipped"]
        assert not verify_mds(bad).ok, k
        if k > 2:
            assert not verify_repair_conditions(build_repair_pair(k, FIRST_PARITY), bad).ok, k


def without_seconds(report):
    out = report.to_dict()
    for check in out["checks"]:
        assert check.pop("seconds") >= 0
    return out


@pytest.mark.parametrize("fault_hook", [None, flip_one_sign], ids=["healthy", "flipped"])
def test_sweep_matches_dense_oracle(fault_hook, monkeypatch):
    got = without_seconds(run_sweep(range(2, 9), trials=5, fault_hook=fault_hook))
    monkeypatch.setattr(verification, "verify_mds", dense_verify_mds)
    monkeypatch.setattr(verification, "verify_repair_conditions", dense_verify_repair_conditions)
    monkeypatch.setattr(verification, "verify_duality", dense_verify_duality)
    monkeypatch.setattr(verification, "verify_zero_column_structure", dense_verify_zero_column_structure)
    want = without_seconds(run_sweep(range(2, 9), trials=5, fault_hook=fault_hook))
    assert got == want
    assert got["passed"] is (fault_hook is None)


# ---------------------------------------------------------------------------
# stacked rank: every branch against rank(stack)
# ---------------------------------------------------------------------------


def test_stacked_rank_matches_dense_on_flipped_entries(monkeypatch):
    # Every way a residual block gets its rank: a zero block, a nonzero
    # block by its (partial) signed-permutation pattern without `_rank`,
    # the rest by `_rank` peeling singletons and, if anything is left,
    # dense elimination.
    dense_calls = []
    rank_calls = []
    branches = set()

    def counting_rank(m):
        dense_calls.append(m.shape)
        return rank(m)

    def branch_rank(t):
        rank_calls.append(t.rows)
        dense_calls.clear()
        got = real_rank(t)
        branches.add("dense-fallback" if dense_calls else "peeled")
        return got

    def branch_block_ranks(t, rows):
        rank_calls.clear()
        got = real_block_ranks(t, rows)
        blocks = np.bincount(t.r // rows, minlength=t.rows // rows)
        if (blocks == 0).any():
            branches.add("zero")
        if np.count_nonzero(blocks) > len(rank_calls):
            branches.add("pattern")
        return got

    real_rank, real_block_ranks = repair._rank, repair._block_ranks
    monkeypatch.setattr(repair, "rank", counting_rank)
    monkeypatch.setattr(repair, "_rank", branch_rank)
    monkeypatch.setattr(repair, "_block_ranks", branch_block_ranks)
    rng = np.random.default_rng(606)
    for k in range(3, 7):
        cm = build_coding_matrices(CodeParams(k))
        for variant in VARIANTS:
            pair = build_repair_pair(k, variant)
            perms, combos = _conditions(cm, variant)
            for flips in range(4):
                st = pair.s_tilde.array.copy()
                for _ in range(flips):
                    r, c = rng.integers(st.shape[0]), rng.integers(st.shape[1])
                    st[r, c] = (st[r, c] + rng.integers(1, 3)) % 3
                got = _stacked_ranks(pair.s, SparseRows.from_dense(st), perms, combos)
                for combo, rank_got in zip(combos, got):
                    t = sum(sign * (Gf3Matrix(st) @ perms[i].dense()).array.astype(int) for i, sign in combo)
                    want = rank(Gf3Matrix.stack(dense(pair.s), Gf3Matrix(t)))
                    assert rank_got == want, (k, variant, flips, combo)
    assert branches == {"zero", "pattern", "peeled", "dense-fallback"}


# A 2 x 4 matrix whose second row owns no unit column.
PIVOT_FREE = SparseRows.from_dense([[1, 1, 1, 0], [1, 2, 0, 0]])


def test_pivot_free_pair_gets_exact_ranks():
    assert _unit_pivots(PIVOT_FREE) is None
    cm = build_coding_matrices(CodeParams(3))
    healthy = build_repair_pair(3, FIRST_PARITY)
    for pair in (
        RepairMatrixPair(PIVOT_FREE, PIVOT_FREE, FIRST_PARITY),
        RepairMatrixPair(PIVOT_FREE, healthy.s_tilde, FIRST_PARITY),
        RepairMatrixPair(healthy.s, PIVOT_FREE, SECOND_PARITY),
    ):
        assert verify_repair_conditions(pair, cm) == dense_verify_repair_conditions(pair, cm)
        assert verify_duality(pair, cm) == dense_verify_duality(pair, cm)
        identity = SignedPermutation.identity(pair.s.cols)
        got = _stacked_ranks(pair.s, pair.s_tilde, [identity], [((0, 1),)])
        assert got == [rank(Gf3Matrix.stack(dense(pair.s), dense(pair.s_tilde)))]


# ---------------------------------------------------------------------------
# cycle walk
# ---------------------------------------------------------------------------


def random_signed_permutation(rng, n, cycle_lengths=None):
    """A signed permutation of size n built from the given cycle lengths
    (random ones summing to n by default), with random signs."""
    if cycle_lengths is None:
        cycle_lengths = []
        while sum(cycle_lengths) < n:
            cycle_lengths.append(int(rng.integers(1, n - sum(cycle_lengths) + 1)))
    order = rng.permutation(n)
    target = np.empty(n, dtype=np.int64)
    at = 0
    for length in cycle_lengths:
        cycle = order[at : at + length]
        target[cycle] = np.roll(cycle, -1)
        at += length
    return SignedPermutation(target, rng.choice([-1, 1], size=n))


def dense_nullity(p):
    return p.size - rank(Gf3Matrix.identity(p.size) - p.dense())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
def test_fixed_space_dim_matches_dense(n):
    rng = np.random.default_rng(n)
    # Lengths 1, 2, 3, ... while they fit, then whatever is left.
    staircase = []
    while sum(staircase) + len(staircase) + 1 <= n:
        staircase.append(len(staircase) + 1)
    if sum(staircase) < n:
        staircase.append(n - sum(staircase))
    for cycle_lengths in [None] * 20 + [[n], [1] * n, staircase]:
        p = random_signed_permutation(rng, n, cycle_lengths)
        assert _fixed_space_dim(p) == dense_nullity(p), (n, cycle_lengths)


def test_fixed_space_dim_cycle_sign_products():
    # A 3-cycle with signs multiplying to +1 fixes a line; to -1, nothing.
    plus = SignedPermutation([1, 2, 0], [-1, -1, 1])
    minus = SignedPermutation([1, 2, 0], [-1, 1, 1])
    assert (_fixed_space_dim(plus), _fixed_space_dim(minus)) == (1, 0)
    assert _fixed_space_dim(SignedPermutation.identity(4)) == 4
    assert _fixed_space_dim(SignedPermutation.identity(4).negate()) == 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_verify_mds_matches_dense_on_random_sets(k):
    params = CodeParams(k)
    rng = np.random.default_rng(40 + k)
    for _ in range(25):
        mats = tuple(random_signed_permutation(rng, params.n_rows) for _ in range(k))
        cm = CodingMatrixSet(params, mats)
        assert verify_mds(cm) == dense_verify_mds(cm)


# ---------------------------------------------------------------------------
# pivot precondition of the plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("variant", VARIANTS)
def test_repair_pairs_own_unit_pivots(k, variant):
    pair = build_repair_pair(k, variant)
    for m in (pair.s, pair.s_tilde):
        pivots = _unit_pivots(m)
        assert pivots is not None, (k, variant)
        a = m.array
        assert np.array_equal(a[:, pivots.unit], np.diag(pivots.sign))
        assert np.array_equal(np.flatnonzero(pivots.row_of >= 0), np.sort(pivots.unit))
        assert np.array_equal(pivots.row_of[pivots.unit], np.arange(m.rows))
        # rest is m off the pivot columns.
        off = a.copy()
        off[:, pivots.unit] = 0
        assert np.array_equal(repair._merged(pivots.rest).array, off)
        # Each pivot is the first unit column of its row.
        unit_cols = np.flatnonzero((a != 0).sum(axis=0) == 1)
        owns = a[:, unit_cols] != 0
        assert owns.any(axis=1).all()
        assert np.array_equal(unit_cols[np.argmax(owns, axis=1)], pivots.unit)


def test_plan_rejects_pivot_free_pair(monkeypatch):
    p = CodeParams(3)
    cm = build_coding_matrices(p)
    monkeypatch.setattr(
        repair, "build_repair_pair", lambda k, variant: RepairMatrixPair(PIVOT_FREE, PIVOT_FREE, variant)
    )
    for failed in (3, 4):
        with pytest.raises(MissingPivotError):
            plan_repair(p, cm, failed)


def test_plan_rejects_singular_stack_like_dense_inverse(monkeypatch):
    # With s_tilde = 0 every interference row is 0 (consistent), but the
    # stacked system has rank N/2: the Schur complement is 0.
    p = CodeParams(3)
    cm = build_coding_matrices(p)
    s = build_repair_pair(3, FIRST_PARITY).s
    zero = SparseRows.from_dense(np.zeros((s.rows, s.cols)))
    monkeypatch.setattr(repair, "build_repair_pair", lambda k, variant: RepairMatrixPair(s, zero, variant))
    with pytest.raises(SingularMatrixError):
        inverse(Gf3Matrix.stack(dense(s), dense(zero)))
    for failed in (3, 4):
        with pytest.raises(SingularMatrixError):
            plan_repair(p, cm, failed)


@pytest.mark.parametrize("k", [9, 10, 11])
def test_plan_repairs_beyond_dense_oracle_range(k):
    # The dense oracle plan is compared up to k = 8; past that the Schur
    # inverse and projectors are checked by a repair round trip.
    p = CodeParams(k)
    cm = build_coding_matrices(p)
    parts = np.random.default_rng(k).integers(0, 3, size=(k, 8, p.n_rows), dtype=np.uint8)
    shards = encode_parts_array(p, cm, parts)
    for failed in (k, k + 1):
        plan = plan_repair(p, cm, failed)
        downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
        assert np.array_equal(execute_repair(plan, downloads), shards[failed]), (k, failed)
