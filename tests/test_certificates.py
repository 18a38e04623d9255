"""Unit-column certificates against the dense-elimination oracle.

The runtime checks MDS ranks by a cycle walk and the repair rank
conditions by unit-column pivots, on sparse rows.  The dense bodies they
replaced are kept here.  Every rank and zero-column set the certificates
compute, and each check's (ok, detail), must equal what dense elimination
gives, on the healthy coding matrices and on ones with a flipped sign.
A sweep shares each repair pair's reductions among its checks; what it
reports must equal what each check reports on its own.
"""

import contextlib
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zigzag3.repair as repair
import zigzag3.verification as verification
from gf3_oracle import add, dense, gf3, identity, mul, sub
from zigzag3.code import (
    CodeParams,
    encode_parts_array,
    CodingMatrixSet,
    build_coding_matrices,
)
from zigzag3.gf3 import SignedPermutation, SingularMatrixError, inverse, rank
from zigzag3.repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    RepairPlan,
    SparseRows,
    compute_downloads,
    execute_repair,
    plan_repair,
)
from zigzag3.code import basis_index
from zigzag3.verification import (
    MissingPivotError,
    RepairMatrixPair,
    _condition_ranks,
    _conditions,
    _duality_ranks,
    _fixed_space_dim,
    _stacked_ranks,
    _unit_pivots,
    _zero_columns,
    build_repair_pair,
    flip_one_sign,
    run_sweep,
    verify_duality,
    verify_mds,
    verify_repair_conditions,
    verify_zero_column_structure,
)

VARIANTS = (FIRST_PARITY, SECOND_PARITY)


# ---------------------------------------------------------------------------
# dense oracles: the elimination-based bodies the certificates replaced
# ---------------------------------------------------------------------------


def dense_verify_mds(cm):
    params = cm.params
    n = params.n_rows
    violations = []
    a = [dense(m) for m in cm.matrices]
    for i in range(params.k):
        r = rank(a[i])
        if r != n:
            violations.append(f"rank(A_{i}) = {r}, expected {n}")
    for i in range(params.k):
        for j in range(params.k):
            if i == j:
                continue
            r = rank(sub(a[i], a[j]))
            if r != n:
                violations.append(f"rank(A_{i} - A_{j}) = {r}, expected {n}")
    return not violations, "; ".join(violations)


def dense_interference_transform(cm, l, variant):
    a0, a_l = dense(cm.matrices[0]), dense(cm.matrices[l])
    return sub(a0, a_l) if variant == FIRST_PARITY else add(a0, a_l)


def dense_condition_ranks(pair, cm):
    """The rank of the full-rank stack, then of each interference stack."""
    variant = pair.variant
    s, st = pair.s.array, pair.s_tilde.array
    base = mul(st, dense(cm.matrices[0] if variant == FIRST_PARITY else cm.matrices[0].inverse()))
    ranks = [rank(np.vstack([s, base]))]
    for l in range(1, cm.params.k):
        ranks.append(rank(np.vstack([s, mul(st, dense_interference_transform(cm, l, variant))])))
    return ranks


def condition_failures(n, ranks):
    names = ["full-rank"] + [f"interference-l{l}" for l in range(1, len(ranks))]
    expected = [n] + [n // 2] * (len(ranks) - 1)
    return [f"{name}: {r} != {e}" for name, r, e in zip(names, ranks, expected) if r != e]


def dense_verify_repair_conditions(pair, cm):
    failures = condition_failures(cm.params.n_rows, dense_condition_ranks(pair, cm))
    return not failures, "; ".join(failures)


def dense_duality_ranks(pair, cm):
    """The swapped pair's condition ranks, and per l the ranks of
    stack(s_tilde, s(A_0 + A_l)) and stack(s, s_tilde(A_0 - A_l))."""
    a0 = dense(cm.matrices[0])
    s, st = pair.s.array, pair.s_tilde.array
    sides = []
    for l in range(1, cm.params.k):
        a_l = dense(cm.matrices[l])
        sides.append((rank(np.vstack([st, mul(s, add(a0, a_l))])), rank(np.vstack([s, mul(st, sub(a0, a_l))]))))
    return dense_condition_ranks(pair.swapped(), cm), sides


def dense_verify_duality(pair, cm):
    swapped, sides = dense_duality_ranks(pair, cm)
    ok = not condition_failures(cm.params.n_rows, swapped) and all(a == b for a, b in sides)
    return ok, "" if ok else "swapped-pair conditions or rank equalities failed"


def dense_zero_columns(pair):
    return tuple(np.flatnonzero(~m.array.any(axis=0)).tolist() for m in (pair.s, pair.s_tilde))


def dense_verify_zero_column_structure(pair, params):
    n = params.n_rows
    s, st = pair.s.array, pair.s_tilde.array

    def violations(zero_cols, other, label):
        out = []
        for i in zero_cols:
            base = other[:, i].astype(np.int16)
            for l in range(1, params.k):
                j = i ^ basis_index(params, l)
                col = other[:, j].astype(np.int16)
                if not (np.array_equal(col, base) or np.array_equal(col, (-base) % 3)):
                    out.append(f"{label}: column {j} is not +-column {i} (flip l={l})")
        return out

    zc_s, zc_st = dense_zero_columns(pair)
    found = violations(zc_s, st, "parity-side") + violations(zc_st, s, "systematic-side")
    floor = n - Fraction(n, 2 * (params.k - 1))
    detail = "; ".join([f"zero cols s={tuple(zc_s)} s_tilde={tuple(zc_st)}; floor {floor}", *found])
    return zc_s == [0] and not zc_st and not found, detail


def coding_sets(k):
    cm = build_coding_matrices(CodeParams(k))
    return {"healthy": cm, "flipped": flip_one_sign(cm)}


# ---------------------------------------------------------------------------
# reports equal the oracle's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 9))
def test_reports_match_dense_oracle(k):
    # Each rank and zero-column set a check computes, and its verdict and
    # detail, equal the oracle's.
    for label, cm in coding_sets(k).items():
        assert verify_mds(cm) == dense_verify_mds(cm), (k, label)
        for variant in VARIANTS:
            pair = build_repair_pair(k, variant)
            at = (k, label, variant)
            assert _condition_ranks(pair, cm) == dense_condition_ranks(pair, cm), at
            assert verify_repair_conditions(pair, cm) == dense_verify_repair_conditions(pair, cm), at
            assert _duality_ranks(pair, cm) == dense_duality_ranks(pair, cm), at
            assert verify_duality(pair, cm) == dense_verify_duality(pair, cm), at
            assert _zero_columns(pair) == dense_zero_columns(pair), at
            assert verify_zero_column_structure(pair, cm.params) == dense_verify_zero_column_structure(
                pair, cm.params
            ), at


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
        assert _zero_columns(pair) == dense_zero_columns(pair)
        assert verify_zero_column_structure(pair, params) == dense_verify_zero_column_structure(pair, params)


def test_flipped_sign_reports_fail():
    # The oracle comparison above is only meaningful if the flipped set
    # really fails: MDS from k = 2, the repair conditions from k = 3.
    for k in (2, 3, 6):
        bad = coding_sets(k)["flipped"]
        assert not verify_mds(bad)[0], k
        if k > 2:
            assert not verify_repair_conditions(build_repair_pair(k, FIRST_PARITY), bad)[0], k


def without_seconds(report):
    out = report.to_dict()
    for timed in out["checks"] + out.pop("setup_seconds"):
        assert timed.pop("seconds") >= 0
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
# one elimination per product in a sweep
# ---------------------------------------------------------------------------


def plan_fields(plan):
    """A plan, or the error building it raised, as comparable values."""
    if not isinstance(plan, RepairPlan):
        return type(plan).__name__, str(plan)

    def slots(matrices):
        return {node: m.slots.tolist() for node, m in matrices.items()}

    return (slots(plan.downloads), slots(plan.projectors), plan.projector_base.slots.tolist(),
            plan.solve_inverse.slots.tolist(), plan.top, plan.bottom_node, plan.io_per_node)


def recording_plans(monkeypatch):
    """Record every plan the sweep's io-meters check builds, or its error."""
    plans = {}

    def record(params, cm, failed):
        try:
            plans[failed] = repair.plan_repair(params, cm, failed)
        except Exception as exc:  # noqa: BLE001
            plans[failed] = exc
            raise
        return plans[failed]

    monkeypatch.setattr(verification, "plan_repair", record)
    return plans


def with_a0(cm, target, sign):
    return CodingMatrixSet(cm.params, (SignedPermutation(target, sign), *cm.matrices[1:]))


def a0_sign_flipped(cm):
    """A_0 differs from I by one sign, and equals its inverse."""
    sign = cm.matrices[0].sign.copy()
    sign[0] = -sign[0]
    return with_a0(cm, cm.matrices[0].target, sign)


def a0_three_cycle(cm):
    """A_0 differs from its inverse: rows 0, 1, 2 are cycled."""
    target = cm.matrices[0].target.copy()
    target[:3] = target[[1, 2, 0]]
    return with_a0(cm, target, cm.matrices[0].sign)


SWEEP_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "sweep.json"


def sweep_rows(report):
    """(k, name, passed, detail) of every check, as JSON lists; the
    seconds vary from run to run and are left out."""
    return [[c.k, c.name, c.passed, c.detail] for c in report.checks]


def test_sweep_reports_what_the_fixture_pins():
    # Every check's verdict and detail, healthy at k = 2..9 and with one
    # flipped sign at k = 2..6, equal what `fixtures/sweep.json` pins:
    # a faster sweep computes and reports the same.  The fixture is
    # {"healthy": sweep_rows(run_sweep(range(2, 10))),
    #  "flipped": sweep_rows(run_sweep(range(2, 7), fault_hook=flip_one_sign))}.
    want = json.loads(SWEEP_FIXTURE.read_text())
    assert sweep_rows(run_sweep(range(2, 10))) == want["healthy"]
    assert sweep_rows(run_sweep(range(2, 7), fault_hook=flip_one_sign)) == want["flipped"]


@pytest.mark.parametrize("fault_hook", [None, flip_one_sign], ids=["healthy", "flipped"])
@pytest.mark.parametrize("k", range(2, 13))
def test_shared_sweep_matches_independent_checks(k, fault_hook, monkeypatch):
    # Every check reads the same from shared reductions as from its own,
    # and every parity plan equals the one plan_repair builds alone.
    plans = assert_shared_sweep_matches_independent(k, fault_hook, monkeypatch)
    # A set with a flipped sign is not the paper's, so it gets no plan.
    assert isinstance(plans[k], RepairPlan) == (fault_hook is None)


@pytest.mark.parametrize("fault_hook", [a0_sign_flipped, a0_three_cycle])
@pytest.mark.parametrize("k", [3, 5])
def test_shared_sweep_keeps_products_of_other_a0_apart(k, fault_hook, monkeypatch):
    # Products are shared only for equal permutations, compared by target
    # and sign: I, A_0 and A_0^-1 all differ here.
    assert_shared_sweep_matches_independent(k, fault_hook, monkeypatch)


def assert_shared_sweep_matches_independent(k, fault_hook, monkeypatch):
    """Compare the sweep with one whose checks share nothing, and the
    parity plans built from shared reductions with plans built alone;
    returns the plans the sweep built."""
    plans = recording_plans(monkeypatch)
    shared = run_sweep([k], trials=2, fault_hook=fault_hook)
    with monkeypatch.context() as m:
        m.setattr(verification, "_sharing", lambda pairs: contextlib.nullcontext())
        alone = run_sweep([k], trials=2, fault_hook=fault_hook)
    assert [(c.name, c.passed, c.detail) for c in shared.checks] == [
        (c.name, c.passed, c.detail) for c in alone.checks
    ]
    params = CodeParams(k)
    cm = build_coding_matrices(params) if fault_hook is None else fault_hook(build_coding_matrices(params))

    def plan(failed):
        try:
            return plan_repair(params, cm, failed)
        except Exception as exc:  # noqa: BLE001
            return exc

    # The sweep stops planning at the first plan that raises, so both
    # parity plans are also built from reductions shared by hand.
    pairs = [build_repair_pair(k, variant) for variant in VARIANTS]
    with verification._sharing(pairs):
        for pair in pairs:
            verify_repair_conditions(pair, cm)
            verify_duality(pair, cm)
        by_hand = {failed: plan(failed) for failed in (k, k + 1)}
    for failed, got in by_hand.items():
        want = plan_fields(plan(failed))
        assert plan_fields(got) == want, (k, failed)
        if failed in plans:
            assert plan_fields(plans[failed]) == want, (k, failed)
    return plans


def counting_eliminations(monkeypatch):
    """Record, per ``_reductions`` call, each ``_eliminate`` call it makes
    as (s, pivots, products): every product it stacks, as the bytes of s
    and of the product's own terms."""
    reductions = []
    real_reductions, real_eliminate = verification._reductions, verification._eliminate

    def counting_reductions(*args, **kwargs):
        reductions.append([])
        return real_reductions(*args, **kwargs)

    def counting_eliminate(s, pivots, t):
        block = t.r // s.rows
        products = [
            (s.slots.tobytes(), (t.key[block == i] - (i * s.rows << t.shift)).tobytes())
            for i in range(t.rows // s.rows)
        ]
        reductions[-1].append((s, pivots, products))
        return real_eliminate(s, pivots, t)

    monkeypatch.setattr(verification, "_reductions", counting_reductions)
    monkeypatch.setattr(verification, "_eliminate", counting_eliminate)
    return reductions


@pytest.mark.parametrize("k", range(3, 9))
def test_sweep_eliminates_each_product_once(k, monkeypatch):
    # Counted, not timed: each pair is built once per k, and each distinct
    # product (the matrix reduced against, and the terms reduced) meets
    # `_eliminate` once.  A_0 = I, so each pair's conditions, duality and
    # plan share k products, and each duality left side has k of its own.
    built = []
    real_build = verification.build_repair_pair

    def counting_build(k, variant):
        built.append((k, variant))
        return real_build(k, variant)

    reductions = counting_eliminations(monkeypatch)
    monkeypatch.setattr(verification, "build_repair_pair", counting_build)
    report = run_sweep([k], trials=2)
    assert report.passed
    assert built == [(k, FIRST_PARITY), (k, SECOND_PARITY)]
    products = [p for calls in reductions for _, _, batch in calls for p in batch]
    assert len(set(products)) == len(products) == 4 * k


@pytest.mark.parametrize("k", [9, 10])
def test_reductions_stack_a_fixed_number_of_products(k, monkeypatch):
    # Every product m P has the terms of m, and each term forms at most as
    # many terms of X s_C as the widest row of s_C: that many times the
    # product's terms is its cost.  One `_reductions` call reduces its new
    # products max(1, _BATCH_ENTRIES // cost) at a time, the last batch
    # taking what is left, so no batch forms more than _BATCH_ENTRIES
    # terms of X s_C unless it holds one product.  From k = 9 a pair's k
    # products no longer fit in one batch.
    reductions = counting_eliminations(monkeypatch)
    assert run_sweep([k], trials=2).passed
    split = 0
    for calls in filter(None, reductions):
        s, pivots, _ = calls[0]
        per_term = max(1, int(np.bincount(pivots.rest.r, minlength=s.rows).max()))
        costs = {np.frombuffer(t).size * per_term for _, _, batch in calls for _, t in batch}
        assert len(costs) == 1
        step = max(1, verification._BATCH_ENTRIES // costs.pop())
        sizes = [len(batch) for _, _, batch in calls]
        total = sum(sizes)
        assert sizes == [step] * (total // step) + [total % step] * (total % step > 0), (k, step)
        split += len(sizes) > 1
    assert split


@pytest.mark.parametrize("batch_entries", [verification._BATCH_ENTRIES, 1], ids=["default", "one-per-batch"])
@pytest.mark.parametrize("k", range(2, 10))
def test_batched_reductions_equal_each_product_alone(k, batch_entries, monkeypatch):
    # `_reductions` forms a batch's products by one take of their stacked
    # slot images and splits X and R per product.  Each must equal the
    # reduction of that product alone, formed by `SparseRows.times`: every
    # product of both variants' conditions (the duality check reduces the
    # other variant's), against either matrix of either pair, healthy and
    # with a flipped sign, in the default batches and one product a time.
    monkeypatch.setattr(verification, "_BATCH_ENTRIES", batch_entries)
    for cm in coding_sets(k).values():
        perms = list(dict.fromkeys(p for variant in VARIANTS for p in _conditions(cm, variant)[0]))
        for pair in (build_repair_pair(k, variant) for variant in VARIANTS):
            for s, m in ((pair.s, pair.s_tilde), (pair.s_tilde, pair.s)):
                pivots = _unit_pivots(s)
                for p, got in zip(perms, verification._reductions(s, pivots, m, perms)):
                    want = verification._eliminate(s, pivots, verification._terms(m.times(p).slots, m.cols))
                    for g, w in zip(got, want):
                        assert (g.rows, g.cols) == (w.rows, w.cols)
                        assert np.array_equal(g.key, w.key), (k, pair.variant, s is pair.s)


def test_shared_reductions_end_with_the_sweep():
    # Outside a sweep nothing is kept; inside, the check of a pair's plan
    # takes them, and the plan itself reads none.
    assert verification._SHARED.get() is None
    cm = build_coding_matrices(CodeParams(4))
    pairs = [build_repair_pair(4, v) for v in VARIANTS]
    with verification._sharing(pairs):
        verify_repair_conditions(pairs[0], cm)
        assert len(verification._SHARED.get()[(pairs[0].s, pairs[0].s_tilde)]) == 4
        plan = plan_repair(cm.params, cm, 4)
        assert len(verification._SHARED.get()[(pairs[0].s, pairs[0].s_tilde)]) == 4
        assert verification._check_parity_plan(plan, cm) == []
        assert (pairs[0].s, pairs[0].s_tilde) not in verification._SHARED.get()
    assert verification._SHARED.get() is None
    run_sweep([3, 4])
    assert verification._SHARED.get() is None


def test_failing_elimination_fails_each_check_that_needs_it(monkeypatch):
    # At k = 4 every reduction raises: each check that needs one fails
    # with its own detail, and k = 5 still runs and passes.
    real = verification._eliminate

    def failing(s, pivots, t):
        if s.cols == 8:
            raise RuntimeError("no reduction at N = 8")
        return real(s, pivots, t)

    monkeypatch.setattr(verification, "_eliminate", failing)
    report = run_sweep([4, 5], trials=2)
    failed = [(c.k, c.name, c.detail) for c in report.failures]
    needs = ["repair-conditions-first", "duality-first", "repair-conditions-second", "duality-second", "io-meters"]
    assert failed == [(4, name, "RuntimeError: no reduction at N = 8") for name in needs]
    assert all(c.passed for c in report.checks if c.k == 5)


def test_healthy_paths_never_reach_dense_elimination(monkeypatch):
    # The certificates rank everything a healthy sweep and every plan
    # meet: each healthy block is ranked by its pattern, so neither the
    # peeling of `_rank` nor dense elimination runs; both are only for
    # what fails them (test_stacked_rank_matches_dense_on_flipped_entries).
    def refuse(m):
        raise AssertionError(f"rank of a {np.shape(m)} matrix")

    monkeypatch.setattr(verification, "rank", refuse)
    monkeypatch.setattr(verification, "_rank", refuse)
    report = run_sweep(range(2, 12))
    assert report.passed, [(c.k, c.name, c.detail) for c in report.failures]
    for k in range(2, 12):
        params = CodeParams(k)
        cm = build_coding_matrices(params)
        for node in range(params.n_nodes):
            plan_repair(params, cm, node)


def test_parity_plans_never_eliminate_outside_a_sweep(monkeypatch):
    # A parity plan is built in closed form: no Gaussian elimination runs,
    # and every dense rank, solve and inverse of gf3 goes through
    # ``_row_reduce``.  The sweep's sparse elimination lives in
    # verification, which repair cannot import (test_imports.py).
    def refuse(*args, **kwargs):
        raise AssertionError("elimination reached")

    monkeypatch.setattr("zigzag3.gf3._row_reduce", refuse)
    for k in range(2, 13):
        params = CodeParams(k)
        cm = build_coding_matrices(params)
        for node in (k, k + 1):
            plan_repair(params, cm, node)


@pytest.mark.parametrize("k", [3, 6])
def test_sweep_finds_each_matrix_pivots_once(k, monkeypatch):
    # The conditions, duality and io-meters checks reduce against the
    # pivots of s and s_tilde of both pairs: four matrices, each found once.
    found = []
    real = verification._unit_pivots
    monkeypatch.setattr(verification, "_unit_pivots", lambda s: found.append(s) or real(s))
    assert run_sweep([k], trials=2).passed
    assert len(found) == len({id(s) for s in found}) == 4


def negated(m):
    """``m`` with every entry negated: each slot moves to the other half
    of the residue stack, and padding stays."""
    return SparseRows(np.where(m.slots == 2 * m.cols, m.slots, (m.slots + m.cols) % (2 * m.cols)), m.cols)


@pytest.mark.parametrize("part", ["downloads", "projector base", "one-slot projectors", "solve inverse"])
def test_io_meters_catch_a_plan_that_differs_from_elimination(part, monkeypatch):
    # Each part of a parity plan that differs from what elimination gives
    # fails the io-meters check, for both parities, and nothing else.
    real = repair._plan_parity

    def wrong(params, cm, failed):
        plan = real(params, cm, failed)
        if part == "downloads":
            return dataclasses.replace(plan, downloads={**plan.downloads, 0: negated(plan.downloads[0])})
        if part == "projector base":
            return dataclasses.replace(plan, projector_base=negated(plan.projector_base))
        if part == "one-slot projectors":
            return dataclasses.replace(plan, projectors={**plan.projectors, 2: negated(plan.projectors[2])})
        return dataclasses.replace(plan, solve_inverse=negated(plan.solve_inverse))

    monkeypatch.setattr(repair, "_plan_parity", wrong)
    report = run_sweep([4], trials=2)
    detail = f"node 4: {part} differs from elimination; node 5: {part} differs from elimination"
    assert [(c.name, c.detail) for c in report.failures] == [("io-meters", detail)]


def test_setup_and_check_seconds_tile_each_k(monkeypatch):
    # A clock that reads 0, 1, 2, ...: each k's set-up and check seconds
    # are whole spans between readings, and together they cover every
    # span but the one before each k starts (the previous k's release of
    # what it shared).  So no reading is lost between a k's set-up and its
    # checks or between two checks.
    readings = []

    class Clock:
        @staticmethod
        def perf_counter():
            readings.append(len(readings))
            return float(readings[-1])

    monkeypatch.setattr(verification, "time", Clock)
    report = run_sweep([2, 3], trials=2)
    assert [c.seconds for c in report.checks] == [1.0] * len(report.checks)
    assert report.setup_seconds == (1.0, 1.0)
    assert sum(report.setup_seconds) + sum(c.seconds for c in report.checks) == len(readings) - 2


@pytest.mark.parametrize("k_values, trials", [([], 5), ([3], 0), ([3], -5)])
def test_sweep_rejects_bad_arguments(k_values, trials):
    with pytest.raises(ValueError):
        run_sweep(k_values, trials=trials)


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

    real_rank, real_block_ranks = verification._rank, verification._block_ranks
    monkeypatch.setattr(verification, "rank", counting_rank)
    monkeypatch.setattr(verification, "_rank", branch_rank)
    monkeypatch.setattr(verification, "_block_ranks", branch_block_ranks)
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
                    t = sum(sign * mul(st, dense(perms[i])).astype(int) for i, sign in combo)
                    want = rank(np.vstack([pair.s.array, gf3(t)]))
                    assert rank_got == want, (k, variant, flips, combo)
    assert branches == {"zero", "pattern", "peeled", "dense-fallback"}


# A 2 x 4 matrix whose second row owns no unit column.
PIVOT_FREE = SparseRows.from_dense([[1, 1, 1, 0], [1, 2, 0, 0]])


def test_pivot_free_matrices_raise_missing_pivot(monkeypatch):
    # Every rank is certified against unit-column pivots: the conditions
    # and a parity plan's certificate (io-meters) reduce against s,
    # duality against s and s_tilde.  A pivot-free matrix in any of those
    # places raises; no rank is reported for it.
    with pytest.raises(MissingPivotError, match="row 1 "):
        _unit_pivots(PIVOT_FREE)
    p = CodeParams(3)
    cm = build_coding_matrices(p)
    healthy = build_repair_pair(3, FIRST_PARITY)
    free_s = RepairMatrixPair(PIVOT_FREE, healthy.s_tilde, FIRST_PARITY)
    free_st = RepairMatrixPair(healthy.s, PIVOT_FREE, FIRST_PARITY)
    assert _condition_ranks(free_st, cm) == dense_condition_ranks(free_st, cm)
    assert verify_repair_conditions(free_st, cm) == dense_verify_repair_conditions(free_st, cm)
    with pytest.raises(MissingPivotError):
        verify_repair_conditions(free_s, cm)
    for pair in (free_s, free_st):
        with pytest.raises(MissingPivotError):
            verify_duality(pair, cm)
    monkeypatch.setattr(verification, "build_repair_pair", lambda k, variant: free_s)
    with pytest.raises(MissingPivotError):
        verification._check_parity_plan(plan_repair(p, cm, p.k), cm)


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
    return p.size - rank(sub(identity(p.size), dense(p)))


def nullities(perms):
    """``_fixed_space_dim`` of signed permutations of one size, walked together."""
    return _fixed_space_dim(np.stack([p.target for p in perms]), np.stack([p.sign for p in perms])).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
def test_fixed_space_dim_matches_dense(n):
    rng = np.random.default_rng(n)
    # Lengths 1, 2, 3, ... while they fit, then whatever is left.
    staircase = []
    while sum(staircase) + len(staircase) + 1 <= n:
        staircase.append(len(staircase) + 1)
    if sum(staircase) < n:
        staircase.append(n - sum(staircase))
    cases = [None] * 20 + [[n], [1] * n, staircase]
    perms = [random_signed_permutation(rng, n, cycle_lengths) for cycle_lengths in cases]
    for p, cycle_lengths in zip(perms, cases):
        assert nullities([p]) == [dense_nullity(p)], (n, cycle_lengths)
    # Walked together, each permutation keeps its own count.
    assert nullities(perms) == [dense_nullity(p) for p in perms]


def test_fixed_space_dim_cycle_sign_products():
    # A 3-cycle with signs multiplying to +1 fixes a line; to -1, nothing.
    plus = SignedPermutation([1, 2, 0], [-1, -1, 1])
    minus = SignedPermutation([1, 2, 0], [-1, 1, 1])
    assert nullities([plus, minus]) == [1, 0]
    identity = SignedPermutation.identity(4)
    assert nullities([identity, identity.negate()]) == [4, 0]


@pytest.mark.parametrize("symbols", [1, 24])
def test_verify_mds_walks_products_in_blocks(symbols, monkeypatch):
    # One product, or three at k = 4 (N = 8), per walk: the same report.
    monkeypatch.setattr(verification, "_MDS_SYMBOLS", symbols)
    rng = np.random.default_rng(7)
    for k in (3, 4):
        params = CodeParams(k)
        sets = [flip_one_sign(build_coding_matrices(params))]
        sets += [CodingMatrixSet(params, tuple(random_signed_permutation(rng, params.n_rows) for _ in range(k)))
                 for _ in range(10)]
        for cm in sets:
            assert verify_mds(cm) == dense_verify_mds(cm)


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
        rest = pivots.rest
        assert np.array_equal(repair._pack(m.rows, m.cols, rest.r, rest.c, rest.v).array, off)
        # Each pivot is the first unit column of its row.
        unit_cols = np.flatnonzero((a != 0).sum(axis=0) == 1)
        owns = a[:, unit_cols] != 0
        assert owns.any(axis=1).all()
        assert np.array_equal(unit_cols[np.argmax(owns, axis=1)], pivots.unit)


def test_plan_rejects_pivot_free_pair(monkeypatch):
    # A parity plan is built in closed form, without the pair; its
    # certificate reduces against the pair and rejects it.
    p = CodeParams(3)
    cm = build_coding_matrices(p)
    monkeypatch.setattr(
        verification, "build_repair_pair", lambda k, variant: RepairMatrixPair(PIVOT_FREE, PIVOT_FREE, variant)
    )
    for failed in (3, 4):
        with pytest.raises(MissingPivotError):
            verification._check_parity_plan(plan_repair(p, cm, failed), cm)


def test_plan_rejects_singular_stack_like_dense_inverse(monkeypatch):
    # With s_tilde = 0 every interference row is 0 (consistent), but the
    # stacked system has rank N/2: the Schur complement is 0, and the
    # certificate of the closed-form plan builds no inverse from it.
    p = CodeParams(3)
    cm = build_coding_matrices(p)
    s = build_repair_pair(3, FIRST_PARITY).s
    zero = SparseRows.from_dense(np.zeros((s.rows, s.cols)))
    monkeypatch.setattr(verification, "build_repair_pair", lambda k, variant: RepairMatrixPair(s, zero, variant))
    with pytest.raises(SingularMatrixError):
        inverse(np.vstack([s.array, zero.array]))
    for failed in (3, 4):
        with pytest.raises(SingularMatrixError):
            verification._check_parity_plan(plan_repair(p, cm, failed), cm)


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
