"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is exact (these are algebraic claims);
the runtime budgets are asserted too.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from cluster_helpers import extract_file
from gf3_oracle import dense, gf3
from zigzag3.cluster import ClusterState
from zigzag3.code import (
    CodeParams,
    build_coding_matrices,
    encode_parts_array,
    second_parity_by_matrices,
)
from zigzag3.repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    compute_downloads,
    execute_repair,
    expected_repair_io,
    plan_repair,
    repair_bandwidth,
)
from zigzag3.verification import (
    _zero_columns,
    brute_force_min_io,
    build_repair_pair,
    coding_matrix_from_zigzag,
    io_lower_bound,
    second_parity_by_rows,
    verify_duality,
    verify_mds,
    verify_repair_conditions,
    verify_zero_column_structure,
)

VARIANTS = (FIRST_PARITY, SECOND_PARITY)


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# 1. Golden repair matrices (entrywise, -1 stored as 2)
# ---------------------------------------------------------------------------

GOLDEN_FIRST = {
    3: (
        [[0, 1, 0, -1], [0, 0, 1, 1]],
        [[1, 1, 1, 0], [0, 0, 0, 1]],
    ),
    4: (
        [
            [0, 1, 0, -1, 0, -1, 0, 0],
            [0, 0, 1, 1, 0, 0, -1, 0],
            [0, 0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ],
        [
            [1, 1, 1, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 1, 0, -1],
            [0, 0, 0, 0, 0, 0, 1, 1],
        ],
    ),
    5: (
        [
            [0, 1, 0, -1, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        ],
        [
            [1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        ],
    ),
}

GOLDEN_SECOND = {
    3: (
        [[0, 1, 0, 1], [0, 0, 1, -1]],
        [[1, -1, -1, 0], [0, 0, 0, 1]],
    ),
    4: (
        [
            [0, 1, 0, 1, 0, 1, 0, 0],
            [0, 0, 1, -1, 0, 0, 1, 0],
            [0, 0, 0, 0, 1, -1, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ],
        [
            [1, -1, -1, 0, -1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 0, 0, 1, -1],
        ],
    ),
    5: (
        [
            [0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, -1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, -1, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
        ],
        [
            [1, -1, -1, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        ],
    ),
}


def test_criterion_1_golden_matrices():
    with criterion(1, "golden repair matrices k=3,4,5", budget=1.0):
        for k, (s, st) in GOLDEN_FIRST.items():
            pair = build_repair_pair(k, FIRST_PARITY)
            assert np.array_equal(pair.s.array, gf3(s)), f"systematic-side matrix, first parity, k={k}"
            assert np.array_equal(pair.s_tilde.array, gf3(st)), f"parity-side matrix, first parity, k={k}"
        for k, (s, st) in GOLDEN_SECOND.items():
            pair = build_repair_pair(k, SECOND_PARITY)
            assert np.array_equal(pair.s.array, gf3(s)), f"systematic-side matrix, second parity, k={k}"
            assert np.array_equal(pair.s_tilde.array, gf3(st)), f"parity-side matrix, second parity, k={k}"


def test_criterion_2_construction_equivalence():
    with criterion(2, "block recursion == row rule, both encoder forms, k=2..10", budget=30.0):
        rng = np.random.default_rng(2024)
        for k in range(2, 11):
            params = CodeParams(k)
            cm = build_coding_matrices(params)
            for j in range(k):
                assert np.array_equal(dense(cm.matrices[j]), dense(coding_matrix_from_zigzag(params, j))), (k, j)
            parts = rng.integers(0, 3, size=(k, 100, params.n_rows), dtype=np.uint8)
            assert np.array_equal(
                second_parity_by_rows(params, parts),
                second_parity_by_matrices(cm, parts),
            ), k


def test_criterion_3_condition_sweep():
    with criterion(3, "MDS + repair rank conditions + duality, k=2..11", budget=120.0):
        for k in range(2, 12):
            params = CodeParams(k)
            cm = build_coding_matrices(params)
            assert verify_mds(cm) == (True, ""), k
            for variant in VARIANTS:
                pair = build_repair_pair(k, variant)
                assert verify_repair_conditions(pair, cm) == (True, ""), (k, variant)
                assert verify_duality(pair, cm) == (True, ""), (k, variant)


def test_criterion_4_repair_correctness():
    with criterion(4, "repair exhaustive k=2, randomized k=3..6"):
        params = CodeParams(2)
        cm = build_coding_matrices(params)
        all_files = np.array(
            list(itertools.product(range(3), repeat=4)), dtype=np.uint8
        ).reshape(-1, 2, 2).transpose(1, 0, 2)  # (k, 81, N)
        shards = encode_parts_array(params, cm, all_files)
        for failed in (2, 3):
            plan = plan_repair(params, cm, failed)
            downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
            assert np.array_equal(execute_repair(plan, downloads), shards[failed])

        rng = np.random.default_rng(44)
        for k in range(3, 7):
            params = CodeParams(k)
            cm = build_coding_matrices(params)
            parts = rng.integers(0, 3, size=(k, 200, params.n_rows), dtype=np.uint8)
            shards = encode_parts_array(params, cm, parts)
            for failed in (k, k + 1):
                plan = plan_repair(params, cm, failed)
                downloads = compute_downloads(plan, {h: shards[h] for h in plan.helper_nodes})
                assert np.array_equal(execute_repair(plan, downloads), shards[failed]), (k, failed)


def test_criterion_5_io_meters():
    with criterion(5, "plan I/O = kN+N-k, bandwidth = (k+1)N/2, >= ceil(bound), k=2..10"):
        for k in range(2, 11):
            params = CodeParams(k)
            cm = build_coding_matrices(params)
            n = params.n_rows
            bound = io_lower_bound(k)
            assert bound.lower_bound >= 0
            for failed in (k, k + 1):
                plan = plan_repair(params, cm, failed)
                assert plan.total_io == k * n + n - k, (k, failed)
                assert plan.bandwidth == (k + 1) * n // 2, (k, failed)
                assert plan.total_io >= bound.lower_bound_ceil, (k, failed)


def test_criterion_6_lower_bound_mechanics():
    with criterion(6, "zero-column propagation and census floor, k=3..10"):
        for k in range(3, 11):
            params = CodeParams(k)
            n = params.n_rows
            floor = n - Fraction(n, 2 * (k - 1))
            for variant in VARIANTS:
                pair = build_repair_pair(k, variant)
                ok, detail = verify_zero_column_structure(pair, params)
                assert ok, (k, variant, detail)
                zero_s, zero_st = _zero_columns(pair)
                assert n - len(zero_s) >= floor, (k, variant)
                assert n - len(zero_st) >= floor, (k, variant)


def test_criterion_7_brute_force_oracle():
    with criterion(7, "exhaustive minimum I/O at k=2 and k=3", budget=600.0):
        for k in (2, 3):
            result = brute_force_min_io(k)
            assert result.lower_bound_ceil <= result.min_io <= result.construction_io, k
            cm = build_coding_matrices(CodeParams(k))
            assert verify_repair_conditions(result.witness, cm) == (True, ""), k
            print(
                f"[acceptance]   k={k}: minimum repair I/O m = {result.min_io} "
                f"(floor ceil {result.lower_bound_ceil}, construction {result.construction_io}, "
                f"{result.valid_pairs} canonical valid pairs)"
            )


def test_criterion_8_end_to_end_one_mebibyte():
    with criterion(8, "1 MiB encode/fail/repair/decode at k=4"):
        params = CodeParams(4)
        rng = np.random.default_rng(88)
        data = rng.bytes(1 << 20)
        cluster = ClusterState.from_bytes(params, data)
        stripes = cluster.meta.stripe_count
        originals = [node.payload.copy() for node in cluster.nodes]

        for node_id in range(params.n_nodes):
            cluster.fail_node(node_id)
            report = cluster.repair_node(node_id)
            method = "data-plan" if node_id < params.k else "parity-plan"
            assert report.method == method and report.matches_expectation, node_id
            assert report.expected_reads == stripes * expected_repair_io(params, node_id)
            assert report.total_sent == stripes * repair_bandwidth(params)
            if node_id in (4, 5):
                assert report.method == "parity-plan"
                assert report.total_reads == 36 * stripes, node_id
            else:
                assert report.method == "data-plan"
                assert report.total_reads == 20 * stripes, node_id
            assert np.array_equal(cluster.nodes[node_id].payload, originals[node_id]), node_id

        assert extract_file(cluster) == data
