"""Full condition sweep: every structural claim the code rests on, per k.

Run over a range of k, this checks the MDS ranks, the equivalence of the
two coding-matrix constructions, the encoder's two parity formulas on
random data, both variants' repair rank conditions, the swap duality, the
zero-column census/propagation behind the I/O counts, and the I/O meter
formulas on a repair plan for every node.  Each check records its
wall-clock seconds, and each k its set-up seconds: its coding matrices
and both repair pairs, built once, before the checks.  A k's set-up and
check seconds tile its wall time, each span starting where the one before
it ended.  A fault hook lets tests corrupt the coding matrices and watch
the sweep object.

Each product s_tilde P of a pair is reduced against the pivots of s once
per k (``repair._sharing``): the repair-conditions check pays for it, and
the pair's duality check and the io-meters check reuse it.
Parity plans are built in closed form, with no elimination; io-meters
compares each with what those reductions give (``_check_parity_plan``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .code import (
    CodeParams,
    CodingMatrixSet,
    build_coding_matrices,
    coding_matrix_from_zigzag,
    second_parity_by_matrices,
    second_parity_by_rows,
    verify_mds,
)
from .gf3 import SignedPermutation
from .repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    RepairMatrixPair,
    _check_parity_plan,
    _sharing,
    build_repair_pair,
    io_lower_bound,
    expected_repair_io,
    plan_repair,
    repair_bandwidth,
    verify_duality,
    verify_repair_conditions,
    verify_zero_column_structure,
)

__all__ = ["SweepCheck", "SweepReport", "run_sweep", "flip_one_sign"]


@dataclass(frozen=True)
class SweepCheck:
    k: int
    name: str
    passed: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepReport:
    k_values: tuple[int, ...]
    trials: int
    seed: int
    checks: tuple[SweepCheck, ...]
    # Per k of ``k_values``, the seconds spent before its first check.
    setup_seconds: tuple[float, ...] = field(default=(), compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[SweepCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "k_range": [min(self.k_values), max(self.k_values)],
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "setup_seconds": [{"k": k, "seconds": s} for k, s in zip(self.k_values, self.setup_seconds)],
            "checks": [c.to_dict() for c in self.checks],
        }


def flip_one_sign(cm: CodingMatrixSet) -> CodingMatrixSet:
    """Fault hook: negate one entry of the second coding matrix."""
    mats = list(cm.matrices)
    bad = mats[1]
    sign = bad.sign.copy()
    sign[0] = -sign[0]
    mats[1] = SignedPermutation(bad.target, sign)
    return CodingMatrixSet(cm.params, tuple(mats))


def _check_equivalence(params: CodeParams, cm: CodingMatrixSet) -> tuple[bool, str]:
    for j in range(params.k):
        if cm.matrices[j] != coding_matrix_from_zigzag(params, j):
            return False, f"matrix {j} differs from the row/coefficient construction"
    return True, f"all {params.k} matrices agree entrywise"

# Symbols of random stripes drawn at a time by ``encoder-forms``, so that
# ``trials`` costs time, not memory.
_TRIAL_SYMBOLS = 1 << 20


def _check_encoder_forms(
    params: CodeParams, cm: CodingMatrixSet, trials: int, rng: np.random.Generator
) -> tuple[bool, str]:
    """Both parity formulas on ``trials`` random stripes, drawn and
    compared in blocks of at most ``_TRIAL_SYMBOLS`` symbols."""
    step = max(1, _TRIAL_SYMBOLS // params.file_symbols)
    for start in range(0, trials, step):
        parts = rng.integers(0, 3, size=(params.k, min(step, trials - start), params.n_rows), dtype=np.uint8)
        if not np.array_equal(second_parity_by_rows(params, parts), second_parity_by_matrices(cm, parts)):
            return False, "row-rule and matrix parities diverge on random data"
    return True, f"{trials} random stripes agree"


def _check_meters(params: CodeParams, cm: CodingMatrixSet) -> tuple[bool, str]:
    """Plan every node: each helper sends N/2 rows, a data node reads
    (k+1)N/2 and a parity kN + N - k, at or above the parity floor, and
    each closed-form parity plan equals the one elimination gives."""
    k = params.k
    floor = io_lower_bound(k).lower_bound_ceil
    bandwidth = repair_bandwidth(params)
    details = []
    for failed in range(params.n_nodes):
        plan = plan_repair(params, cm, failed)
        expected = expected_repair_io(params, failed)
        if plan.total_io != expected:
            details.append(f"node {failed}: total_io {plan.total_io} != {expected}")
        if plan.bandwidth != bandwidth:
            details.append(f"node {failed}: bandwidth {plan.bandwidth} != {bandwidth}")
        if failed >= k:
            if plan.total_io < floor:
                details.append(f"node {failed}: below floor {floor}")
            details += [f"node {failed}: {what} differs from elimination" for what in _check_parity_plan(plan, cm)]
        del plan  # before the next is built: a k = 16 parity plan keeps up to 40 MiB
    if details:
        return False, "; ".join(details)
    return True, (
        f"data nodes read {expected_repair_io(params, 0)}, "
        f"parities {expected_repair_io(params, k)}, floor {floor}"
    )


def _check_alt_seed_census(params: CodeParams, pair: RepairMatrixPair) -> tuple[bool, str]:
    """Reusing the row-sum-parity ``pair`` for the zigzag parity must cost
    kN + N - 1 reads, one more than the dedicated seeds; census only."""
    n = params.n_rows
    io = params.k * pair.s_tilde.nonzero_column_count() + pair.s.nonzero_column_count()
    expected = params.k * n + n - 1
    if io != expected:
        return False, f"alternative census {io} != {expected}"
    return True, f"costs {io} = kN+N-1 as predicted"


def run_sweep(
    k_values,
    trials: int = 20,
    seed: int = 0,
    fault_hook: Optional[Callable[[CodingMatrixSet], CodingMatrixSet]] = None,
) -> SweepReport:
    k_values = tuple(k_values)
    if not k_values or trials < 1:
        raise ValueError(f"run_sweep needs at least one k and trials >= 1, got k={k_values}, trials={trials}")
    rng = np.random.default_rng(seed)
    checks: list[SweepCheck] = []
    setup: list[float] = []
    # Where the span being timed began: each span ends at the next reading.
    mark = 0.0

    def lap() -> float:
        nonlocal mark
        start, mark = mark, time.perf_counter()
        return mark - start

    def record(k: int, name: str, fn) -> None:
        # A corrupted matrix set may violate a precondition deep inside a
        # check; that is a failure to report, not a crash.
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(SweepCheck(k, name, ok, detail, lap()))

    for k in k_values:
        lap()
        params = CodeParams(k)
        cm = build_coding_matrices(params)
        if fault_hook is not None:
            cm = fault_hook(cm)
        pairs = [build_repair_pair(k, variant) for variant in (FIRST_PARITY, SECOND_PARITY)]
        setup.append(lap())
        with _sharing(pairs):
            record(k, "mds-ranks", lambda: verify_mds(cm))
            record(k, "coding-matrix-equivalence", lambda: _check_equivalence(params, cm))
            record(k, "encoder-forms", lambda: _check_encoder_forms(params, cm, trials, rng))

            for pair, tag in zip(pairs, ("first", "second")):
                record(k, f"repair-conditions-{tag}", lambda: verify_repair_conditions(pair, cm))
                record(k, f"duality-{tag}", lambda: verify_duality(pair, cm))
                record(k, f"zero-columns-{tag}", lambda: verify_zero_column_structure(pair, params))

            record(k, "io-meters", lambda: _check_meters(params, cm))
            record(k, "alt-seed-census", lambda: _check_alt_seed_census(params, pairs[0]))
    return SweepReport(k_values, trials, seed, tuple(checks), tuple(setup))
