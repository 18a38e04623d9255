"""Half-download repair of every node, with disk-I/O accounting.

Any single lost node is rebuilt by downloading only N/2 symbols from each
of the k+1 surviving nodes, through one ``RepairPlan`` type.  A data node
uses the zigzag rebuild: every helper sends N/2 raw rows, so a repair
reads (k+1)N/2 symbols, what it sends.  For a parity node each helper
applies an (N/2) x N full-row-rank repair matrix to its shard; the rank
conditions enforced here guarantee that every unwanted term lands inside
the row space of data already downloaded (so it can be cancelled) while
the wanted shard stays fully recoverable.

The repair matrices are built by a block recursion from 1x2 seeds.  One
seed choice serves the row-sum parity (node k), a second seed choice
serves the zigzag parity (node k+1); both yield matrices with a single
zero column on the systematic side and none on the parity side, so a
repair reads kN + N - k symbols in total.  That sits just above the
provable floor of kN + (k-3)N/(2(k-1)) reads, which this module also
evaluates exactly and, for small k, confirms by exhaustive search.

No rank claim and no plan needs Gaussian elimination.  Every row r of
``s`` (and of ``s_tilde``) owns a unit column u_r: a column whose only
nonzero, d_r = +-1, lies in row r.  Those columns prove full row rank, and
reading any matrix t at them gives the unique X with X s equal to t on
the pivot columns; the residual R = t - X s vanishes there, so
rank(stack(s, t)) = rows(s) + rank(R).  R = 0 certifies an interference
condition (and is the projector's consistency check); for the full-rank
condition R restricted to the other columns is the Schur complement of
the stacked system, a signed permutation, which also yields its inverse.
Products with coding matrices are column scatters of their signed
permutations.  Dense elimination remains only as a fallback for inputs
that fail these certificates, where it keeps the reported ranks exact.

Every matrix a plan applies has one type, ``SparseRows``, formed when
the plan is built: the downloads, projectors and solve inverse of a
parity repair have at most k nonzeros per row, and a data-node repair
applies raw row selections and signed permutations.  A ``SparseRows``
names, per slot of each row, a row of the residue stack [x; -x; 0] of
the symbols x it is applied to.  Those symbols are laid out as (rows,
stripes), so a term is one whole-row ``np.take``; terms are summed in
int8 and reduced through the ``gf3`` table before the sum can leave
+-127.  No plan holds a dense download: the zigzag parity's downloads
s A_j are the form of s mapped through each A_j.  Shards and downloads
keep their (stripes, N) shapes at the API; a repair transposes each
helper's shard once on the way in and the rebuilt shard once on the way
out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .code import CodeParams, CodingMatrixSet, _common_lead, basis_index
from .gf3 import (
    Gf3Matrix,
    Gf3ShapeError,
    InconsistentSystemError,
    SignedPermutation,
    SingularMatrixError,
    rank,
    reduce_sum,
    residues,
)

__all__ = [
    "FIRST_PARITY",
    "SECOND_PARITY",
    "RepairMatrixPair",
    "build_repair_pair",
    "ConditionCheck",
    "ConditionReport",
    "verify_repair_conditions",
    "DualityReport",
    "verify_duality",
    "ZeroColumnReport",
    "verify_zero_column_structure",
    "MissingPivotError",
    "SparseRows",
    "RepairPlan",
    "plan_repair",
    "apply_matrix_rows",
    "compute_downloads",
    "execute_repair",
    "expected_repair_io",
    "repair_bandwidth",
    "IoBoundReport",
    "io_lower_bound",
    "BruteForceResult",
    "brute_force_min_io",
    "enumerate_rref",
]

FIRST_PARITY = "first-parity"  # node k, the row-sum parity
SECOND_PARITY = "second-parity"  # node k+1, the zigzag parity

_VARIANTS = (FIRST_PARITY, SECOND_PARITY)


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


# ---------------------------------------------------------------------------
# Recursive construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairMatrixPair:
    """The (N/2) x N matrices applied by helpers during one parity repair.

    ``s`` is applied by systematic helpers (composed with the coding matrix
    when the zigzag parity is being repaired); ``s_tilde`` is applied by
    the surviving parity.
    """

    s: Gf3Matrix
    s_tilde: Gf3Matrix
    variant: str

    def swapped(self) -> "RepairMatrixPair":
        other = SECOND_PARITY if self.variant == FIRST_PARITY else FIRST_PARITY
        return RepairMatrixPair(self.s_tilde, self.s, other)


def _seed_blocks(variant: str) -> tuple[Gf3Matrix, Gf3Matrix]:
    if variant == FIRST_PARITY:
        return Gf3Matrix([[0, -1]]), Gf3Matrix([[-1, 0]])
    return Gf3Matrix([[-1, 0]]), Gf3Matrix([[0, -1]])


def _seed_pair(variant: str) -> tuple[Gf3Matrix, Gf3Matrix]:
    if variant == FIRST_PARITY:
        return Gf3Matrix([[0, 1]]), Gf3Matrix([[1, 1]])
    return Gf3Matrix([[1, -1]]), Gf3Matrix([[0, 1]])


def _build_recursion(k: int, variant: str) -> tuple[Gf3Matrix, Gf3Matrix]:
    """Run the joint recursion for the repair pair and coupling blocks."""
    s, st = _seed_pair(variant)
    e, f = _seed_blocks(variant)
    for _ in range(k - 2):
        half = s.rows
        zero = Gf3Matrix.zeros(half, 2 * half)
        s_next = Gf3Matrix.stack(Gf3Matrix.hstack(s, e), Gf3Matrix.hstack(zero, st))
        st_next = Gf3Matrix.stack(Gf3Matrix.hstack(st, -f), Gf3Matrix.hstack(zero, s))
        s, st = s_next, st_next
        e, f = Gf3Matrix.block_diag(e, f), Gf3Matrix.block_diag(f, e)
    return s, st


def build_repair_pair(k: int, variant: str) -> RepairMatrixPair:
    """Repair matrices at level k for the chosen parity.

    For the zigzag parity the recursion's two outputs swap roles: the
    systematic helpers apply what the recursion labels the parity-side
    matrix, and vice versa.
    """
    _check_variant(variant)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    s, st = _build_recursion(k, variant)
    if variant == SECOND_PARITY:
        s, st = st, s
    return RepairMatrixPair(s, st, variant)


# ---------------------------------------------------------------------------
# Unit-column certificates
# ---------------------------------------------------------------------------


class MissingPivotError(ValueError):
    """A row of a repair matrix owns no unit column."""


class _Pivots(NamedTuple):
    """Unit-column pivots of a matrix s: s[:, unit] = diag(sign)."""

    unit: np.ndarray  # u_r, one column per row
    sign: np.ndarray  # d_r = s[r, u_r], 1 or 2
    rest: np.ndarray  # the other columns, ascending


def _unit_pivots(s: Gf3Matrix) -> _Pivots | None:
    """One unit column per row of ``s``, or None if some row owns none.

    Row r's pivot u_r is the first column whose only nonzero lies in row
    r; d_r = s[r, u_r] is +-1, its own inverse over GF(3).  Pivots prove
    that ``s`` has full row rank.
    """
    a = s.array
    nonzero = a != 0
    owned = nonzero & (np.count_nonzero(nonzero, axis=0) == 1)
    if not owned.any(axis=1).all():
        return None
    u = np.argmax(owned, axis=1)
    rest = np.ones(s.cols, dtype=bool)
    rest[u] = False
    return _Pivots(u, a[np.arange(s.rows), u], np.flatnonzero(rest))


def _eliminate(
    s: Gf3Matrix, pivots: _Pivots, targets: list[Gf3Matrix]
) -> tuple[np.ndarray, SparseRows, np.ndarray]:
    """Reduce the rows of t, the stacked ``targets``, against ``s`` through
    its pivots.

    Returns X = t[:, U] diag(d), the unique matrix with X s equal to t on
    the pivot columns, as uint8 and as ``SparseRows``, and the uint8
    residual R = t - X s on the other columns.  R vanishes on the pivot
    columns by construction, so rank(stack(s, t)) = s.rows + rank(R).
    Rows of X are sparse, so X s is a sparse-row apply.
    """
    t = np.vstack([m.array for m in targets])
    x = (t[:, pivots.unit] * pivots.sign) % 3
    x_form = SparseRows.from_dense(x)
    s_rest = s.array[:, pivots.rest]
    xs = apply_matrix_rows(x_form, s_rest.T).T
    residual = reduce_sum(t[:, pivots.rest].view(np.int8) - xs.view(np.int8))
    return x, x_form, residual


def _residual_rank(r: np.ndarray) -> int:
    """rank(R): 0 for R = 0, the number of nonzero rows when R has at most
    one nonzero per row and per column, dense elimination otherwise (only
    a pair failing its conditions gets there)."""
    nonzero = r != 0
    if not nonzero.any():
        return 0
    if nonzero.sum(axis=1).max() <= 1 and nonzero.sum(axis=0).max() <= 1:
        return int(nonzero.any(axis=1).sum())
    return rank(Gf3Matrix(r))


# Entries of the targets reduced in one ``_eliminate``: small targets
# share the fixed cost of a call, while a batch this size still fits in
# cache (one k = 11 target alone is 2^19 entries).
_BATCH_ENTRIES = 1 << 18


def _stacked_ranks(s: Gf3Matrix, targets: list[Gf3Matrix]) -> list[int]:
    """rank(stack(s, t)) for every t in ``targets``, exactly.

    The pivots of ``s`` are found once, and the targets, all of one shape,
    are reduced in batches of at most ``_BATCH_ENTRIES`` entries by one
    ``_eliminate`` each; each rank is then s.rows + rank(R) for that
    target's block R of the residual.  A matrix without pivots falls back
    to dense elimination of each stack, so arbitrary pairs still get exact
    ranks.
    """
    pivots = _unit_pivots(s)
    if pivots is None:
        return [rank(Gf3Matrix.stack(s, t)) for t in targets]
    ranks = []
    per_batch = max(1, _BATCH_ENTRIES // targets[0].array.size)
    for i in range(0, len(targets), per_batch):
        batch = targets[i : i + per_batch]
        _, _, residual = _eliminate(s, pivots, batch)
        ranks += [s.rows + _residual_rank(r) for r in np.split(residual, len(batch))]
    return ranks


def _stacked_inverse(s: Gf3Matrix, pivots: _Pivots, m: np.ndarray, schur: np.ndarray) -> SparseRows:
    """Inverse of the square stack(s, base), from its Schur factors.

    ``m`` = M = base_U diag(d) and ``schur`` = S = base_C - M s_C are what
    ``_eliminate`` returns for ``base``.  Split the unknowns y at the
    pivot columns U and the rest C.  The rows s y = top give
    y_U = d (top - s_C y_C), since s_U = diag(d); the rows base y = bottom
    then leave S y_C = bottom - M top.  S must be a signed permutation,
    which also certifies full rank; otherwise ``SingularMatrixError`` is
    raised.  Solving once with the identity as right-hand side yields the
    inverse, returned in sparse-row form.
    """
    try:
        schur_perm = SignedPermutation.from_dense(Gf3Matrix(schur))
    except ValueError:
        raise SingularMatrixError(
            "Schur complement of the stacked system is not a signed permutation"
        ) from None
    half, n = s.rows, s.cols
    # With the identity as right-hand side, top = [I | 0] and bottom = [0 | I],
    # so bottom - M top = [-M | I].
    reduced = np.zeros((n - half, n), dtype=np.uint8)
    reduced[:, :half] = (3 - m) % 3
    reduced[:, half:] = np.eye(n - half, dtype=np.uint8)
    # S y = z row by row: sign[r] y[target[r]] = z[r].
    y_rest = np.empty_like(reduced)
    y_rest[schur_perm.target] = (reduced * schur_perm.sign_gf3[:, None]) % 3
    s_rest = SparseRows.from_dense(s.array[:, pivots.rest])
    top = np.eye(half, n, dtype=np.int16)
    y_unit = (pivots.sign[:, None] * (top - apply_matrix_rows(s_rest, y_rest.T).T)) % 3
    out = np.empty((n, n), dtype=np.uint8)
    out[pivots.unit] = y_unit
    out[pivots.rest] = y_rest
    return SparseRows.from_dense(out)


def _times_permutation(m: Gf3Matrix, p: SignedPermutation) -> Gf3Matrix:
    """``m @ p`` as a column scatter: (m p)[:, target[r]] = sign[r] * m[:, r]."""
    out = np.empty_like(m.array)
    out[:, p.target] = m.array * p.sign_gf3
    return Gf3Matrix(out)


def _interference_rows(m: Gf3Matrix, a_l: SignedPermutation, variant: str) -> Gf3Matrix:
    """m (I - A_l) for the row-sum parity; m (I + A_l) for the zigzag
    parity, where A_0^-1 - A_l^-1 = I + A_l since A_l squares to -I."""
    moved = _times_permutation(m, a_l)
    return m - moved if variant == FIRST_PARITY else m + moved


# ---------------------------------------------------------------------------
# Rank conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class ConditionReport:
    variant: str
    checks: tuple[ConditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _condition_rows(s_tilde: Gf3Matrix, cm: CodingMatrixSet, variant: str) -> list[Gf3Matrix]:
    """The rows stacked under s for each repair condition, by column
    scatters: s_tilde A_0^(+-1) for full rank, then s_tilde (I -+ A_l)
    for interference l = 1..k-1."""
    a0 = cm.matrices[0] if variant == FIRST_PARITY else cm.matrices[0].inverse()
    rows = [_times_permutation(s_tilde, a0)]
    rows += [_interference_rows(s_tilde, cm.matrices[l], variant) for l in range(1, cm.params.k)]
    return rows


def _condition_report(variant: str, n: int, ranks: list[int]) -> ConditionReport:
    checks = [ConditionCheck("full-rank", n, ranks[0])]
    checks += [ConditionCheck(f"interference-l{l}", n // 2, r) for l, r in enumerate(ranks[1:], 1)]
    return ConditionReport(variant, tuple(checks))


def verify_repair_conditions(
    pair: RepairMatrixPair, cm: CodingMatrixSet, variant: str | None = None
) -> ConditionReport:
    """Rank conditions for optimal repair: the stacked pair must reach full
    rank N (recoverability) while every interference stack collapses to
    rank N/2 (cancellability).

    The ranks are ``_stacked_ranks`` of ``pair.s`` over the rows of
    ``_condition_rows``, reduced against one set of pivots.  With unit-column
    pivots in ``pair.s``, an interference rank of N/2 is certified by a
    zero residual and full rank by a signed-permutation residual; any
    other residual is ranked exactly, so a failing pair reports its true
    rank.
    """
    if variant is None:
        variant = pair.variant
    _check_variant(variant)
    ranks = _stacked_ranks(pair.s, _condition_rows(pair.s_tilde, cm, variant))
    return _condition_report(variant, cm.params.n_rows, ranks)


@dataclass(frozen=True)
class RankEquality:
    l: int
    swapped_rank: int
    direct_rank: int

    @property
    def ok(self) -> bool:
        return self.swapped_rank == self.direct_rank


@dataclass(frozen=True)
class DualityReport:
    original_variant: str
    swapped_report: ConditionReport
    equalities: tuple[RankEquality, ...]

    @property
    def ok(self) -> bool:
        return self.swapped_report.ok and all(e.ok for e in self.equalities)


def verify_duality(pair: RepairMatrixPair, cm: CodingMatrixSet) -> DualityReport:
    """A valid pair for one parity, with roles swapped, repairs the other.

    Beyond re-running the swapped pair through the other parity's
    conditions, the underlying rank identity is checked for every l:
    stacking s_tilde over s(I + A_l) has the same rank as stacking s over
    s_tilde(I - A_l).  Both sides are ``_stacked_ranks`` certificates: the
    swapped conditions and every left side against the unit-column pivots
    of ``s_tilde``, every right side against those of ``s``.  When the
    swapped pair serves the zigzag parity, its interference rows are the
    left sides s(I + A_l) themselves, so their ranks are reused.
    """
    swapped = pair.swapped()
    k = cm.params.k
    rows = _condition_rows(pair.s, cm, swapped.variant)
    if swapped.variant == SECOND_PARITY:
        ranks = _stacked_ranks(pair.s_tilde, rows)
        lhs = ranks[1:]
    else:
        rows += [_interference_rows(pair.s, cm.matrices[l], SECOND_PARITY) for l in range(1, k)]
        ranks = _stacked_ranks(pair.s_tilde, rows)
        lhs = ranks[k:]
    swapped_report = _condition_report(swapped.variant, cm.params.n_rows, ranks[:k])
    rhs_rows = [_interference_rows(pair.s_tilde, cm.matrices[l], FIRST_PARITY) for l in range(1, k)]
    rhs = _stacked_ranks(pair.s, rhs_rows)
    equalities = tuple(RankEquality(l, lhs[l - 1], rhs[l - 1]) for l in range(1, k))
    return DualityReport(pair.variant, swapped_report, equalities)


# ---------------------------------------------------------------------------
# Zero-column structure (census and propagation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroColumnReport:
    variant: str
    zero_cols_s: tuple[int, ...]
    zero_cols_s_tilde: tuple[int, ...]
    nonzero_cols_s: int
    nonzero_cols_s_tilde: int
    per_matrix_floor: Fraction
    propagation_violations: tuple[str, ...]

    @property
    def census_ok(self) -> bool:
        return (
            self.nonzero_cols_s >= self.per_matrix_floor
            and self.nonzero_cols_s_tilde >= self.per_matrix_floor
        )

    @property
    def ok(self) -> bool:
        return self.census_ok and not self.propagation_violations


def _propagation_violations(
    params: CodeParams, zero_cols: list[int], other: Gf3Matrix, label: str
) -> list[str]:
    """Every zero column forces +- equal column pairs in the other matrix:
    the columns at the bit-flipped indices must match the base column up
    to sign."""
    out = []
    for i in zero_cols:
        base = other.column(i).astype(np.int16)
        for l in range(1, params.k):
            j = i ^ basis_index(params, l)
            col = other.column(j).astype(np.int16)
            if not (np.array_equal(col, base) or np.array_equal(col, (-base) % 3)):
                out.append(f"{label}: column {j} is not +-column {i} (flip l={l})")
    return out


def verify_zero_column_structure(pair: RepairMatrixPair, params: CodeParams) -> ZeroColumnReport:
    n = params.n_rows
    zc_s = pair.s.zero_columns()
    zc_st = pair.s_tilde.zero_columns()
    violations = _propagation_violations(params, zc_s, pair.s_tilde, "parity-side")
    violations += _propagation_violations(params, zc_st, pair.s, "systematic-side")
    return ZeroColumnReport(
        variant=pair.variant,
        zero_cols_s=tuple(zc_s),
        zero_cols_s_tilde=tuple(zc_st),
        nonzero_cols_s=pair.s.nonzero_column_count(),
        nonzero_cols_s_tilde=pair.s_tilde.nonzero_column_count(),
        per_matrix_floor=n - Fraction(n, 2 * (params.k - 1)),
        propagation_violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Planning and executing a repair
# ---------------------------------------------------------------------------


def expected_repair_io(params: CodeParams, node: int) -> int:
    """Reads per stripe of the plan for ``node``: kN + N - k for a parity,
    and (k+1)N/2 for a data node, whose helpers read only what they send."""
    if node >= params.k:
        return params.k * params.n_rows + params.n_rows - params.k
    return repair_bandwidth(params)


def repair_bandwidth(params: CodeParams) -> int:
    """Symbols transferred per stripe: N/2 from each of the k+1 helpers."""
    return (params.k + 1) * params.n_rows // 2


class SparseRows:
    """A GF(3) matrix with few nonzeros per row in padded row ("ELL")
    form, the one type of every plan matrix.

    ``slots[r, t]`` names a row of the residue stack [x; -x; 0] of the
    ``cols``-row block x the matrix is applied to: c for a +1 entry of row
    r in column c, cols + c for a -1 entry, and 2 cols, the zero row, on
    padding.  Each row has at least one slot and names a column at most
    once.  A row selection is ``SparseRows(index[:, None], cols)``.  The
    dense ``array`` is built only when asked for.
    """

    __slots__ = ("slots", "cols")

    def __init__(self, slots, cols: int):
        slots = np.asarray(slots, dtype=np.intp)
        if slots.ndim != 2 or slots.shape[1] < 1:
            raise Gf3ShapeError(f"slots must be 2-D with at least one column, got shape {slots.shape}")
        # Read as unsigned, a negative slot exceeds 2 cols too.
        if slots.size and slots.view(np.uintp).max() > 2 * cols:
            raise ValueError(f"slots must lie in [0, {2 * cols}]")
        slots.setflags(write=False)
        self.slots = slots
        self.cols = cols

    @classmethod
    def from_dense(cls, a) -> "SparseRows":
        """The form of a 2-D matrix, any integers taken mod 3, with each
        row's nonzeros in ascending column order."""
        a = residues(a)
        rows, n = a.shape
        entries = a.ravel()
        flat = np.flatnonzero(entries)
        r, c = np.divmod(flat, n)
        counts = np.bincount(r, minlength=rows)
        first = np.cumsum(counts) - counts
        slots = np.full((rows, max(1, int(counts.max(initial=0)))), 2 * n, dtype=np.intp)
        slots[r, np.arange(flat.size) - first[r]] = c + n * (entries[flat] == 2)
        return cls(slots, n)

    @classmethod
    def from_permutation(cls, p: SignedPermutation) -> "SparseRows":
        """One slot per row: target[r], or size + target[r] for a -1."""
        return cls((p.target + p.size * (p.sign < 0))[:, None], p.size)

    @property
    def rows(self) -> int:
        return self.slots.shape[0]

    @property
    def signed(self) -> bool:
        """Whether a slot reads past x, into -x or the zero row."""
        return bool((self.slots >= self.cols).any())

    @property
    def array(self) -> np.ndarray:
        """The dense (rows, cols) uint8 matrix."""
        hit = np.zeros((self.rows, 2 * self.cols + 1), dtype=np.uint8)
        hit[np.arange(self.rows)[:, None], self.slots] = 1
        return hit[:, : self.cols] + 2 * hit[:, self.cols : -1]

    def nonzero_column_count(self) -> int:
        """Columns that some slot reads; padding reads the zero row."""
        read = np.zeros(2 * self.cols + 1, dtype=bool)
        read[self.slots] = True
        return int(np.count_nonzero(read[: self.cols] | read[self.cols : -1]))

    def times(self, p: SignedPermutation) -> "SparseRows":
        """``self @ p``, whose column target[c] is sign[c] times column c.

        One ``np.take`` of the slots through a 2n + 1 entry map: c goes to
        target[c] (n + target[c] if sign[c] < 0), n + c to target[c]
        (n + target[c] if sign[c] > 0), and the padding 2n stays.
        """
        n = self.cols
        if p.size != n:
            raise Gf3ShapeError(f"times: {n} columns @ permutation of size {p.size}")
        image = np.concatenate([p.target + n * (p.sign < 0), p.target + n * (p.sign > 0), [2 * n]])
        return SparseRows(np.take(image, self.slots), n)


@dataclass(frozen=True)
class RepairPlan:
    """Everything precomputed for rebuilding one lost node from the k+1
    others.

    Helper h sends ``downloads[h]`` applied to its shard, N/2 symbols per
    stripe.  The rebuild stacks two halves: the top sums the downloads of
    the nodes in ``top``, each with its +-1 coefficient; the bottom is the
    download of ``bottom_node`` plus ``projectors[h]`` applied to the
    download of h.  ``solve_inverse`` inverts the stacked system that maps
    the lost shard to those halves.  It is factored once, so a repair is
    gathers, int8 sums and one apply.

    Every matrix is a ``SparseRows``, formed when the plan is built; the
    row-sum plan's k systematic downloads share one.
    """

    params: CodeParams
    failed_node: int
    downloads: dict[int, SparseRows]
    top: dict[int, int]
    bottom_node: int
    projectors: dict[int, SparseRows]
    solve_inverse: SparseRows = field(repr=False)

    @property
    def io_per_node(self) -> dict[int, int]:
        """Symbols each helper reads per stripe: the columns its download
        gathers, counted once per distinct download."""
        counts = {m: m.nonzero_column_count() for m in set(self.downloads.values())}
        return {node: counts[m] for node, m in self.downloads.items()}

    @property
    def total_io(self) -> int:
        return sum(self.io_per_node.values())

    @property
    def bandwidth(self) -> int:
        """Symbols sent per stripe: the rows of every download."""
        return sum(m.rows for m in self.downloads.values())

    @property
    def helper_nodes(self) -> list[int]:
        return sorted(self.downloads)


def plan_repair(params: CodeParams, cm: CodingMatrixSet, failed: int) -> RepairPlan:
    """The plan for rebuilding lost node ``failed``, any of the k+2 nodes:
    ``_plan_data`` for a data node, ``_plan_parity`` for a parity."""
    if not 0 <= failed < params.n_nodes:
        raise ValueError(f"node {failed} out of range [0, {params.n_nodes})")
    if failed < params.k:
        return _plan_data(params, cm, failed)
    return _plan_parity(params, cm, failed)


def _plan_data(params: CodeParams, cm: CodingMatrixSet, failed: int) -> RepairPlan:
    """Zigzag rebuild of data node j = ``failed`` (Tamo, Wang and Bruck,
    "Zigzag Codes: MDS Array Codes With Optimal Rebuilding", 2013).

    Let T be the rows whose bit j is 0, or for j = 0 the rows of even
    weight.  The other data nodes and the row-sum parity send their rows
    T, so f_j[T] = p[T] - sum_i f_i[T] (the top half).  The zigzag parity
    sends the rows Z that A_j maps outside T (Z = T for j >= 1, the odd
    rows for j = 0).  Every other A_i maps Z into T, since XOR with e_i
    keeps bit j (and for i >= 1 flips the weight), so its share of z[Z]
    is a signed gather of the half f_i[T] already sent, with the signs
    restricted to Z; peeling those off leaves A_j f_j on the rows Z (the
    bottom half).
    The solve inverse is the signed permutation that puts the top half at
    T and the bottom half, signed, at A_j's targets of Z.  Every helper
    reads the N/2 raw rows it sends.  Coding matrices without this
    structure make a restricted map fail to be a permutation, which
    ``SignedPermutation`` rejects with ``ValueError`` before the plan
    takes its sparse-row form.
    """
    k, n = params.k, params.n_rows
    half = n // 2
    rows = np.arange(n)
    if failed == 0:
        odd = np.zeros(n, dtype=bool)
        for bit in range(k - 1):
            odd ^= ((rows >> bit) & 1).astype(bool)
        sent = ~odd
    else:
        sent = (rows & basis_index(params, failed)) == 0
    a_j = cm.matrices[failed]
    top_rows = np.flatnonzero(sent)
    zig_rows = np.flatnonzero(~sent[a_j.target])
    position = np.full(n, -1)
    position[top_rows] = np.arange(half)
    others = [i for i in range(k) if i != failed]
    projectors = {
        i: SparseRows.from_permutation(
            SignedPermutation(position[cm.matrices[i].target[zig_rows]], -cm.matrices[i].sign[zig_rows])
        )
        for i in others
    }
    lost = a_j.target[zig_rows]
    target = position.copy()
    target[lost] = half + np.arange(half)
    sign = np.ones(n, dtype=np.int8)
    sign[lost] = a_j.sign[zig_rows]
    top_selection = SparseRows(top_rows[:, None], n)
    downloads = {h: top_selection for h in others + [k]}
    downloads[k + 1] = SparseRows(zig_rows[:, None], n)
    return RepairPlan(
        params=params,
        failed_node=failed,
        downloads=downloads,
        top={k: 1, **{i: -1 for i in others}},
        bottom_node=k + 1,
        projectors=projectors,
        solve_inverse=SparseRows.from_permutation(SignedPermutation(target, sign)),
    )


def _plan_parity(params: CodeParams, cm: CodingMatrixSet, failed: int) -> RepairPlan:
    """Download matrices, interference projectors and I/O tallies for
    rebuilding parity node ``failed`` (k or k+1).

    The systematic downloads sum to the lost shard's half-image (the
    top); the surviving parity's download plus the projected interference
    terms form the bottom.  The zigzag parity's download for helper j is
    s A_j, the form of s mapped through A_j by ``SparseRows.times``, and
    every product with a coding matrix in the elimination is a column
    scatter by its signed permutation.  Projector l is X_l of
    ``_eliminate`` for the interference rows s_tilde (I -+ A_l), read off
    at the unit-column pivots of ``pair.s``; a nonzero residual means
    those rows leave the row space of ``pair.s`` and raises
    ``InconsistentSystemError``.  The same elimination of the solve base
    s_tilde A_0^(+-1) gives the Schur factors of the stacked system, whose
    inverse ``_stacked_inverse`` builds; it raises ``SingularMatrixError``
    unless the Schur complement is a signed permutation.
    ``MissingPivotError`` is raised if a row of ``pair.s`` owns no unit
    column.
    """
    k = params.k
    variant = FIRST_PARITY if failed == k else SECOND_PARITY
    pair = build_repair_pair(k, variant)
    surviving = k + 1 if failed == k else k
    half = params.n_rows // 2
    pivots = _unit_pivots(pair.s)
    if pivots is None:
        raise MissingPivotError(f"a row of the {variant} systematic-side matrix owns no unit column")

    s_form = SparseRows.from_dense(pair.s.array)
    if variant == FIRST_PARITY:
        downloads = {j: s_form for j in range(k)}
    else:
        downloads = {j: s_form.times(cm.matrices[j]) for j in range(k)}
    downloads[surviving] = SparseRows.from_dense(pair.s_tilde.array)

    # One elimination serves the solve base and the k-1 projectors, row blocks of X.
    stacked, x, residual = _eliminate(pair.s, pivots, _condition_rows(pair.s_tilde, cm, variant))
    if residual[half:].any():
        raise InconsistentSystemError("target rows are not in the row space")
    return RepairPlan(
        params=params,
        failed_node=failed,
        downloads=downloads,
        top={j: 1 for j in range(k)},
        bottom_node=surviving,
        projectors={l: SparseRows(x.slots[l * half : (l + 1) * half], half) for l in range(1, k)},
        solve_inverse=_stacked_inverse(pair.s, pivots, stacked[:half], residual[:half]),
    )


# A sum of 63 terms in {-2..2} stays within +-126, so 63 terms fit in
# int8 between reductions; a reduced sum counts as one term.
_INT8_TERMS = 63

# Bytes a blocked transpose copies at a time: 256 stripes of a k = 8
# shard (N = 128), so the rows a block reads and writes stay in cache.
_BLOCK_BYTES = 1 << 15


def _transpose(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x.T`` of a (stripes, n) array as a C-contiguous copy, into ``out`` if given.

    The copy runs one block of about 32 KiB of stripes at a time: a
    3,072 x 128 uint8 shard takes about 0.17 ms this way against 0.35 ms
    for ``np.ascontiguousarray(x.T)`` (timeit, 2-core Xeon VM).  An ``x``
    that is itself the transposed view of a C-contiguous array is copied
    straight.
    """
    if out is None:
        out = np.empty(x.shape[::-1], dtype=x.dtype)
    if x.T.flags.c_contiguous:
        out[...] = x.T
        return out
    step = max(1, _BLOCK_BYTES // max(1, x.shape[1] * x.itemsize))
    for start in range(0, x.shape[0], step):
        out[:, start : start + step] = x[start : start + step].T
    return out


def _residue_stack(x: np.ndarray, buf: np.ndarray, signed: bool) -> np.ndarray:
    """The residue stack of the (stripes, n) residues ``x``, in ``buf``.

    ``buf`` is an int8 (2n + 1, stripes) buffer; its first n rows get x.T
    by one ``_transpose``.  For a ``signed`` matrix the next n rows get
    -x.T and the last row zeros.  Returns the rows filled.
    """
    n = x.shape[1]
    _transpose(x, buf[:n].view(np.uint8))
    if not signed:
        return buf[:n]
    np.negative(buf[:n], out=buf[n : 2 * n])
    buf[2 * n] = 0
    return buf


def _gather_sum(
    m: SparseRows, stack: np.ndarray, acc: np.ndarray | None = None, terms: int = 0
) -> tuple[np.ndarray, int]:
    """Add ``m`` applied to the block behind ``stack`` into the int8
    (rows, stripes) sum ``acc``, which holds ``terms`` terms.

    Each slot is one whole-row ``np.take`` from the stack; without ``acc``
    the first one starts the sum.  Every term lies in {-2..2}, so ``acc``
    is reduced in place once it holds ``_INT8_TERMS`` of them.  Returns
    the sum and its new term count.
    """
    for column in m.slots.T:
        term = np.take(stack, column, axis=0)
        if acc is None:
            acc = term
        else:
            if terms == _INT8_TERMS:
                acc[...] = reduce_sum(acc).view(np.int8)
                terms = 1
            acc += term
        terms += 1
    return acc, terms


def _apply(m: SparseRows, stack: np.ndarray) -> np.ndarray:
    """``m`` applied to the block behind ``stack``, as (rows, stripes)
    uint8 residues; an unsigned one-slot matrix, a row selection, gathers
    residues and needs no reduction."""
    acc, terms = _gather_sum(m, stack)
    return acc.view(np.uint8) if terms == 1 and not m.signed else reduce_sum(acc)


def apply_matrix_rows(m: SparseRows, x: np.ndarray) -> np.ndarray:
    """Apply ``m`` to the last axis of ``x``: out[..., r] = sum_c m[r,c] x[..., c].

    ``x`` may hold any integers, in any layout; the result is uint8
    residues of shape ``x.shape[:-1] + (m.rows,)``, returned as the
    transposed view of a C-contiguous (m.rows, vectors) array.  The
    residues of ``x`` are laid out symbol-major, as (m.cols, vectors), by
    one blocked transpose (none when ``x`` is itself such a transposed
    view), and every slot of ``m`` is a whole-row gather from their
    residue stack, so the work is O(nonzeros) rows.
    """
    x = np.asarray(x)
    if x.shape[-1] != m.cols:
        raise ValueError(f"last axis {x.shape[-1]} != matrix cols {m.cols}")
    flat = residues(x).reshape(-1, m.cols)
    buf = np.empty((2 * m.cols + 1, flat.shape[0]), dtype=np.int8)
    out = _apply(m, _residue_stack(flat, buf, m.signed))
    return out.T.reshape(x.shape[:-1] + (m.rows,))


def compute_downloads(plan: RepairPlan, payloads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """What each helper transmits: its download applied to its shard.

    Every payload must have last axis N and all must share one leading
    shape, else ``ValueError`` naming the payload.  Each helper's shard
    is transposed once, by a blocked transpose into one (2N + 1, stripes)
    residue-stack buffer that every helper reuses, and its download is one
    whole-row gather from it per slot of the download's ``SparseRows``.
    Each download is a C-contiguous (N/2, stripes) array, returned as its
    transposed view of shape lead + (N/2,); ``execute_repair`` takes it
    back without a copy.
    """
    missing = [n for n in plan.helper_nodes if n not in payloads]
    if missing:
        raise ValueError(f"payloads missing for helper nodes {missing}")
    n = plan.params.n_rows
    helpers = {node: np.asarray(payloads[node]) for node in plan.helper_nodes}
    lead = _common_lead(helpers, n, "payload")
    stripes = math.prod(lead)
    buf = np.empty((2 * n + 1, stripes), dtype=np.int8)
    out = {}
    for node, x in helpers.items():
        m = plan.downloads[node]
        d = _apply(m, _residue_stack(residues(x).reshape(stripes, n), buf, m.signed))
        out[node] = d.T.reshape(lead + (d.shape[0],))
    return out


def execute_repair(plan: RepairPlan, downloads: dict[int, np.ndarray]) -> np.ndarray:
    """Rebuild the lost shard from the k+1 half-size downloads.

    Works symbol-major, (rows, stripes), from the downloads to the
    rebuilt shard.  A download from ``compute_downloads`` is the
    transposed view of such an array and is taken back as it is; any
    other layout, such as a C-contiguous (stripes, N/2) array, gets one
    blocked transpose.  Both halves of the right-hand side share one
    (N, stripes) int8 sum: the top adds the k signed downloads of
    ``top``, the bottom the ``bottom_node`` download and every
    projector's terms, gathered from the residue stack of its download
    (one buffer, reused) and reduced in place whenever the bottom holds
    ``_INT8_TERMS`` terms.  One reduction and one apply of
    ``solve_inverse`` follow, and the rebuilt shard is written as a
    C-contiguous array of shape lead + (N,).
    """
    expected_nodes = set(plan.helper_nodes)
    got = set(downloads)
    if got != expected_nodes:
        raise ValueError(f"downloads for nodes {sorted(got)}, expected {sorted(expected_nodes)}")
    n = plan.params.n_rows
    half = n // 2
    arrays = {node: np.asarray(d) for node, d in downloads.items()}
    lead = _common_lead(arrays, half, "download")
    stripes = math.prod(lead)
    sym = {}
    for node, d in arrays.items():
        x = residues(d).reshape(stripes, half)
        sym[node] = x.T if x.T.flags.c_contiguous else _transpose(x)

    rhs = np.zeros((n, stripes), dtype=np.int8)
    top, bottom = rhs[:half], rhs[half:]
    for node, coefficient in plan.top.items():
        if coefficient == 1:
            top += sym[node].view(np.int8)
        else:
            top -= sym[node].view(np.int8)
    bottom += sym[plan.bottom_node].view(np.int8)
    terms = 1
    buf = np.empty((n + 1, stripes), dtype=np.int8)
    for node, m in plan.projectors.items():
        _, terms = _gather_sum(m, _residue_stack(sym[node].T, buf, m.signed), bottom, terms)

    rhs = reduce_sum(rhs)
    m = plan.solve_inverse
    stack = _residue_stack(rhs.T, np.empty((2 * n + 1, stripes), dtype=np.int8), m.signed)
    return np.ascontiguousarray(_apply(m, stack).T).reshape(lead + (n,))


# ---------------------------------------------------------------------------
# Lower bound on repair disk I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IoBoundReport:
    """Exact comparison of the achieved repair I/O against the proven floor.

    The floor kN + (k-3)N/(2(k-1)) is kept as an exact rational; its
    correction term is negative at k=2, so the displayed value is clamped
    from below by the trivially valid bandwidth floor (k+1)N/2 and the
    clamp is flagged.  Integrality of reads justifies the ceiling only at
    comparison time.
    """

    k: int
    n_rows: int
    achieved_io: int
    lower_bound: Fraction
    per_matrix_floor: Fraction
    bandwidth_floor: int
    clamped: bool

    @property
    def lower_bound_ceil(self) -> int:
        return math.ceil(self.lower_bound)

    @property
    def displayed_bound(self) -> Fraction:
        return max(self.lower_bound, Fraction(self.bandwidth_floor))

    @property
    def gap(self) -> Fraction:
        return self.achieved_io - self.lower_bound

    @property
    def achieves_bound(self) -> bool:
        return self.achieved_io >= self.lower_bound_ceil


def io_lower_bound(k: int) -> IoBoundReport:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = 1 << (k - 1)
    correction = Fraction((k - 3) * n, 2 * (k - 1))
    return IoBoundReport(
        k=k,
        n_rows=n,
        achieved_io=k * n + n - k,
        lower_bound=k * n + correction,
        per_matrix_floor=n - Fraction(n, 2 * (k - 1)),
        bandwidth_floor=(k + 1) * n // 2,
        clamped=correction < 0,
    )


# ---------------------------------------------------------------------------
# Exhaustive search at desk scale
# ---------------------------------------------------------------------------

BRUTE_FORCE_MAX_K = 3  # search space is 3^(N*N/2) per matrix; N <= 4 only


def enumerate_rref(rows: int, cols: int):
    """All reduced row-echelon matrices of full row rank, as uint8 arrays.

    One representative per row space; rank conditions and zero-column
    counts are invariant under left row operations, so searching these
    canonical forms loses nothing.
    """
    for pivots in itertools.combinations(range(cols), rows):
        free_pos = [
            (r, c)
            for r in range(rows)
            for c in range(pivots[r] + 1, cols)
            if c not in pivots
        ]
        for values in itertools.product(range(3), repeat=len(free_pos)):
            m = np.zeros((rows, cols), dtype=np.uint8)
            for r, p in enumerate(pivots):
                m[r, p] = 1
            for (r, c), v in zip(free_pos, values):
                m[r, c] = v
            yield m


@dataclass(frozen=True)
class BruteForceResult:
    k: int
    min_io: int
    witness: RepairMatrixPair
    valid_pairs: int
    lower_bound_ceil: int
    construction_io: int


def brute_force_min_io(k: int, cm: CodingMatrixSet | None = None) -> BruteForceResult:
    """Minimum repair I/O over every valid repair-matrix pair, by enumeration.

    Only feasible at k <= 3 (N <= 4); the canonical-form enumeration cuts
    the pair space to row-space representatives.  The reported minimum is
    asserted to sit between the rational floor and the construction's
    kN + N - k.
    """
    if not 2 <= k <= BRUTE_FORCE_MAX_K:
        raise ValueError(
            f"brute force is limited to 2 <= k <= {BRUTE_FORCE_MAX_K} "
            f"(the pair space grows as 3^(N*N), infeasible beyond N=4)"
        )
    params = CodeParams(k)
    if cm is None:
        from .code import build_coding_matrices

        cm = build_coding_matrices(params)
    n = params.n_rows
    half = n // 2
    reps = [Gf3Matrix(m) for m in enumerate_rref(half, n)]
    transforms = [cm.dense(0) - cm.dense(l) for l in range(1, k)]

    best_io = None
    best_pair = None
    valid = 0
    nonzero_counts = [m.nonzero_column_count() for m in reps]
    interference_rows = [[st @ t for t in transforms] for st in reps]
    for si, s in enumerate(reps):
        n1 = nonzero_counts[si]
        for ti, st in enumerate(reps):
            if rank(Gf3Matrix.stack(s, st)) != n:
                continue
            if any(
                rank(Gf3Matrix.stack(s, m)) != half for m in interference_rows[ti]
            ):
                continue
            valid += 1
            io = k * n1 + nonzero_counts[ti]
            if best_io is None or io < best_io:
                best_io = io
                best_pair = RepairMatrixPair(s, st, FIRST_PARITY)
    if best_pair is None:
        raise RuntimeError("no valid repair pair found; conditions are unsatisfiable?")

    bound = io_lower_bound(k)
    if not bound.lower_bound_ceil <= best_io <= bound.achieved_io:
        raise RuntimeError(
            f"enumerated minimum {best_io} outside [{bound.lower_bound_ceil}, {bound.achieved_io}]"
        )
    return BruteForceResult(
        k=k,
        min_io=best_io,
        witness=best_pair,
        valid_pairs=valid,
        lower_bound_ceil=bound.lower_bound_ceil,
        construction_io=bound.achieved_io,
    )
