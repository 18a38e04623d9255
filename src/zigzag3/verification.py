"""The certificates of every structural claim the code rests on, and the
sweep that runs them per k.  The program runs closed-form plans
(``repair``), which need none of this algebra.

* The MDS ranks rank(A_i - A_j) = N, by a cycle walk (``verify_mds``),
  and the coding matrices and zigzag parity against the paper's
  row/coefficient rule (``coding_matrix_from_zigzag``,
  ``second_parity_by_rows``).
* The repair pair of each parity, by a block recursion from 1x2 seeds
  (``build_repair_pair``), one seed choice per parity: one zero column
  on the systematic side and none on the parity side, so a repair reads
  kN + N - k symbols.  It runs in ``SparseRows`` form; sums and sparse
  products are lists of int64 term keys (``_Terms``) that one sort
  merges mod 3, and no step forms a dense (N/2) x N or N x N matrix.
* The pair's full-rank and interference conditions, the swap duality
  and the zero-column census behind the read count.
* The floor of kN + (k-3)N/(2(k-1)) reads, exactly (``io_lower_bound``),
  and for small k by exhaustive search (``brute_force_min_io``).

No rank claim needs Gaussian elimination.  Every row r of ``s`` (and of
``s_tilde``) owns a unit column u_r: a column whose only nonzero,
d_r = +-1, lies in row r; a row that owns none raises
``MissingPivotError``.  Those columns prove full row rank, and reading a
matrix t at them gives the unique X with X s equal to t there; the
residual R = t - X s vanishes there, so rank(stack(s, t)) = rows(s) +
rank(R).  R = 0 certifies an interference condition; for the full-rank
condition R is the Schur complement of the stacked system, a signed
permutation, from whose entries the inverse is built.  X and R are
linear in t, so each product s_tilde P with a coding matrix P is reduced
once per sweep k (``_sharing``), and every condition's X and R are
signed sums of those.  The conditions check pays for each reduction; the
duality and io-meters checks reuse it, and io-meters compares each
closed-form parity plan with it (``_check_parity_plan``).  A residual
that fails these patterns is still ranked exactly: singleton rows and
columns are peeled off, and only what is left goes to dense elimination.

Each sweep check records its seconds, and each k its set-up seconds
(its coding matrices and both repair pairs); they tile the k's wall
time.  A fault hook lets tests corrupt the coding matrices.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .code import (
    CodeParams,
    CodingMatrixSet,
    _odd_weight,
    basis_index,
    build_coding_matrices,
    second_parity_by_matrices,
)
from .gf3 import (
    Gf3ShapeError,
    InconsistentSystemError,
    SignedPermutation,
    SingularMatrixError,
    rank,
    reduce_sum,
    residues,
)
from .repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    RepairPlan,
    SparseRows,
    _slot_image,
    expected_repair_io,
    plan_repair,
    repair_bandwidth,
)

__all__ = [
    "beta_row_coefficients",
    "coding_matrix_from_zigzag",
    "second_parity_by_rows",
    "verify_mds",
    "RepairMatrixPair",
    "build_repair_pair",
    "MissingPivotError",
    "verify_repair_conditions",
    "verify_duality",
    "verify_zero_column_structure",
    "IoBoundReport",
    "io_lower_bound",
    "BruteForceResult",
    "brute_force_min_io",
    "enumerate_rref",
    "SweepCheck",
    "SweepReport",
    "run_sweep",
    "flip_one_sign",
]

# ---------------------------------------------------------------------------
# The paper's row/coefficient rule, the reference the sweep compares with
# ---------------------------------------------------------------------------


def beta_row_coefficients(params: CodeParams, j: int) -> np.ndarray:
    """Coefficient beta(i, j) of part j's row-i symbol in the zigzag
    parity, for all rows i at once, as uint8 field elements.

    beta(i, 0) = 1; for j >= 1 it is +1 (1) when the first j of the k-1
    index bits of i have even parity and -1 (2) otherwise.  The parities
    of every row are folded down together by XOR shifts.
    """
    if not 0 <= j < params.k:
        raise ValueError(f"node index {j} out of range [0, {params.k})")
    if j == 0:
        return np.ones(params.n_rows, dtype=np.uint8)
    return 1 + _odd_weight(np.arange(params.n_rows) >> (params.k - 1 - j)).astype(np.uint8)


def coding_matrix_from_zigzag(params: CodeParams, j: int) -> SignedPermutation:
    """Coding matrix j built from the row/coefficient description.

    Row l has its single nonzero at column l ^ e_j with value beta(l ^ e_j, j).
    Independent of the block recursion; the two must agree entrywise.
    """
    target = np.arange(params.n_rows) ^ basis_index(params, j)
    sign = np.where(beta_row_coefficients(params, j)[target] == 1, 1, -1)
    return SignedPermutation(target, sign)


def second_parity_by_rows(params: CodeParams, parts: np.ndarray) -> np.ndarray:
    """Zigzag parity via the per-row combination rule.

    ``parts`` has shape (k, ..., N); the result row l sums, over parts j,
    the coefficient beta(l ^ e_j, j) times symbol l ^ e_j of part j.
    """
    parts = residues(parts)
    rows = np.arange(params.n_rows)
    acc = np.zeros(parts.shape[1:], dtype=np.int8)
    for j in range(params.k):
        idx = rows ^ basis_index(params, j)
        signs = np.where(beta_row_coefficients(params, j) == 1, 1, -1).astype(np.int8)
        term = np.take(parts[j].view(np.int8), idx, axis=-1)
        term *= signs[idx]
        acc += term
    return reduce_sum(acc)


# ---------------------------------------------------------------------------
# MDS verification
# ---------------------------------------------------------------------------


def _fixed_space_dim(target: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Nullity of I - P over GF(3) for each signed permutation P given by
    a row of the (products, n) ``target`` and ``sign``: the number of
    cycles of P whose sign product is +1.

    P x = x forces x[r] = sign[r] x[target[r]] around each cycle, so a
    cycle carries one free value if its signs multiply to +1 and forces 0
    if they multiply to -1.  The rows are laid end to end as one
    permutation, and all its cycles are walked in lockstep, as many steps
    as the longest cycle has; each cycle is counted once, at its smallest
    index.
    """
    products, n = target.shape
    flat = (target + n * np.arange(products)[:, None]).ravel()
    sign = sign.ravel()
    start = np.arange(flat.size)
    at = flat.copy()
    product = sign.copy()
    least = np.minimum(start, at)
    walking = np.flatnonzero(at != start)
    while walking.size:
        step = at[walking]
        product[walking] *= sign[step]
        step = flat[step]
        at[walking] = step
        least[walking] = np.minimum(least[walking], step)
        walking = walking[step != walking]
    return np.count_nonzero(((least == start) & (product == 1)).reshape(products, n), axis=1)


# Symbols of the products A_i^-1 A_j one walk takes (all up to k = 10, two
# at k = 16): its random gathers stay near the size of a core's cache.
_MDS_SYMBOLS = 1 << 16


def verify_mds(cm: CodingMatrixSet) -> tuple[bool, str]:
    """Check rank(A_i - A_j) = N for all i != j: (ok, every violation,
    joined by "; ").

    rank(A_i - A_j) = rank(I - A_i^-1 A_j) = N - c, with c the number of
    cycles of the signed permutation A_i^-1 A_j whose sign product is +1
    (``_fixed_space_dim``), so no elimination is needed.  Row r of the
    product is (sign_i sign_j)[u] at column target_j[u], u = A_i^-1's
    target at r: one gather forms ``_MDS_SYMBOLS`` symbols of products, and
    one walk counts their cycles.  rank(A_i) = N needs no check:
    ``SignedPermutation`` only holds invertible matrices.
    """
    params = cm.params
    n = params.n_rows
    target = np.stack([m.target for m in cm.matrices])
    sign = np.stack([m.sign for m in cm.matrices])
    inverse = np.argsort(target, axis=1)
    first, second = np.nonzero(~np.eye(params.k, dtype=bool))
    step = max(1, _MDS_SYMBOLS // n)
    violations = []
    for lo in range(0, first.size, step):
        i, j = first[lo : lo + step], second[lo : lo + step]
        u = inverse[i]
        nullity = _fixed_space_dim(np.take_along_axis(target[j], u, 1), np.take_along_axis(sign[i] * sign[j], u, 1))
        violations += [f"rank(A_{a} - A_{b}) = {n - c}, expected {n}" for a, b, c in zip(i, j, nullity) if c]
    return not violations, "; ".join(violations)


# ---------------------------------------------------------------------------
# Sparse term algebra
# ---------------------------------------------------------------------------


def _shift(cols: int) -> int:
    """Bits below the row in a term key over ``cols`` columns."""
    return int(cols).bit_length() + 2


class _Terms:
    """A rows x cols matrix as a sum of terms, each one int64 key:
    row << (b + 2) | column << 2 | value, where b = cols.bit_length()
    and the value is 1 or 2 (+1 or -1).  A (row, column) cell may take
    several terms; the matrix is their sum mod 3.  One key per term keeps
    every pass of the algebra to one array, and sorting the keys sorts
    the terms by row, then column."""

    __slots__ = ("rows", "cols", "key")

    def __init__(self, rows: int, cols: int, key: np.ndarray):
        self.rows, self.cols, self.key = rows, cols, key

    @classmethod
    def of(cls, rows: int, cols: int, r, c, v) -> "_Terms":
        return cls(rows, cols, (r << _shift(cols)) | (c << 2) | v)

    @property
    def shift(self) -> int:
        return _shift(self.cols)

    @property
    def r(self) -> np.ndarray:
        return self.key >> self.shift

    @property
    def c(self) -> np.ndarray:
        return (self.key >> 2) & ((1 << (self.shift - 2)) - 1)

    @property
    def v(self) -> np.ndarray:
        return self.key & 3


def _term_table(n: int) -> np.ndarray:
    """The low bits of a term key, column << 2 | value, for each of the
    2n + 1 slots over n columns; 0 for padding."""
    column = np.arange(n) << 2
    return np.concatenate([column | 1, column | 2, [0]])


def _terms(slots: np.ndarray, n: int) -> _Terms:
    """The terms of a slot array over n columns, one per slot that is not
    padding, in row order; a row may name a column more than once.  The
    table of their low bits is made once per ``_sharing`` block."""
    rows = slots.shape[0]
    low = _shared(("term table", n), lambda: _term_table(n))
    key = np.take(low, slots) | (np.arange(rows) << _shift(n))[:, None]
    return _Terms(rows, n, key[slots < 2 * n])


def _summed(t: _Terms) -> _Terms:
    """A sum of terms merged: one term per nonzero cell, sorted by row and
    then column.

    One ``np.sort`` of the keys lines equal (row, column) cells up, and
    one ``np.add.reduceat`` adds their values mod 3; what cancels is
    dropped.  Two keys name one cell when they differ only in the value
    bits, so no array of cells is formed.
    """
    key = np.sort(t.key)
    start = np.flatnonzero(np.concatenate([[True], (key[1:] ^ key[:-1]) > 3]))
    if start.size >= key.size:  # no cell repeats (or no terms)
        return _Terms(t.rows, t.cols, key)
    total = np.add.reduceat(key & 3, start) % 3
    kept = total != 0
    return _Terms(t.rows, t.cols, (key[start[kept]] & ~3) | total[kept])


def _combined(parts: list[_Terms], combos) -> _Terms:
    """One row block per combination, sum_(i, c) c parts[i] over its
    (index, sign) pairs, stacked and summed by one ``_summed``; a -1
    flips each term's value (XOR 3)."""
    rows, shift = parts[0].rows, parts[0].shift
    keys = [
        (parts[i].key ^ (3 if sign == -1 else 0)) + (j * rows << shift)
        for j, combo in enumerate(combos)
        for i, sign in combo
    ]
    return _summed(_Terms(len(combos) * rows, parts[0].cols, np.concatenate(keys)))


def _parts(t: _Terms, rows: int, blocks) -> list[_Terms]:
    """Blocks ``blocks`` of ``rows`` rows of summed terms, each renumbered
    from row 0; one ``np.searchsorted`` finds them all."""
    blocks = np.asarray(blocks, dtype=np.int64)
    bounds = np.searchsorted(t.key, np.stack([blocks, blocks + 1]) * rows << t.shift).T.tolist()
    return [_Terms(rows, t.cols, t.key[lo:hi] - (int(i) * rows << t.shift)) for i, (lo, hi) in zip(blocks, bounds)]


def _gathered(a: _Terms, b: _Terms) -> _Terms:
    """The terms of the product a @ b, unmerged: every term (r, q, v) of
    ``a`` contributes v times row q of ``b`` to row r.

    The terms of ``b`` are in row order, so row q is one run of them;
    the runs of all of ``a``'s terms are laid out by one ``np.repeat`` of
    their starts plus one ``np.arange``.  Each term of the run keeps b's
    column and value, with the value flipped (XOR 3) when v is -1.
    """
    if a.cols != b.rows:
        raise Gf3ShapeError(f"product: {a.cols} columns @ {b.rows} rows")
    bounds = np.searchsorted(b.key, np.arange(b.rows + 1) << b.shift)
    q = a.c
    lens = bounds[q + 1] - bounds[q]
    firsts = np.cumsum(lens) - lens
    at = np.repeat(bounds[q] - firsts, lens) + np.arange(int(lens.sum()))
    head = (a.r << b.shift) | (3 * (a.v == 2))
    low = b.key & ((1 << b.shift) - 1)
    return _Terms(a.rows, b.cols, np.repeat(head, lens) ^ np.take(low, at))


# ---------------------------------------------------------------------------
# Recursive construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairMatrixPair:
    """The (N/2) x N matrices applied by helpers during one parity repair.

    ``s`` is applied by systematic helpers (composed with the coding matrix
    when the zigzag parity is being repaired); ``s_tilde`` is applied by
    the surviving parity.  Both are ``SparseRows``.
    """

    s: SparseRows
    s_tilde: SparseRows
    variant: str

    def swapped(self) -> "RepairMatrixPair":
        other = SECOND_PARITY if self.variant == FIRST_PARITY else FIRST_PARITY
        return RepairMatrixPair(self.s_tilde, self.s, other)


# Per variant, the 1 x 2 seeds of the recursion: the slots of s and
# s_tilde over their 2 columns (c for +1, 2 + c for -1), and the column
# of the single -1 of each coupling block e and f.
_SEEDS = {
    FIRST_PARITY: (([1], [0, 1]), (1, 0)),
    SECOND_PARITY: (([0, 3], [1]), (0, 1)),
}


def _build_recursion(k: int, variant: str) -> tuple[SparseRows, SparseRows]:
    """Run the joint recursion for the repair pair and coupling blocks.

    One level maps s, s_tilde, e, f with n columns to
    s' = [[s, e], [0, s_tilde]], s_tilde' = [[s_tilde, -f], [0, s]],
    e' = diag(e, f) and f' = diag(f, e).  Each row of e and f holds one
    -1, so a level appends one entry to every top row, in a slot of its
    own, and shifts the other matrix's rows n columns right into the
    bottom half.  Both matrices are carried together as k slots per row
    over the final N columns, padding where a slot is still empty.
    """
    n_final = 1 << (k - 1)
    pad = 2 * n_final
    seeds, coupling = _SEEDS[variant]
    slots = np.full((2, 1, k), pad)
    for i, seed in enumerate(seeds):
        slots[i, 0, : len(seed)] = [c + (n_final - 2) * (c >= 2) for c in seed]
    e = np.array(coupling)[:, None]  # e for s, f for s_tilde
    n = 2
    for slot in range(2, k):
        top = slots.copy()
        top[:, :, slot] = n + e + [[n_final], [0]]  # e into s, -f into s_tilde
        bottom = slots[::-1]
        slots = np.concatenate([top, np.where(bottom < pad, bottom + n, pad)], axis=1)
        e = np.concatenate([e, e[::-1] + n], axis=1)
        n *= 2
    # Each row in ascending column order, padding last, as one sort of
    # both matrices; a slot names column slot mod N.
    column = np.where(slots < pad, slots % n_final, n_final)
    slots = np.take_along_axis(slots, np.argsort(column, axis=-1, kind="stable"), axis=-1)
    width = np.count_nonzero(slots < pad, axis=-1).max(axis=-1).tolist()
    return SparseRows(slots[0, :, : width[0]], n_final), SparseRows(slots[1, :, : width[1]], n_final)


def build_repair_pair(k: int, variant: str) -> RepairMatrixPair:
    """Repair matrices at level k for the chosen parity.

    For the zigzag parity the recursion's two outputs swap roles: the
    systematic helpers apply what the recursion labels the parity-side
    matrix, and vice versa.
    """
    if variant not in _SEEDS:
        raise ValueError(f"variant must be one of {tuple(_SEEDS)}, got {variant!r}")
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
    row_of: np.ndarray  # r at column u_r, -1 at the other columns
    rest: _Terms  # s on the other columns


def _unit_pivots(s: SparseRows) -> _Pivots:
    """One unit column per row of ``s``; ``MissingPivotError`` if some row
    owns none.

    A column is a unit column when exactly one slot reads it; row r's
    pivot u_r is the first unit column its slots read, and d_r = s[r, u_r]
    is +-1, its own inverse over GF(3).  Pivots prove that ``s`` has full
    row rank.
    """
    n = s.cols
    t = _terms(s.slots, n)
    r, c, v = t.r, t.c, t.v
    owned = np.bincount(c, minlength=n)[c] == 1
    unit = np.full(s.rows, n)
    np.minimum.at(unit, r[owned], c[owned])
    if (unit == n).any():
        raise MissingPivotError(f"row {int(np.argmax(unit == n))} of the matrix owns no unit column")
    row_of = np.full(n, -1)
    row_of[unit] = np.arange(s.rows)
    sign = np.empty(s.rows, dtype=np.intp)
    mine = owned & (c == unit[r])
    sign[r[mine]] = v[mine]
    off = row_of[c] < 0
    return _Pivots(unit, sign, row_of, _Terms(s.rows, n, t.key[off]))


def _eliminate(s: SparseRows, pivots: _Pivots, t: _Terms) -> tuple[_Terms, _Terms]:
    """Reduce the rows of ``t`` against ``s`` through its pivots.

    Returns X = t[:, U] diag(d), the unique matrix with X s equal to t on
    the pivot columns, and the residual R = t - X s, both summed.  X is
    the terms of ``t`` at the pivot columns, moved to the rows of ``s``
    that own them; X s equals t there, so R is the merge of t's other
    terms with the terms of -X s_C, the sparse product of X with the rest
    of ``s``.  Neither needs ``t`` merged first: X and X s_C are linear
    in its terms.  So rank(stack(s, t)) = s.rows + rank(R).
    """
    q = pivots.row_of[t.c]
    on = q >= 0
    key, q = t.key[on], q[on]
    flip = 3 * (pivots.sign[q] == 2)
    x = _Terms.of(t.rows, s.rows, key >> t.shift, q, (key & 3) ^ flip)
    xs = _gathered(_Terms(x.rows, x.cols, x.key ^ 3), pivots.rest)
    residual = _summed(_Terms(t.rows, s.cols, np.concatenate([t.key[~on], xs.key])))
    return _summed(x), residual


def _rank(t: _Terms) -> int:
    """The rank of a summed matrix, exactly.

    An entry alone in its column is a pivot: column operations clear the
    rest of its row, so it adds one to the rank and leaves with its row
    and column.  Such entries in distinct rows go together, and the next
    pass does the same on the transpose, whose rank is the same.  Passes
    alternate until two in a row peel nothing; what is left, if anything,
    is ranked by dense elimination of its rows and columns.
    """
    r, c, v = t.r, t.c, t.v
    peeled, idle = 0, 0
    while r.size and idle < 2:
        single = np.flatnonzero(np.bincount(c)[c] == 1)
        pick = single[np.unique(r[single], return_index=True)[1]]
        keep = ~(np.isin(r, r[pick]) | np.isin(c, c[pick]))
        peeled, idle = peeled + pick.size, 0 if pick.size else idle + 1
        r, c, v = c[keep], r[keep], v[keep]
    if not r.size:
        return peeled
    _, rr = np.unique(r, return_inverse=True)
    _, cc = np.unique(c, return_inverse=True)
    dense = np.zeros((rr.max() + 1, cc.max() + 1), dtype=np.uint8)
    dense[rr, cc] = v
    return peeled + rank(dense)


def _block_ranks(t: _Terms, rows: int) -> list[int]:
    """The rank of each block of ``rows`` rows of summed terms: its term
    count when it has at most one per row and per column (zero, or a
    signed permutation or part of one), else ``_rank``, which only a pair
    failing its conditions gets to."""
    blocks = t.rows // rows
    r, c = t.r, t.c
    b = r // rows
    per_row = np.bincount(r, minlength=t.rows).reshape(blocks, rows).max(axis=1, initial=0)
    per_col = np.bincount(b * t.cols + c, minlength=blocks * t.cols).reshape(blocks, t.cols).max(axis=1, initial=0)
    ranks = np.bincount(b, minlength=blocks).tolist()
    failing = np.flatnonzero((per_row > 1) | (per_col > 1))
    for i, block in zip(failing, _parts(t, rows, failing)):
        ranks[i] = _rank(block)
    return ranks


# Terms of X s_C formed at a time by one ``_eliminate``: small targets
# share the fixed cost of a call, while large ones are reduced a block
# or a few at a time, so its arrays stay at a few hundred KB.  On a
# 2-core VM, one call per block made the k = 2..9 sweep about 40% slower
# (median), 2^18 was no faster than 2^15, and one unbounded batch raised
# the traced peak of a k = 16 condition and duality check from 50 to
# 300 MiB.
_BATCH_ENTRIES = 1 << 15


# What the checks of one sweep k share (``_sharing``): its repair pairs,
# by (N, variant); per pair, by (s, s_tilde), the X and R of every
# product s_tilde P reduced so far, by P; and what ``_shared`` keeps by
# its keys: the unit-column pivots of each matrix reduced against, each
# coding set's conditions and each permutation's slot image.
_SHARED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_SHARED", default=None)


@contextlib.contextmanager
def _sharing(pairs: list[RepairMatrixPair]) -> Iterator[None]:
    """Share ``pairs``, which parity-plan checks take instead of building
    their own, and their pivots and reductions among the calls made
    inside.  The first call that reduces a product s_tilde P of a pair
    pays for it and keeps X and R; later calls read them, and the check
    of the pair's parity plan (``_check_parity_plan``), their last reader,
    takes them away.  A reduction that raises is not kept, so each caller
    that needs it fails on its own.  Nothing outlives the block."""
    token = _SHARED.set({(p.s.cols, p.variant): p for p in pairs} | {(p.s, p.s_tilde): {} for p in pairs})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(key, make):
    """``make()``, made once per ``_sharing`` block and kept under ``key``
    (a key compares what it names by value, or a matrix by identity);
    outside a block, made on every call."""
    shared = _SHARED.get()
    if shared is None:
        return make()
    if key not in shared:
        shared[key] = make()
    return shared[key]


# A sweep k keeps each permutation's slot image up to this N (32 KiB an
# image).  Past it, one costs little beside the products it maps, and the
# k + 1 images of k = 16 raised the sweep's peak by 8.5 MiB.
_KEPT_IMAGE_N = 1 << 10


def _image(p: SignedPermutation) -> np.ndarray:
    """``repair._slot_image`` of p, kept per ``_sharing`` block up to ``_KEPT_IMAGE_N``."""
    return _shared(("slot image", p), lambda: _slot_image(p)) if p.size <= _KEPT_IMAGE_N else _slot_image(p)


def _pivots_of(s: SparseRows) -> _Pivots:
    """``_unit_pivots`` of ``s``, found once per ``_sharing`` block."""
    return _shared(s, lambda: _unit_pivots(s))


def _reductions(
    s: SparseRows, pivots: _Pivots, m: SparseRows, perms: list[SignedPermutation], take: bool = False
) -> list[tuple[_Terms, _Terms]]:
    """X and R of ``_eliminate`` for m P against the pivots of ``s``, each
    distinct P in ``perms`` reduced once; inside ``_sharing`` a shared
    pair (s, m) keeps them between calls, and ``take`` removes them.

    The products are stacked a fixed number at a time, and only one batch
    of them is formed at once.  Every m P has the terms of m, and the
    widest row of s_C bounds the terms of X s_C each term forms, so a
    batch of max(1, ``_BATCH_ENTRIES`` // cost) products forms at most
    ``_BATCH_ENTRIES`` of them (a product over it goes alone).  A batch
    is one ``np.take`` of the slots of m through its stacked slot images,
    and ``_parts`` splits its X and R per product."""
    shared = _SHARED.get() or {}
    memo = (shared.pop if take else shared.get)((s, m), {})
    todo = [p for p in dict.fromkeys(perms) if p not in memo]
    if not todo:
        return [memo[p] for p in perms]
    half = s.rows
    per_term = max(1, int(np.bincount(pivots.rest.r, minlength=half).max(initial=0)))
    step = max(1, _BATCH_ENTRIES // max(1, int(np.count_nonzero(m.slots < 2 * m.cols)) * per_term))
    for i in range(0, len(todo), step):
        batch = todo[i : i + step]
        images = np.stack([_image(p) for p in batch])
        slots = np.take(images, m.slots, axis=1).reshape(-1, m.slots.shape[1])
        x, residual = _eliminate(s, pivots, _terms(slots, m.cols))
        every = range(len(batch))
        memo.update(zip(batch, zip(_parts(x, half, every), _parts(residual, half, every))))
    return [memo[p] for p in perms]


def _stacked_ranks(s: SparseRows, m: SparseRows, perms: list[SignedPermutation], combos) -> list[int]:
    """rank(stack(s, t)) for every t = sum_(i, c) c m perms[i] over the
    (index, sign) pairs of a combination in ``combos``, exactly.

    Each m P is reduced against the unit-column pivots of ``s`` once
    (``_reductions``), and since X and R are linear in the rows reduced,
    the residual of each t is the signed sum of theirs; its rank is
    s.rows + rank(R).  ``MissingPivotError`` if a row of ``s`` owns no
    unit column.
    """
    residual = _combined([r for _, r in _reductions(s, _pivots_of(s), m, perms)], combos)
    return [s.rows + r for r in _block_ranks(residual, s.rows)]


def _stacked_inverse(s: SparseRows, pivots: _Pivots, m: _Terms, schur: _Terms) -> _Terms:
    """Inverse of the square stack(s, base), from its Schur factors, as
    summed terms.

    ``m`` = M = base_U diag(d) and ``schur`` = S = base - M s are what
    ``_eliminate`` returns for ``base``; S lives on the columns C off the
    pivots U.  Split the unknowns y at U and C.  The rows s y = a give
    y_U = d (a - s_C y_C), since s_U = diag(d); the rows base y = b then
    leave S y_C = b - M a.  S must be a signed permutation, which also
    certifies full rank (else ``SingularMatrixError``): row r of it is
    sigma_r at column c_r, so y[c_r] = sigma_r (b_r - (M a)_r), a row of
    the inverse with one entry more than row r of M.  Each pivot row
    y[u_q] = d_q (a_q - sum_c s[q, c] y[c]) is then the sparse product of
    s_C with those rows.  The inverse maps [a; b] to y, so a is its first
    half of columns and b its second.
    """
    half, n = s.rows, s.cols
    r, c, sigma = schur.r, schur.c, schur.v
    if r.size != half or np.bincount(r, minlength=half).max() != 1 or np.bincount(c, minlength=n).max() != 1:
        raise SingularMatrixError("Schur complement of the stacked system is not a signed permutation")
    # r = 0..half-1 in order, so sigma and c are indexed by the rows of S.
    y = _Terms.of(
        n,
        n,
        np.concatenate([c, c[m.r]]),
        np.concatenate([half + r, m.c]),
        np.concatenate([sigma, m.v ^ (3 * (sigma[m.r] == 1))]),
    )
    y = _Terms(n, n, np.sort(y.key))
    rest, d = pivots.rest, pivots.sign
    # Row u_q takes -d_q s[q, c] times row c of y, and d_q at column q.
    moved = _Terms.of(n, n, pivots.unit[rest.r], rest.c, rest.v ^ (3 * (d[rest.r] == 1)))
    pivot_rows = _Terms.of(n, n, pivots.unit, np.arange(half), d)
    return _summed(_Terms(n, n, np.concatenate([y.key, _gathered(moved, y).key, pivot_rows.key])))


# ---------------------------------------------------------------------------
# Rank conditions
# ---------------------------------------------------------------------------


def _conditions(cm: CodingMatrixSet, variant: str) -> tuple[list[SignedPermutation], list]:
    """The signed permutations P whose products m P the repair conditions
    combine, and each condition's combination as (index, sign) pairs:
    m A_0^(+-1) for full rank, then m (I - A_l) for the row-sum parity
    and m (I + A_l) for the zigzag parity, l = 1..k-1 (A_0^-1 - A_l^-1 =
    I + A_l since A_l squares to -I).  Inside ``_sharing`` they are made
    once per coding set and variant, kept by the set's identity (faster to
    hash than its k matrices) with the set, which holds that identity;
    callers do not change them."""

    def conditions():
        identity = SignedPermutation.identity(cm.params.n_rows)
        a0 = cm.matrices[0] if variant == FIRST_PARITY else cm.matrices[0].inverse()
        # An A_0 equal to I (the paper's) is I itself, so looking up its
        # product finds I's by identity, with no comparison of entries.
        perms = [identity, identity if a0 == identity else a0, *cm.matrices[1:]]
        sign = -1 if variant == FIRST_PARITY else 1
        return perms, [((1, 1),)] + [((0, 1), (l + 1, sign)) for l in range(1, cm.params.k)]

    return _shared((f"conditions {variant}", id(cm)), lambda: (cm, conditions()))[1]


def _condition_failures(n: int, ranks: list[int]) -> list[str]:
    """"name: actual != expected" for each rank of ``ranks`` (full rank,
    expected N, then interference l = 1, 2, ..., expected N/2) that misses."""
    expected = [("full-rank", n)] + [(f"interference-l{l}", n // 2) for l in range(1, len(ranks))]
    return [f"{name}: {r} != {want}" for (name, want), r in zip(expected, ranks) if r != want]


def _condition_ranks(pair: RepairMatrixPair, cm: CodingMatrixSet) -> list[int]:
    """The ranks of the full-rank stack and of each interference stack."""
    return _stacked_ranks(pair.s, pair.s_tilde, *_conditions(cm, pair.variant))


def verify_repair_conditions(pair: RepairMatrixPair, cm: CodingMatrixSet) -> tuple[bool, str]:
    """Rank conditions for optimal repair: the stacked pair must reach full
    rank N (recoverability) while every interference stack collapses to
    rank N/2 (cancellability).  Returns (ok, the failing conditions as
    "name: actual != expected", joined by "; ").

    The ranks are ``_stacked_ranks`` of ``pair.s`` over the rows of
    ``_conditions``, reduced against the unit-column pivots of
    ``pair.s``; a pair whose ``s`` lacks them raises
    ``MissingPivotError``.  An interference rank of N/2 is certified by a
    zero residual and full rank by a signed-permutation residual; any
    other residual is ranked exactly, so a failing pair reports its true
    rank.
    """
    failures = _condition_failures(cm.params.n_rows, _condition_ranks(pair, cm))
    return not failures, "; ".join(failures)


def _duality_ranks(pair: RepairMatrixPair, cm: CodingMatrixSet) -> tuple[list[int], list[tuple[int, int]]]:
    """The swapped pair's condition ranks, and per l = 1..k-1 the ranks of
    the two sides of the identity ``verify_duality`` checks.

    Both sides are ``_stacked_ranks`` certificates: the swapped
    conditions and every left side against the unit-column pivots of
    ``s_tilde``, every right side against those of ``s``: the products
    s_tilde P of the repair conditions, which a sweep reduces once
    (``_sharing``).  When the swapped pair serves the zigzag parity, its
    interference rows are the left sides s(I + A_l) themselves, so their
    ranks are reused; else the left sides combine the same products s A_l.
    """
    swapped = pair.swapped()
    k = cm.params.k
    perms, combos = _conditions(cm, swapped.variant)
    lhs_combos = [] if swapped.variant == SECOND_PARITY else [((0, 1), (l + 1, 1)) for l in range(1, k)]
    ranks = _stacked_ranks(pair.s_tilde, pair.s, perms, combos + lhs_combos)
    lhs = ranks[k:] if lhs_combos else ranks[1:]
    # I and the A_l of the pair's own conditions, whose products are reduced.
    perms = _conditions(cm, pair.variant)[0]
    perms = [perms[0], *perms[2:]]
    rhs = _stacked_ranks(pair.s, pair.s_tilde, perms, [((0, 1), (l, -1)) for l in range(1, k)])
    return ranks[:k], list(zip(lhs, rhs))


def verify_duality(pair: RepairMatrixPair, cm: CodingMatrixSet) -> tuple[bool, str]:
    """A valid pair for one parity, with roles swapped, repairs the other.

    Beyond re-running the swapped pair through the other parity's
    conditions, the underlying rank identity is checked for every l:
    stacking s_tilde over s(I + A_l) has the same rank as stacking s over
    s_tilde(I - A_l) (``_duality_ranks``).  Returns (ok, "" or what failed).
    """
    swapped, sides = _duality_ranks(pair, cm)
    ok = not _condition_failures(cm.params.n_rows, swapped) and all(a == b for a, b in sides)
    return ok, "" if ok else "swapped-pair conditions or rank equalities failed"


# ---------------------------------------------------------------------------
# Zero-column structure (census and propagation)
# ---------------------------------------------------------------------------


def _propagation_violations(
    params: CodeParams, zero_cols: list[int], other: SparseRows, label: str
) -> list[str]:
    """Every zero column forces +- equal column pairs in the other matrix:
    the columns at the bit-flipped indices must match the base column up
    to sign.  The columns are the rows of ``other``'s transpose, summed
    once; a column is equal up to sign when its terms are, or are with
    every value flipped (XOR 3)."""
    t = _terms(other.slots, other.cols)
    columns = _summed(_Terms.of(other.cols, other.rows, t.c, t.r, t.v))
    out = []
    for i in zero_cols:
        flipped = [i ^ basis_index(params, l) for l in range(1, params.k)]
        base, *cols = (c.key for c in _parts(columns, 1, [i, *flipped]))
        for l, (j, col) in enumerate(zip(flipped, cols), 1):
            if not (np.array_equal(col, base) or np.array_equal(col, base ^ 3)):
                out.append(f"{label}: column {j} is not +-column {i} (flip l={l})")
    return out


def _zero_columns(pair: RepairMatrixPair) -> tuple[list[int], list[int]]:
    """The zero columns of ``s`` and of ``s_tilde``: the columns no slot reads."""
    return tuple(np.flatnonzero(~m.read_columns()).tolist() for m in (pair.s, pair.s_tilde))


def verify_zero_column_structure(pair: RepairMatrixPair, params: CodeParams) -> tuple[bool, str]:
    """The zero-column census behind the read count kN + N - k (column 0
    of ``s`` only, which meets the floor of N - N/(2(k-1)) nonzero columns
    since N >= 2(k-1)), and the +- equal column pairs each zero column
    forces in the other matrix: (ok, census; floor; any violations)."""
    zc_s, zc_st = _zero_columns(pair)
    violations = _propagation_violations(params, zc_s, pair.s_tilde, "parity-side")
    violations += _propagation_violations(params, zc_st, pair.s, "systematic-side")
    floor = io_lower_bound(params.k).per_matrix_floor
    detail = "; ".join([f"zero cols s={tuple(zc_s)} s_tilde={tuple(zc_st)}; floor {floor}", *violations])
    return zc_s == [0] and not zc_st and not violations, detail


# ---------------------------------------------------------------------------
# Parity plans against elimination
# ---------------------------------------------------------------------------


def _check_parity_plan(plan: RepairPlan, cm: CodingMatrixSet) -> list[str]:
    """What of the closed-form parity ``plan`` differs from elimination.

    Everything is read off the reductions of the products s_tilde P
    against the pivots of ``pair.s`` (``_reductions``), which inside
    ``_sharing`` are the ones the pair's condition and duality checks
    formed; this check, their last reader, takes them.  The downloads are
    compared with the pair's, s (or s A_j) and s_tilde, slot for slot, as
    the closed form keeps the recursion's slot order.  The base is
    compared with X of s_tilde, each one-slot projector with c X of
    s_tilde A_l, and the solve inverse with ``_stacked_inverse`` of the
    Schur factors of s_tilde A_0^(+-1), each as merged terms.  What
    elimination raises on propagates: ``MissingPivotError`` for a pair
    without pivots, ``SingularMatrixError`` for a singular stack, and
    ``InconsistentSystemError`` for an interference residual that does not
    vanish.
    """
    k, half = plan.params.k, plan.params.n_rows // 2
    variant = FIRST_PARITY if plan.failed_node == k else SECOND_PARITY
    # The pair of the sweep's k inside ``_sharing``, else a new one.
    pair = (_SHARED.get() or {}).get((1 << (k - 1), variant)) or build_repair_pair(k, variant)
    pivots = _pivots_of(pair.s)
    perms, combos = _conditions(cm, variant)
    xs, residuals = zip(*_reductions(pair.s, pivots, pair.s_tilde, perms, take=True))
    if _combined(residuals, combos[1:]).key.size:
        raise InconsistentSystemError("target rows are not in the row space")
    solve = _stacked_inverse(pair.s, pivots, xs[1], residuals[1])

    # Block l of the conditions adds c times product l + 1 to the base
    # product, index 0; the one-slot parts are compared in one stack.  The
    # base's slots ascend and each part has one per row, so their terms
    # are in merged order as they stand.
    parts = _terms(np.concatenate([plan.projectors[l].slots for l in range(1, k)]), half)
    found = []
    # s A_j has the slots of s through A_j's slot image, formed one at a time.
    zigzag = variant == SECOND_PARITY
    systematic = (np.take(_image(a), pair.s.slots) if zigzag else pair.s.slots for a in cm.matrices)
    downloads = itertools.chain(enumerate(systematic), [(plan.bottom_node, pair.s_tilde.slots)])
    if plan.downloads.keys() != {*range(k), plan.bottom_node} or not all(
        np.array_equal(plan.downloads[h].slots, slots) for h, slots in downloads
    ):
        found.append("downloads")
    if not np.array_equal(_terms(plan.projector_base.slots, half).key, xs[0].key):
        found.append("projector base")
    if not np.array_equal(parts.key, _combined(xs, [combo[1:] for combo in combos[1:]]).key):
        found.append("one-slot projectors")
    inverse = plan.solve_inverse
    if not np.array_equal(_summed(_terms(inverse.slots, inverse.cols)).key, solve.key):
        found.append("solve inverse")
    return found


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


def io_lower_bound(k: int) -> IoBoundReport:
    """The floor at ``k`` against the reads of a parity plan,
    ``expected_repair_io``; ``ValueError`` for a k ``CodeParams`` refuses."""
    params = CodeParams(k)
    n = params.n_rows
    correction = Fraction((k - 3) * n, 2 * (k - 1))
    return IoBoundReport(
        k=k,
        n_rows=n,
        achieved_io=expected_repair_io(params, k),
        lower_bound=k * n + correction,
        per_matrix_floor=n - Fraction(n, 2 * (k - 1)),
        bandwidth_floor=repair_bandwidth(params),
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
    the pair space to row-space representatives.  Every pair is tested at
    once on row spaces: each representative's row space is a membership
    mask over the 3^N vectors of GF(3)^N, coded in base 3.  Both matrices
    have full row rank N/2, so their stack has rank N exactly when their
    row spaces meet only in 0, and an interference stack (s over
    s_tilde (A_0 - A_l)) has rank N/2 exactly when every row of the second
    lies in the row space of s.  The first minimal pair in enumeration
    order is the witness.  The reported minimum is asserted to sit between
    the rational floor and the construction's kN + N - k.
    """
    if not 2 <= k <= BRUTE_FORCE_MAX_K:
        raise ValueError(
            f"brute force is limited to 2 <= k <= {BRUTE_FORCE_MAX_K} "
            f"(the pair space grows as 3^(N*N), infeasible beyond N=4)"
        )
    params = CodeParams(k)
    if cm is None:
        cm = build_coding_matrices(params)
    n = params.n_rows
    half = n // 2
    reps = np.array(list(enumerate_rref(half, n)), dtype=np.int64)  # (representatives, N/2, N)
    count = len(reps)
    nonzero_counts = reps.any(axis=1).sum(axis=1)
    place = 3 ** np.arange(n)
    combos = np.array(list(itertools.product(range(3), repeat=half)))
    member = np.zeros((count, 3**n), dtype=bool)
    member[np.arange(count)[:, None], (combos @ reps) % 3 @ place] = True
    full_rank = (member[:, None] & member[None]).sum(axis=2) == 1

    def times(a: SignedPermutation) -> np.ndarray:
        # Column target[c] of st A is sign[c] times column c of st.
        out = np.empty_like(reps)
        out[..., a.target] = reps * a.sign
        return out

    a0 = times(cm.matrices[0])
    interference = np.concatenate([(a0 - times(a)) % 3 for a in cm.matrices[1:]], axis=1) @ place
    valid = full_rank & member[:, interference].all(axis=2)
    if not valid.any():
        raise RuntimeError("no valid repair pair found; conditions are unsatisfiable?")
    io = k * nonzero_counts[:, None] + nonzero_counts[None, :]
    best_io = int(io[valid].min())
    si, ti = divmod(int(np.flatnonzero(valid & (io == best_io))[0]), count)
    best_pair = (reps[si], reps[ti])

    bound = io_lower_bound(k)
    if not bound.lower_bound_ceil <= best_io <= bound.achieved_io:
        raise RuntimeError(
            f"enumerated minimum {best_io} outside [{bound.lower_bound_ceil}, {bound.achieved_io}]"
        )
    return BruteForceResult(
        k=k,
        min_io=best_io,
        witness=RepairMatrixPair(*(SparseRows.from_dense(m) for m in best_pair), FIRST_PARITY),
        valid_pairs=int(valid.sum()),
        lower_bound_ceil=bound.lower_bound_ceil,
        construction_io=bound.achieved_io,
    )


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


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
