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

Every matrix here is a ``SparseRows``: a row names, per slot, a row of
the residue stack [x; -x; 0] of the symbols x it is applied to.  The
recursion gives each row at most k nonzeros and runs in that form: each
level appends one slot to every top row and shifts the other matrix into
the bottom half.  The algebra stays sparse.  A product with a coding
matrix maps slots through its signed permutation (``SparseRows.times``);
sums and sparse products are lists of terms, one int64 key each, that
one sort merges, adding equal cells mod 3.  No step forms a dense
(N/2) x N or N x N matrix.

No rank claim needs Gaussian elimination.  Every row r of
``s`` (and of ``s_tilde``) owns a unit column u_r, found from column
counts: a column whose only nonzero, d_r = +-1, lies in row r; a matrix
with a row that owns none raises ``MissingPivotError``, and no pair the
recursion builds has one.  Those columns prove full row rank, and
reading any matrix t at them gives the unique X with X s equal to t on
the pivot columns; the residual R = t - X s vanishes there, so
rank(stack(s, t)) = rows(s) + rank(R).
R = 0 certifies an interference condition (and is the projector's
consistency check); for the full-rank condition R is the Schur
complement of the stacked system, a signed permutation, from whose
entries the inverse is built.  X and R are linear in t, so each product
s_tilde P with a coding matrix P is reduced once, and every condition's
X and R are signed sums of those: s_tilde (I -+ A_l) costs two small
merges, not a reduction of its own.  A residual that fails these patterns is
still ranked exactly: singleton rows and columns are peeled off, and
only what is left goes to dense elimination.

No plan needs elimination either; every plan is in closed form.  A data
node's is the zigzag rebuild.  For a parity, the pair is the rows of
T = I + sigma C, where row u of C holds (-1)^popcount(u mod 2^b) at
column u | 2^b for each bit b < k-1 clear in u: ``s`` the odd-weight
rows and ``s_tilde`` the even-weight ones.  ``s`` is the identity on its
odd-weight columns, so each X above is read off there; C^2 = 0 mod 3, so
T^-1 = I - sigma C (``_plan_parity``).  Each projector splits into a base,
sigma C on the even rows and odd columns, the same for every helper,
and one signed slot per row.  These facts hold for the paper's coding
matrices, and no parity plan is made for another set.  The planner runs
no recursion; elimination stays the certificate: the sweep's io-meters
check compares every parity plan's downloads with the recursion's pair
and the rest with the reductions its condition checks already formed
(``_check_parity_plan``).

A plan's downloads, its solve inverse and a parity's projector base
have at most k nonzeros per row; a data node's are raw row selections
and signed permutations, and every projector part has one slot per row.
Terms are summed in int8 and reduced by ``gf3.reduce_sum`` before the
sum can leave +-127; sums of residue-stack rows, which hold 3 - x for
-x, stay nonnegative and are reduced by ``_mod3``.  Shards and downloads
keep their (stripes, N) shapes at the API, and a plan is one of two
kinds, each with its own layout:

* A data-node plan runs in the shard layout, along the last axis of the
  (stripes, N) shards, since its planner records which rows the helpers
  send: runs of 2^b symbols for node j >= 1 (``_Runs``), one row of each
  pair for node 0 (``_Pairs``).  A download is a select of those rows, a
  projector an XOR word gather (``SignedPermutation.terms``), and the
  solve merges the two halves back into the rows.  Nothing is transposed.
* A parity plan runs symbol-major: each helper's shard is transposed
  once into a (rows, stripes) residue stack, a slot column is one
  whole-row ``np.take`` from it over the rows that have a slot there,
  and the rebuilt shard is transposed back once.  The plan applies its
  base once, to the sum of the projected downloads, and each helper's
  one-slot part is a signed row take.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .code import CodeParams, CodingMatrixSet, _is_paper_set, _odd_weight, basis_index, build_coding_matrices
from .gf3 import (
    Gf3ShapeError,
    InconsistentSystemError,
    SignedPermutation,
    SingularMatrixError,
    _line_of,
    _times_per_column,
    rank,
    reduce_sum,
    residues,
)

__all__ = [
    "FIRST_PARITY",
    "SECOND_PARITY",
    "RepairMatrixPair",
    "build_repair_pair",
    "verify_repair_conditions",
    "verify_duality",
    "verify_zero_column_structure",
    "MissingPivotError",
    "SparseRows",
    "RepairPlan",
    "plan_repair",
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

# ---------------------------------------------------------------------------
# Sparse-row matrices
# ---------------------------------------------------------------------------


class SparseRows:
    """A GF(3) matrix with few nonzeros per row in padded row ("ELL")
    form, the one type of every repair matrix.

    ``slots[r, t]`` names a row of the residue stack [x; -x; 0] of the
    ``cols``-row block x the matrix is applied to: c for a +1 entry of row
    r in column c, cols + c for a -1 entry, and 2 cols, the zero row, on
    padding.  Each row has at least one slot and names a column at most
    once.  A row selection is ``SparseRows(index[:, None], cols)``.  The
    dense ``array`` is built only when asked for.
    """

    __slots__ = ("slots", "cols", "_columns", "_source")

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
        self._columns = None
        self._source = None

    @classmethod
    def from_dense(cls, a) -> "SparseRows":
        """The form of a 2-D matrix, any integers taken mod 3, with each
        row's nonzeros in ascending column order."""
        a = residues(a)
        rows, n = a.shape
        entries = a.ravel()
        flat = np.flatnonzero(entries)
        r, c = np.divmod(flat, n)
        return _pack(rows, n, r, c, entries[flat])

    @classmethod
    def from_permutation(cls, target, sign) -> "SparseRows":
        """The signed permutation whose row r is sign[r] at column
        target[r], one slot per row; ``_permutation_slots`` checks it."""
        slots = _permutation_slots(target, sign)
        if slots.ndim != 1:
            raise Gf3ShapeError("target and sign must be 1-D")
        return cls(slots[:, None], slots.shape[0])

    @property
    def rows(self) -> int:
        return self.slots.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The dense (rows, cols) uint8 matrix."""
        hit = np.zeros((self.rows, 2 * self.cols + 1), dtype=np.uint8)
        hit[np.arange(self.rows)[:, None], self.slots] = 1
        return hit[:, : self.cols] + 2 * hit[:, self.cols : -1]

    def read_columns(self) -> np.ndarray:
        """Whether each column is read by some slot; padding reads the
        zero row."""
        read = np.zeros(2 * self.cols + 1, dtype=bool)
        read[self.slots] = True
        return read[: self.cols] | read[self.cols : -1]

    def nonzero_column_count(self) -> int:
        return int(np.count_nonzero(self.read_columns()))

    def times(self, p: SignedPermutation) -> "SparseRows":
        """``self @ p``, whose column target[c] is sign[c] times column c.

        One ``np.take`` of the slots through a 2n + 1 entry map: c goes to
        target[c] (n + target[c] if sign[c] < 0), n + c to target[c]
        (n + target[c] if sign[c] > 0), and the padding 2n stays.  So the
        product keeps the padding of ``self``, and its gather form is
        that of ``self`` through the map, taken on first use.
        """
        n = self.cols
        if p.size != n:
            raise Gf3ShapeError(f"times: {n} columns @ permutation of size {p.size}")
        product = SparseRows(np.take(_slot_image(p), self.slots), n)
        product._source = (self, p)
        return product

    def _gather_columns(self) -> tuple[list[np.ndarray], np.ndarray | None]:
        """The slots to gather one column at a time with no padding read,
        and the take that puts the rows back in order (``None`` when they
        keep it).  Found on the first call and kept.

        Rows go by falling slot count, and a row with padding, 2 cols,
        before a slot has its slots sorted, so padding comes last in every
        row and slot column t is read only by the prefix of rows with more
        than t slots.  The first column covers every row, so a row of
        padding alone reads the zero row.  A product ``m.times(p)`` maps
        the form of m, whose rows have the same padding.
        """
        if self._columns is None and self._source is not None:
            source, p = self._source
            columns, restore = source._gather_columns()
            image = _slot_image(p)
            self._columns = ([np.take(image, column) for column in columns], restore)
        if self._columns is None:
            pad = self.slots == 2 * self.cols
            count = self.slots.shape[1] - np.count_nonzero(pad, axis=1)
            order = np.argsort(-count, kind="stable")
            slots = self.slots[order]
            if (pad[:, :-1] & ~pad[:, 1:]).any():
                slots = np.sort(slots, axis=1)
            reach = [self.rows] + [int(np.count_nonzero(count > t)) for t in range(1, slots.shape[1])]
            columns = [column[:r] for column, r in zip(np.ascontiguousarray(slots.T), reach) if r]
            restore = None if np.array_equal(order, np.arange(self.rows)) else np.argsort(order)
            self._columns = (columns, restore)
        return self._columns


# A sweep k keeps each permutation's slot image up to this N (32 KiB an
# image).  Past it, one costs little beside the products it maps, and the
# k + 1 images of k = 16 raised the sweep's peak by 8.5 MiB.
_KEPT_IMAGE_N = 1 << 10


def _slot_image(p: SignedPermutation) -> np.ndarray:
    """Where ``SparseRows.times`` sends each slot over p.size columns,
    found once per permutation in a ``_sharing`` block up to
    ``_KEPT_IMAGE_N``."""
    n = p.size

    def image():
        return np.concatenate([p.target + n * (p.sign < 0), p.target + n * (p.sign > 0), [2 * n]])

    return _shared(("slot image", p), image) if n <= _KEPT_IMAGE_N else image()


def _permutation_slots(target, sign) -> np.ndarray:
    """The slots of signed permutations along the last axis: target, or
    n + target for a -1.  ``ValueError`` unless every row of ``target``
    is a permutation of 0..n-1 and every sign is +-1; one sort checks
    every row at once."""
    target = np.asarray(target, dtype=np.intp)
    sign = np.asarray(sign)
    if target.shape != sign.shape or target.ndim < 1:
        raise Gf3ShapeError("target and sign must have one shape, of at least one axis")
    n = target.shape[-1]
    if not (np.sort(target, axis=-1) == np.arange(n)).all():
        raise ValueError("target is not a permutation of 0..N-1")
    if not (np.abs(sign) == 1).all():
        raise ValueError("signs must be +1 or -1")
    return target + n * (sign < 0)


def _pack(rows: int, n: int, r: np.ndarray, c: np.ndarray, v: np.ndarray) -> SparseRows:
    """The ``SparseRows`` of entries (r, c, v), v in {1, 2}, given in
    ascending row order with at most one per row and column; each row's
    slots keep the order given, padding last."""
    counts = np.bincount(r, minlength=rows)
    first = np.cumsum(counts) - counts
    slots = np.full((rows, max(1, int(counts.max(initial=0)))), 2 * n, dtype=np.intp)
    slots[r, np.arange(r.size) - first[r]] = c + n * (v == 2)
    return SparseRows(slots, n)


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


def _of_set(cm: CodingMatrixSet, what: str, make):
    """``_shared`` for the coding set ``cm``, kept by its identity (faster
    to hash than its k matrices) with the set, which holds that identity."""
    return _shared((what, id(cm)), lambda: (cm, make()))[1]


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
        images = np.stack([_slot_image(p) for p in batch])
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
    once per coding set and variant; callers do not change them."""

    def conditions():
        identity = SignedPermutation.identity(cm.params.n_rows)
        a0 = cm.matrices[0] if variant == FIRST_PARITY else cm.matrices[0].inverse()
        # An A_0 equal to I (the paper's) is I itself, so looking up its
        # product finds I's by identity, with no comparison of entries.
        perms = [identity, identity if a0 == identity else a0, *cm.matrices[1:]]
        sign = -1 if variant == FIRST_PARITY else 1
        return perms, [((1, 1),)] + [((0, 1), (l + 1, sign)) for l in range(1, cm.params.k)]

    return _of_set(cm, f"conditions {variant}", conditions)


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


@dataclass(frozen=True)
class RepairPlan:
    """Everything precomputed for rebuilding one lost node from the k+1
    others.

    Helper h sends ``downloads[h]`` applied to its shard, N/2 symbols per
    stripe.  The rebuild stacks two halves: the top sums the downloads of
    the nodes in ``top``, each with its +-1 coefficient; the bottom is the
    download of ``bottom_node`` plus ``projectors[h]`` applied to the
    download of h.  With a ``projector_base`` B, helper h's projector is
    B + ``projectors[h]``: B is applied once, to the sum of the projected
    downloads, and each ``projectors[h]`` has one slot per row.  Those
    helpers are then top terms with coefficient +1, so the top forms that
    sum (checked when the plan is made).  ``solve_inverse`` inverts the
    stacked system that maps the lost shard to those halves.  It is
    factored once, so a repair is gathers, int8 sums and one apply.

    Every matrix is a ``SparseRows``, formed when the plan is built; the
    row-sum plan's k systematic downloads share one.  A plan is of one of
    two kinds: a data plan (``_plan_data``) records the rows its helpers
    send (``_selects``) and runs in the shard layout; a parity plan
    (``_plan_parity``) has a base and runs symbol-major.  One built by
    hand or by ``dataclasses.replace`` has no ``_selects``, and without a
    base ``compute_downloads`` and ``execute_repair`` refuse it.  A plan
    depends only on the code, its coding matrices and the node, so it can
    be reused, forms and all, for every repair of that node.
    """

    params: CodeParams
    failed_node: int
    downloads: dict[int, SparseRows]
    top: dict[int, int]
    bottom_node: int
    projectors: dict[int, SparseRows]
    solve_inverse: SparseRows = field(repr=False)
    projector_base: SparseRows | None = field(default=None, repr=False)
    # Set by ``_plan_data`` alone, as ``_Runs`` or ``_Pairs``: the rows the
    # helpers send and the solve's top half rebuilds, then the zigzag
    # parity's.
    _selects: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.projector_base is not None and not all(
            self.top.get(h) == 1 and m.slots.shape[1] == 1 for h, m in self.projectors.items()
        ):
            raise ValueError("with a projector base, each projector has one slot per row and a +1 top helper")

    @functools.cached_property
    def _one_slot(self) -> dict[int, SignedPermutation]:
        """The projectors, of one slot per row, as signed permutations of
        N/2: a data plan's, and a parity plan's parts off the base."""
        half = self.params.n_rows // 2
        return {node: _signed(m.slots[:, 0], half) for node, m in self.projectors.items()}

    @functools.cached_property
    def _gathers(self) -> tuple[dict[int, SignedPermutation], SignedPermutation]:
        """The one-slot projectors, and the solve on the bottom half, of a
        plan with ``_selects`` as signed permutations.  Built on first use
        and kept: a sweep builds 44 data plans at k = 2..9 and runs none,
        and building these with the plan made it about twice as dear."""
        half = self.params.n_rows // 2
        slot = self.solve_inverse.slots[:, 0]
        # Rows off the top read +bottom[c] at slot half + c, -bottom[c] at n + half + c.
        return self._one_slot, _signed(slot[slot >= half] - half, half)

    @functools.cached_property
    def io_per_node(self) -> dict[int, int]:
        """Symbols each helper reads per stripe: the columns its download
        gathers, counted once per distinct download and kept."""
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
    ``_plan_data`` for a data node, ``_plan_parity`` for a parity.
    ``Gf3ShapeError`` unless ``cm`` is for ``params``."""
    if not 0 <= failed < params.n_nodes:
        raise ValueError(f"node {failed} out of range [0, {params.n_nodes})")
    if cm.params != params:
        raise Gf3ShapeError(f"coding matrices for k={cm.params.k}, plan for k={params.k}")
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
    ``_permutation_slots`` rejects with ``ValueError``.

    The plan records the selects of T and Z for the shard layout: every
    other run of 2^b rows, b = k-1-j, for j >= 1; for j = 0, row
    2m + parity(m) of each pair (2m, 2m+1), and Z the other row.  A set
    whose A_j sends Z elsewhere raises ``InconsistentSystemError`` and
    gets no plan.
    """
    k, n = params.k, params.n_rows
    half = n // 2
    rows = np.arange(n)
    if failed == 0:
        odd = _odd_weight(rows)
        sent = ~odd
        # Row 2m has the weight of m: pair m sends row 2m + 1 when that weight is odd.
        selects = (_Pairs(odd[::2]), _Pairs(~odd[::2]))
    else:
        sent = (rows & basis_index(params, failed)) == 0
        selects = (_Runs(k - 1 - failed),) * 2
    a_j = cm.matrices[failed]
    zigzag = ~sent[a_j.target]
    if not np.array_equal(zigzag, sent if failed else ~sent):
        raise InconsistentSystemError(f"the zigzag parity does not send node {failed}'s shard-layout rows")
    top_rows = np.flatnonzero(sent)
    zig_rows = np.flatnonzero(zigzag)
    position = np.full(n, -1)
    position[top_rows] = np.arange(half)
    others = [i for i in range(k) if i != failed]
    # The k-1 projectors, checked together: one row of slots each.
    mats = [cm.matrices[i] for i in others]
    targets = position[np.stack([m.target for m in mats])[:, zig_rows]]
    slots = _permutation_slots(targets, -np.stack([m.sign for m in mats])[:, zig_rows])
    projectors = {i: SparseRows(row[:, None], half) for i, row in zip(others, slots)}
    lost = a_j.target[zig_rows]
    target = position.copy()
    target[lost] = half + np.arange(half)
    sign = np.ones(n, dtype=np.int8)
    sign[lost] = a_j.sign[zig_rows]
    top_selection = SparseRows(top_rows[:, None], n)
    downloads = {h: top_selection for h in others + [k]}
    downloads[k + 1] = SparseRows(zig_rows[:, None], n)
    plan = RepairPlan(
        params=params,
        failed_node=failed,
        downloads=downloads,
        top={k: 1, **{i: -1 for i in others}},
        bottom_node=k + 1,
        projectors=projectors,
        solve_inverse=SparseRows.from_permutation(target, sign),
    )
    object.__setattr__(plan, "_selects", selects)
    return plan


def _plan_parity(params: CodeParams, cm: CodingMatrixSet, failed: int) -> RepairPlan:
    """Rebuild parity node ``failed`` (k or k+1) by a plan in closed form.

    Index a shard's symbols u = 0..N-1 and pair them as (2m, 2m+1):
    exactly one of each pair has odd weight (popcount).  Row u of C holds
    (-1)^popcount(u mod 2^b) at column u | 2^b for every bit b < k-1 clear
    in u, and T = I + sigma C, sigma = +1 for the row-sum parity and -1
    for the zigzag parity.  The repair pair (s, s_tilde) is T's rows: s
    the odd-weight ones and s_tilde the even-weight ones, so row m of each
    comes from pair m; the plan builds them from T, not by the recursion.

    * The systematic downloads sum to s applied to the lost shard (the
      top): each is s, or for the zigzag parity s A_j, s mapped through
      A_j by ``SparseRows.times``.  The surviving parity sends s_tilde.
    * s is the identity on its odd-weight columns, so the X with
      X s equal to t there is t at those columns.  Projector l is
      X(s_tilde) + c X(s_tilde A_l), c = -sigma (``_conditions``).  The
      base X(s_tilde) is sigma C on the even rows and odd columns, one for
      every helper.  A_l flips one index bit, and so the weight, so
      X(s_tilde A_l) reads only the diagonal of s_tilde: c X(s_tilde A_l)
      has one slot per row, c times A_l's sign at the even row, at the pair
      A_l sends it to, m XOR ((N/2) >> l).
    * C^2 = 0 mod 3, so T^-1 = I - sigma C.  The solve inverse maps [top;
      bottom] to the lost shard: T^-1 with its columns at the odd-weight
      rows first, then at the even-weight rows.

    Each row of T has at most k entries, so the plan takes O(kN) slots and
    no elimination.  The closed form holds for the paper's coding matrices
    (``code._is_paper_set``); any other set raises
    ``InconsistentSystemError`` and gets no plan.  Elimination stays the
    certificate: the sweep's ``io-meters`` check compares every parity
    plan with it (``_check_parity_plan``), downloads included.
    """
    if not _of_set(cm, "paper set", lambda: _is_paper_set(cm)):
        raise InconsistentSystemError("parity plans are certified for the paper's coding matrices only")
    k = params.k
    half = params.n_rows // 2
    variant = FIRST_PARITY if failed == k else SECOND_PARITY
    sigma = 1 if variant == FIRST_PARITY else -1
    s, s_tilde, base, solve = _closed_form(k, sigma)
    surviving = k + 1 if failed == k else k
    if variant == FIRST_PARITY:
        downloads = {j: s for j in range(k)}
    else:
        downloads = {j: s.times(cm.matrices[j]) for j in range(k)}
    downloads[surviving] = s_tilde
    even = np.flatnonzero(~_odd_weight(np.arange(params.n_rows)))
    # All k - 1 one-slot parts at once: c A_l's sign at the pair A_l sends each even row to.
    targets = np.stack([a.target[even] for a in cm.matrices[1:]])
    signs = np.stack([a.sign[even] for a in cm.matrices[1:]])
    parts = (targets >> 1) + half * (signs * -sigma < 0)
    return RepairPlan(
        params=params,
        failed_node=failed,
        downloads=downloads,
        top={j: 1 for j in range(k)},
        bottom_node=surviving,
        projectors={l: SparseRows(part[:, None], half) for l, part in enumerate(parts, 1)},
        solve_inverse=solve,
        projector_base=base,
    )


def _pair(k: int, variant: str) -> RepairMatrixPair:
    """The repair pair of a sweep k inside ``_sharing``, else a new one."""
    return (_SHARED.get() or {}).get((1 << (k - 1), variant)) or build_repair_pair(k, variant)


def _closed_form(k: int, sigma: int) -> tuple[SparseRows, SparseRows, SparseRows, SparseRows]:
    """The matrices of ``_plan_parity`` from T = I + sigma C: its
    odd-weight rows and its even-weight rows, which the repair pair must
    be, the base sigma C on the even rows and odd columns, and T^-1 =
    I - sigma C with its columns at the odd-weight rows, then the even.

    T is packed once, row by row: the diagonal in slot 0, then column
    u | 2^b for every clear bit b, ascending, which is how
    ``build_repair_pair`` orders the pair's slots.  The base and the
    inverse map those slots to their own columns, flipping the sign off
    the diagonal for the inverse, so the inverse's slots do not ascend.
    """
    n = 1 << (k - 1)
    half = n // 2
    u = np.arange(n)
    keep = np.ones((n, k), dtype=bool)
    keep[:, 1:] = ((u[:, None] >> np.arange(k - 1)) & 1) == 0
    r, t = np.nonzero(keep)
    bit = (1 << t) >> 1  # 2^b at t = b + 1, 0 on the diagonal
    minus = (t > 0) & (_odd_weight(r & (bit - 1)) ^ (sigma < 0))  # C is (-1)^popcount(u mod 2^b)
    slots = _pack(n, n, r, r | bit, np.where(minus, 2, 1)).slots
    odd = _odd_weight(u)
    # Slot maps: a column to its column in the base (c >> 1), or to its
    # position in the inverse's columns, keeping the sign or flipping it.
    pos = np.where(odd, u >> 1, half + (u >> 1))
    base = np.concatenate([u >> 1, half + (u >> 1), [n]])
    keep_sign = np.concatenate([pos, n + pos, [2 * n]])
    flip_sign = np.concatenate([n + pos, pos, [2 * n]])
    return (
        SparseRows(slots[odd, : k - 1], n),
        SparseRows(slots[~odd], n),
        SparseRows(base[slots[~odd, 1:]], half),
        SparseRows(np.concatenate([keep_sign[slots[:, :1]], flip_sign[slots[:, 1:]]], axis=1), n),
    )


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
    pair = _pair(k, variant)
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
    systematic = (np.take(_slot_image(a), pair.s.slots) if zigzag else pair.s.slots for a in cm.matrices)
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


# Terms gathered from a residue stack lie in {0..3}, so a uint8 sum of
# 85 of them stays below 256 between reductions; a reduced sum counts as
# one term.
_STACK_TERMS = 85

# Bytes a blocked transpose copies at a time: 256 stripes of a k = 8
# shard (N = 128), so the rows a block reads and writes stay in cache.
_BLOCK_BYTES = 1 << 15


def _transpose(x: np.ndarray, out: np.ndarray) -> None:
    """``x.T`` of a (stripes, n) array, copied into the C-contiguous ``out``.

    The copy runs one block of about 32 KiB of stripes at a time: a
    2,624 x 128 uint8 shard takes about 0.18 ms this way against 0.34 ms
    for ``np.ascontiguousarray(x.T)`` (timeit, best of 300, 2-core Xeon
    VM).  An ``x`` that is itself the transposed view of a C-contiguous
    array is copied straight.
    """
    if x.T.flags.c_contiguous:
        out[...] = x.T
        return
    step = max(1, _BLOCK_BYTES // max(1, x.shape[1] * x.itemsize))
    for start in range(0, x.shape[0], step):
        out[:, start : start + step] = x[start : start + step].T


def _residue_stack(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The residue stack of the (stripes, n) residues ``x``, in ``buf``.

    ``buf`` is a (2n + 1, stripes) buffer of bytes, returned as uint8; its
    first n rows get x.T by one ``_transpose``, the next n rows 3 - x.T,
    which is -x.T mod 3, and the last row zeros.  Every row holds 0..3,
    so sums of rows need no sign handling (``_mod3``).
    """
    n = x.shape[1]
    stack = buf.view(np.uint8)
    _transpose(x, stack[:n])
    np.subtract(3, stack[:n], out=stack[n : 2 * n])
    stack[2 * n] = 0
    return stack


def _mod3(acc: np.ndarray) -> np.ndarray:
    """``acc`` mod 3, in place, for a uint8 sum: three uint8 passes, where
    ``gf3.reduce_sum`` takes five to handle signed sums."""
    q = acc // 3
    q *= 3
    acc -= q
    return acc


def _apply(m: SparseRows, stack: np.ndarray) -> np.ndarray:
    """``m`` applied to the block behind ``stack``, as (rows, stripes)
    uint8 residues in the rows' order.

    Each slot column is one ``np.take`` of whole rows from the uint8
    stack, for the rows that have a slot there
    (``SparseRows._gather_columns``), and one take puts the rows back in
    order.  The sum is reduced in place (``_mod3``) once it holds
    ``_STACK_TERMS`` terms, and at the end.
    """
    columns, restore = m._gather_columns()
    acc = np.take(stack, columns[0], axis=0)
    terms = 1
    for column in columns[1:]:
        if terms == _STACK_TERMS:
            _mod3(acc)
            terms = 1
        acc[: column.size] += np.take(stack, column, axis=0)
        terms += 1
    _mod3(acc)
    return acc if restore is None else np.take(acc, restore, axis=0)


def _little(width: int) -> np.dtype:
    """Little-endian unsigned integers of ``width`` bytes."""
    return np.dtype(f"<u{width}")


class _Runs(NamedTuple):
    """The rows of a shard whose bit ``bit`` is 0: every other run of
    2^bit symbols along a row, from the first, in order.

    Two neighbouring runs of 1, 2 or 4 bytes are one little-endian word,
    so a select is a truncating cast, and a merge two casts, a shift and
    an OR.  Runs of 8 bytes or more are elements of a void dtype as wide
    as a run, and a select or merge copies every other one.
    """

    bit: int

    def take(self, x: np.ndarray) -> np.ndarray:
        """The selected rows of the C-contiguous (stripes, n) ``x`` as a
        C-contiguous (stripes, n/2) array."""
        stripes, n = x.shape
        width = 1 << self.bit
        if width < 8:
            return x.view(_little(2 * width)).astype(_little(width)).view(np.uint8).reshape(stripes, n // 2)
        runs = x.view(np.dtype((np.void, width))).reshape(-1, 2)[:, 0]
        return np.ascontiguousarray(runs).view(np.uint8).reshape(stripes, n // 2)

    def merge(self, mine: np.ndarray, other: np.ndarray) -> np.ndarray:
        """The (stripes, n) rows holding the C-contiguous halves ``mine``
        at the selected rows and ``other`` at the rest."""
        stripes, half = mine.shape
        width = 1 << self.bit
        if width < 8:
            words = other.view(_little(width)).astype(_little(2 * width))
            words <<= 8 * width
            words |= mine.view(_little(width))
            return words.view(np.uint8).reshape(stripes, 2 * half)
        out = np.empty((stripes, 2 * half), dtype=np.uint8)
        void = np.dtype((np.void, width))
        runs = out.view(void).reshape(-1, 2)
        runs[:, 0] = mine.view(void).reshape(-1)
        runs[:, 1] = other.view(void).reshape(-1)
        return out


class _Pairs:
    """Row 2m + high[m] of each pair of rows (2m, 2m + 1), one
    little-endian uint16 word; ``take`` and ``merge`` as for ``_Runs``.

    A select multiplies each word by 1 where it keeps the high row and by
    256 where the low one, and keeps the high byte; a merge multiplies
    each half into its byte.  The products run a line of rows at a time
    (``gf3._times_per_column``); per column, over the short rows of a
    small k, they made node 0's repair slower than symbol-major.
    """

    def __init__(self, high: np.ndarray):
        self.high = high

    @functools.cached_property
    def _lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Lines of the factors that keep the selected row in the high
        byte, and that move it there."""
        keep = np.where(self.high, 1, 256).astype(_little(2))
        return _line_of(keep), _line_of(keep ^ 257)

    def take(self, x: np.ndarray) -> np.ndarray:
        words = _times_per_column(x.view(_little(2)).copy(), self._lines[0])
        return (words >> 8).astype(np.uint8)

    def merge(self, mine: np.ndarray, other: np.ndarray) -> np.ndarray:
        keep, move = self._lines
        words = _times_per_column(mine.astype(_little(2)), move)
        words |= _times_per_column(other.astype(_little(2)), keep)
        return words.view(np.uint8)


def _signed(slots: np.ndarray, cols: int) -> SignedPermutation:
    """One slot per row over ``cols`` columns: c is +1 at c, c + cols or
    c + 2 cols -1 at c."""
    return SignedPermutation(slots % cols, np.where(slots < cols, 1, -1))


def _sum_halves(
    plan: RepairPlan, downloads: dict[int, np.ndarray], top: np.ndarray, bottom: np.ndarray, summed=()
) -> None:
    """Add the downloads of ``plan.top``, signed, into ``top``, but for
    the nodes already ``summed`` there, and the bottom node's into
    ``bottom``."""
    for node, coefficient in plan.top.items():
        if node in summed:
            continue
        if coefficient == 1:
            top += downloads[node].view(np.int8)
        else:
            top -= downloads[node].view(np.int8)
    bottom += downloads[plan.bottom_node].view(np.int8)


def _check_kind(plan: RepairPlan) -> None:
    """``ValueError`` unless ``plan`` is a data plan with its planner's
    selects or a parity plan with a base."""
    if plan._selects is None and plan.projector_base is None:
        raise ValueError("a plan runs with its planner's row selects or with a projector base; this one has neither")


def _common_lead(arrays: dict[int, np.ndarray], length: int, what: str) -> tuple[int, ...]:
    """The leading shape every array in ``arrays`` shares, each with last
    axis ``length``; ``ValueError`` naming the first array that differs
    otherwise."""
    lead = None
    for node, a in arrays.items():
        shape = np.shape(a)
        if not shape or shape[-1] != length:
            got = shape[-1] if shape else "no axis"
            raise ValueError(f"{what} {node} has last axis {got}, expected {length}")
        if lead is None:
            lead = shape[:-1]
        elif shape[:-1] != lead:
            raise ValueError(f"{what} {node}: inconsistent leading shapes, {shape[:-1]} against {lead}")
    return lead


def compute_downloads(plan: RepairPlan, payloads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """What each helper transmits: its download applied to its shard.

    Every payload must have last axis N and all must share one leading
    shape, else ``ValueError`` naming the payload.  A payload may be any
    integer array, in any layout; its symbols are taken mod 3.  Each
    download has shape lead + (N/2,), in the layout the plan runs in:

    * a data-node plan selects each helper's rows along the last axis
      (``plan._selects``): C-contiguous (stripes, N/2) downloads;
    * a parity plan transposes each helper's shard once, blocked, into
      one (2N + 1, stripes) residue-stack buffer, and gathers one whole
      row from it per slot of the download, padding skipped (``_apply``):
      the transposed view of a C-contiguous (N/2, stripes) array.

    ``execute_repair`` takes either back without a copy.  A plan of
    neither kind raises ``ValueError``.
    """
    _check_kind(plan)
    missing = [n for n in plan.helper_nodes if n not in payloads]
    if missing:
        raise ValueError(f"payloads missing for helper nodes {missing}")
    n = plan.params.n_rows
    helpers = {node: np.asarray(payloads[node]) for node in plan.helper_nodes}
    lead = _common_lead(helpers, n, "payload")
    stripes = math.prod(lead)
    out = {}
    if plan._selects is not None:
        sent, zigzag = plan._selects
        for node, x in helpers.items():
            # Selecting commutes with mod 3, so a uint8 shard is checked for
            # residues only on the half that is sent.
            x = np.ascontiguousarray((x if x.dtype == np.uint8 else residues(x)).reshape(stripes, n))
            d = residues((zigzag if node == plan.bottom_node else sent).take(x))
            out[node] = d.reshape(lead + (d.shape[-1],))
        return out
    buf = np.empty((2 * n + 1, stripes), dtype=np.uint8)
    for node, x in helpers.items():
        d = _apply(plan.downloads[node], _residue_stack(residues(x).reshape(stripes, n), buf))
        out[node] = d.T.reshape(lead + (d.shape[0],))
    return out


def execute_repair(plan: RepairPlan, downloads: dict[int, np.ndarray]) -> np.ndarray:
    """Rebuild the lost shard from the k+1 half-size downloads.

    Every download must have shape lead + (N/2,), one lead for all; any
    integer array in any layout is taken mod 3.  The rebuilt shard is a
    new C-contiguous array of shape lead + (N,).  Both halves of the
    right-hand side are int8 sums: the top adds the k signed downloads of
    ``top``, the bottom the ``bottom_node`` download and every
    projector's terms.  The plan's kind decides how, and a plan of
    neither kind raises ``ValueError``:

    * a data-node plan works in the shard layout, on C-contiguous
      (stripes, N/2) downloads (any other layout is copied to that once).
      A projector is an XOR word gather, and the solve merges the top with
      the signed bottom into the rows they rebuild (``plan._gathers``).
      Each half sums at most k + 1 terms, which int8 holds up to k = 62.
    * a parity plan works symbol-major, (rows, stripes): a download from
      ``compute_downloads`` is taken back as it is, any other is copied
      once by ``np.ascontiguousarray``.  The projected downloads are
      summed once, in the top, and the base is applied to that sum from
      its residue stack by ``_apply``; each helper's one-slot part is then
      a signed row take, with no stack.  The bottom holds at most k + 1
      reduced terms, the top k + 1; one reduction and one apply of
      ``solve_inverse`` follow, and one transpose back.
    """
    _check_kind(plan)
    expected_nodes = set(plan.helper_nodes)
    got = set(downloads)
    if got != expected_nodes:
        raise ValueError(f"downloads for nodes {sorted(got)}, expected {sorted(expected_nodes)}")
    n = plan.params.n_rows
    half = n // 2
    arrays = {node: np.asarray(d) for node, d in downloads.items()}
    lead = _common_lead(arrays, half, "download")
    stripes = math.prod(lead)
    if plan._selects is not None:
        rows = {node: np.ascontiguousarray(residues(d).reshape(stripes, half)) for node, d in arrays.items()}
        projectors, solve = plan._gathers
        top, bottom = np.zeros((2, stripes, half), dtype=np.int8)
        _sum_halves(plan, rows, top, bottom)
        for node, gather in projectors.items():
            bottom += gather.terms(rows[node])
        return plan._selects[0].merge(reduce_sum(top), reduce_sum(solve.terms(bottom))).reshape(lead + (n,))
    sym = {node: np.ascontiguousarray(residues(d).reshape(stripes, half).T) for node, d in arrays.items()}

    rhs = np.zeros((n, stripes), dtype=np.int8)
    top, bottom = rhs[:half], rhs[half:]
    # A sum of residues is nonnegative, so ``_mod3`` reduces it in place
    # before the base's stack copies it.
    for node in plan.projectors:
        top += sym[node].view(np.int8)
    stack = _residue_stack(_mod3(top.view(np.uint8)).T, np.empty((n + 1, stripes), dtype=np.uint8))
    _sum_halves(plan, sym, top, bottom, summed=plan.projectors)
    bottom += _apply(plan.projector_base, stack).view(np.int8)
    for node, gather in plan._one_slot.items():
        term = np.take(sym[node].view(np.int8), gather.target, axis=0)
        term *= gather.sign[:, None]
        bottom += term

    rhs = reduce_sum(rhs)
    stack = _residue_stack(rhs.T, np.empty((2 * n + 1, stripes), dtype=np.uint8))
    return np.ascontiguousarray(_apply(plan.solve_inverse, stack).T).reshape(lead + (n,))


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
