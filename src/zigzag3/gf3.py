"""Exact arithmetic over GF(3): the symbol kernel and dense linear algebra.

Field elements are the residues {0, 1, 2} with 2 standing for -1.  Every
routine here is exact integer arithmetic mod 3; there is no floating point
anywhere.

The symbol kernel serves the encode/decode data path.  Symbols are uint8
residues; a signed permutation contributes int8 terms sign * symbol in
{-2..2}, a caller adds up to a few dozen such terms in int8 without
overflow, and ``reduce_sum`` maps the sum back to residues with one
table lookup per pair of adjacent sums instead of a division per term.
Every zigzag coding matrix, its inverse and every product decode forms
sends row r to column r ^ c for one constant c, so ``terms`` moves
whole 8-byte words: it gathers word w from word w ^ (c >> 3) and then
reorders the bytes inside each word by up to three byte reversals of
2-, 4- or 8-byte lanes.  Other permutations, and rows shorter than one
word, are gathered byte by byte.

Dense matrices (rank, solving) are stored row-major as
read-only uint8 numpy arrays, so all values are immutable after
construction and safe to share between threads.

Gaussian elimination uses the leftmost nonzero column as pivot and the
first nonzero row as tie-break, which makes rank/solve outputs fully
deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Gf3ShapeError",
    "SingularMatrixError",
    "InconsistentSystemError",
    "residues",
    "reduce_sum",
    "Gf3Matrix",
    "SignedPermutation",
    "rank",
    "solve_left",
    "solve_square",
    "inverse",
]


class Gf3ShapeError(ValueError):
    """Operand dimensions do not conform."""


class SingularMatrixError(ValueError):
    """Square system has no unique solution."""


class InconsistentSystemError(ValueError):
    """Target is outside the row space of the given rows."""


def _as_gf3_array(data) -> np.ndarray:
    """Coerce to a 2-D uint8 array of residues mod 3 (so -1 maps to 2)."""
    a = np.asarray(data)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise Gf3ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    a = np.mod(a, 3).astype(np.uint8)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Symbol kernel
# ---------------------------------------------------------------------------

# Residue mod 3 of every int8 value, indexed by its byte pattern.
_INT8_RESIDUE = np.mod(np.arange(256, dtype=np.uint8).view(np.int8), 3).astype(np.uint8)
_INT8_RESIDUE.setflags(write=False)

# The residues of two adjacent int8 values at once: entry v holds, in each
# of its two bytes, the residue of the int8 stored in that byte of v.  It
# is built through a byte view of every uint16 value, so it holds in either
# byte order.
_PAIR_RESIDUE = np.take(
    _INT8_RESIDUE, np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
).view(np.uint16)
_PAIR_RESIDUE.setflags(write=False)


def residues(x) -> np.ndarray:
    """Symbols as uint8 residues mod 3, so -1 maps to 2.

    uint8 input that is already reduced is returned as is, without a copy.
    Anything else is reduced with ``np.mod`` before the cast, so negative
    and wide integers keep their residue.
    """
    x = np.asarray(x)
    if x.dtype == np.uint8 and (x.size == 0 or int(x.max()) < 3):
        return x
    return np.mod(x, 3).astype(np.uint8, copy=False)


def reduce_sum(acc: np.ndarray) -> np.ndarray:
    """Residues mod 3 of an int8 or uint8 sum of symbol terms, as uint8.

    Returns a new writable uint8 array of the shape of ``acc``.  Exact
    while every entry fits in int8 (a uint8 sum must stay below 128).  A
    sum of k+1 terms in {-2..2} stays within +-2(k+1), which fits for any
    k up to 62.

    A C-contiguous ``acc`` with an even, non-zero last axis is read as
    uint16 pairs of adjacent sums and reduced by one lookup per pair in
    the 65,536-entry pair table; anything else (an odd last axis, a
    strided or transposed view, no elements) takes one lookup per sum in
    the 256-entry table.
    """
    if acc.dtype.itemsize != 1:
        raise TypeError(f"reduce_sum needs an int8 or uint8 sum, got {acc.dtype}")
    if acc.ndim and acc.shape[-1] % 2 == 0 and acc.size and acc.flags.c_contiguous:
        return np.take(_PAIR_RESIDUE, acc.view(np.uint16)).view(np.uint8)
    return np.take(_INT8_RESIDUE, acc.view(np.uint8))


# Byte reversal inside each 2-, 4- or 8-byte lane maps byte r of a word to
# r ^ 1, r ^ 3 or r ^ 7, and XORs of those three give every offset 0..7:
# entry c lists the lane widths to reverse for offset c (5 = 7 ^ 3 ^ 1).
# A reversal is a cast from the opposite byte order, so it holds in either
# byte order.
_LANE_REVERSALS = ((), (2,), (4, 2), (4,), (8, 4), (8, 4, 2), (8, 2), (8,))
_LANE_DTYPES = {w: (np.dtype(f"u{w}"), np.dtype(f"u{w}").newbyteorder()) for w in (2, 4, 8)}


def _xor_gather(x: np.ndarray, c: int) -> np.ndarray:
    """New int8 array of ``x[..., r ^ c]`` along a contiguous last axis
    that holds whole 8-byte words: a word gather for ``c >> 3``, then a
    lane reversal inside each word for every width in
    ``_LANE_REVERSALS[c & 7]``."""
    if not c:
        return x.copy()
    words = x.view(np.uint64)
    if c >> 3:
        words = np.take(words, np.arange(words.shape[-1]) ^ (c >> 3), axis=-1, mode="clip")
    for width in _LANE_REVERSALS[c & 7]:
        native, swapped = _LANE_DTYPES[width]
        words = words.view(swapped).astype(native)
    return words.view(np.int8)


# ---------------------------------------------------------------------------
# Dense matrix
# ---------------------------------------------------------------------------


class Gf3Matrix:
    """Immutable dense matrix over GF(3).

    Accepts any integer array-like; entries are reduced mod 3, so matrices
    written with -1 entries come out with 2 there.  Equality is entrywise.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        self._a = _as_gf3_array(data)

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf3Matrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "Gf3Matrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def stack(cls, *blocks: "Gf3Matrix") -> "Gf3Matrix":
        """Vertical concatenation."""
        cols = {b.cols for b in blocks}
        if len(cols) != 1:
            raise Gf3ShapeError(f"cannot stack blocks with column counts {sorted(cols)}")
        return cls(np.vstack([b._a for b in blocks]))

    @classmethod
    def hstack(cls, *blocks: "Gf3Matrix") -> "Gf3Matrix":
        rows = {b.rows for b in blocks}
        if len(rows) != 1:
            raise Gf3ShapeError(f"cannot hstack blocks with row counts {sorted(rows)}")
        return cls(np.hstack([b._a for b in blocks]))

    @classmethod
    def block_diag(cls, upper: "Gf3Matrix", lower: "Gf3Matrix") -> "Gf3Matrix":
        out = np.zeros((upper.rows + lower.rows, upper.cols + lower.cols), dtype=np.uint8)
        out[: upper.rows, : upper.cols] = upper._a
        out[upper.rows :, upper.cols :] = lower._a
        return cls(out)

    # -- views ---------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the entries."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __getitem__(self, idx):
        return self._a[idx]

    def column(self, i: int) -> np.ndarray:
        return self._a[:, i]

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Gf3Matrix") -> "Gf3Matrix":
        if self.shape != other.shape:
            raise Gf3ShapeError(f"add: {self.shape} vs {other.shape}")
        return Gf3Matrix((self._a.astype(np.int16) + other._a) % 3)

    def __sub__(self, other: "Gf3Matrix") -> "Gf3Matrix":
        if self.shape != other.shape:
            raise Gf3ShapeError(f"sub: {self.shape} vs {other.shape}")
        return Gf3Matrix((self._a.astype(np.int16) - other._a) % 3)

    def __neg__(self) -> "Gf3Matrix":
        return Gf3Matrix((-self._a.astype(np.int16)) % 3)

    def __matmul__(self, other: "Gf3Matrix") -> "Gf3Matrix":
        if self.cols != other.rows:
            raise Gf3ShapeError(f"matmul: {self.shape} @ {other.shape}")
        prod = self._a.astype(np.int64) @ other._a.astype(np.int64)
        return Gf3Matrix(prod % 3)

    # -- structure -----------------------------------------------------------

    def zero_columns(self) -> list[int]:
        """Indices of all-zero columns, ascending."""
        return np.flatnonzero(~self._a.any(axis=0)).tolist()

    def nonzero_column_count(self) -> int:
        return int(self._a.any(axis=0).sum())

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf3Matrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        return hash((self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"Gf3Matrix({self._a.tolist()})"


# ---------------------------------------------------------------------------
# Signed permutations
# ---------------------------------------------------------------------------


class SignedPermutation:
    """Matrix with exactly one +-1 entry per row and per column.

    Stored compactly: ``target[r]`` is the column of row r's single nonzero
    and ``sign[r]`` is +1 or -1.  Applying one to a vector is O(N), against
    O(N^2) for the dense form.  ``A @ B`` composes two of them.
    """

    __slots__ = ("target", "sign", "_xor")

    def __init__(self, target, sign):
        target = np.asarray(target, dtype=np.int64)
        sign = np.asarray(sign, dtype=np.int8)
        if target.shape != sign.shape or target.ndim != 1:
            raise Gf3ShapeError("target and sign must be 1-D and the same length")
        n = target.shape[0]
        if not np.array_equal(np.sort(target), np.arange(n)):
            raise ValueError("target is not a permutation of 0..N-1")
        if not np.all(np.abs(sign) == 1):
            raise ValueError("signs must be +1 or -1")
        target.setflags(write=False)
        sign.setflags(write=False)
        self.target = target
        self.sign = sign
        self._xor = None

    @property
    def size(self) -> int:
        return self.target.shape[0]

    @property
    def sign_gf3(self) -> np.ndarray:
        """Signs as field elements: +1 -> 1, -1 -> 2."""
        return np.where(self.sign > 0, 1, 2).astype(np.uint8)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(np.arange(n), np.ones(n, dtype=np.int8))

    @classmethod
    def from_dense(cls, m: Gf3Matrix) -> "SignedPermutation":
        if m.rows != m.cols:
            raise Gf3ShapeError("signed permutation must be square")
        a = m.array
        if np.any((a != 0).sum(axis=1) != 1) or np.any((a != 0).sum(axis=0) != 1):
            raise ValueError("matrix does not have exactly one nonzero per row and column")
        target = np.argmax(a != 0, axis=1)
        vals = a[np.arange(m.rows), target]
        sign = np.where(vals == 1, 1, -1).astype(np.int8)
        return cls(target, sign)

    def dense(self) -> Gf3Matrix:
        n = self.size
        out = np.zeros((n, n), dtype=np.uint8)
        out[np.arange(n), self.target] = self.sign_gf3
        return Gf3Matrix(out)

    def _word_xor(self) -> int:
        """The constant c with ``target[r] == r ^ c`` for every row, when
        there is one and N is a whole number of 8-byte words; -1
        otherwise.  Found on the first call and kept."""
        if self._xor is None:
            n = self.size
            c = int(self.target[0]) if n else 0
            fits = n % 8 == 0 and np.array_equal(self.target, np.arange(n) ^ c)
            self._xor = c if fits else -1
        return self._xor

    def terms(self, x: np.ndarray) -> np.ndarray:
        """Unreduced product along the last axis: int8 sign[r] * x[..., target[r]].

        ``x`` holds uint8 residues or an int8 partial sum; the terms keep
        its magnitude, so callers add several of them before one
        ``reduce_sum``.  When ``target[r] == r ^ c`` (``_word_xor``) and
        the last axis of ``x`` is contiguous, the gather moves whole
        8-byte words (``_xor_gather``); otherwise it takes byte by byte.
        """
        if x.dtype not in (np.uint8, np.int8):
            raise TypeError(f"terms need uint8 residues or an int8 sum, got {x.dtype}")
        if x.shape[-1] != self.size:
            raise Gf3ShapeError(f"vector length {x.shape[-1]} != {self.size}")
        x = x.view(np.int8)
        c = self._word_xor()
        if c >= 0 and x.strides[-1] == 1:
            out = _xor_gather(x, c)
        else:
            out = np.take(x, self.target, axis=-1)
        out *= self.sign
        return out

    def inverse(self) -> "SignedPermutation":
        # Entries are +-1, so the inverse is the transpose.
        inv_target = np.empty(self.size, dtype=np.int64)
        inv_sign = np.empty(self.size, dtype=np.int8)
        inv_target[self.target] = np.arange(self.size)
        inv_sign[self.target] = self.sign
        return SignedPermutation(inv_target, inv_sign)

    def negate(self) -> "SignedPermutation":
        return SignedPermutation(self.target, -self.sign)

    def __matmul__(self, other: "SignedPermutation") -> "SignedPermutation":
        # (A B x)[r] = sA[r] * sB[tA[r]] * x[tB[tA[r]]]
        if self.size != other.size:
            raise Gf3ShapeError(f"matmul: {self.size} @ {other.size}")
        return SignedPermutation(other.target[self.target], self.sign * other.sign[self.target])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return np.array_equal(self.target, other.target) and np.array_equal(self.sign, other.sign)

    def __hash__(self) -> int:
        return hash((self.target.tobytes(), self.sign.tobytes()))

    def __repr__(self) -> str:
        return f"SignedPermutation(target={self.target.tolist()}, sign={self.sign.tolist()})"


# ---------------------------------------------------------------------------
# Elimination kernels
# ---------------------------------------------------------------------------


def _row_reduce(a: np.ndarray, full: bool) -> list[int]:
    """In-place row reduction mod 3 of an int16 array.

    Returns the pivot column list.  ``full=True`` clears above the pivots
    too (Gauss-Jordan) and normalizes pivots to 1.
    """
    rows, cols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        if a[r, c] == 2:
            a[r, c:] = (a[r, c:] * 2) % 3
        if full:
            clear = np.flatnonzero(a[:, c])
            clear = clear[clear != r]
        else:
            clear = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if clear.size:
            # Pivot row is zero left of column c, so the update can skip there.
            a[clear, c:] = (a[clear, c:] - np.outer(a[clear, c], a[r, c:])) % 3
        pivots.append(c)
        r += 1
    return pivots


def rank(m: Gf3Matrix) -> int:
    """Row rank by exact Gaussian elimination over GF(3)."""
    a = m.array.astype(np.int16)
    return len(_row_reduce(a, full=False))


def solve_square(a: Gf3Matrix, b: Gf3Matrix) -> Gf3Matrix:
    """Solve a @ x = b exactly for square nonsingular ``a``."""
    if a.rows != a.cols:
        raise Gf3ShapeError(f"solve_square needs a square matrix, got {a.shape}")
    if b.rows != a.rows:
        raise Gf3ShapeError(f"solve_square: rhs has {b.rows} rows, expected {a.rows}")
    n = a.rows
    aug = np.hstack([a.array, b.array]).astype(np.int16)
    pivots = _row_reduce(aug, full=True)
    if len(pivots) < n or pivots != list(range(n)):
        raise SingularMatrixError(f"matrix of rank {len(pivots)} < {n} is singular")
    return Gf3Matrix(aug[:, n:])


def inverse(a: Gf3Matrix) -> Gf3Matrix:
    return solve_square(a, Gf3Matrix.identity(a.rows))


def solve_left(x_rows: Gf3Matrix, target: Gf3Matrix) -> Gf3Matrix:
    """Find T with T @ x_rows = target, or fail if no such T exists.

    Requires every row of ``target`` to lie in the row space of ``x_rows``.
    Free coefficients are set to zero and pivots are taken left to right,
    so the returned T is deterministic.
    """
    if x_rows.cols != target.cols:
        raise Gf3ShapeError(f"solve_left: column counts differ, {x_rows.cols} vs {target.cols}")
    p, q = x_rows.rows, target.rows
    # Transposed normal form: x_rows^T @ T^T = target^T.
    aug = np.hstack([x_rows.array.T, target.array.T]).astype(np.int16)
    pivots = _row_reduce(aug, full=True)
    t_t = np.zeros((p, q), dtype=np.int16)
    for row, c in enumerate(pivots):
        if c >= p:
            raise InconsistentSystemError("target rows are not in the row space")
        t_t[c] = aug[row, p:]
    return Gf3Matrix(t_t.T)
