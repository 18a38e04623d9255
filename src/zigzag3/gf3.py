"""Exact arithmetic over GF(3): the symbol kernel and dense elimination.

Field elements are the residues {0, 1, 2} with 2 standing for -1.  Every
routine here is exact integer arithmetic mod 3; there is no floating point
anywhere.

The symbol kernel serves the encode/decode data path.  Symbols are uint8
residues; a signed permutation contributes int8 terms sign * symbol in
{-2..2}, a caller adds up to a few dozen such terms in int8 without
overflow, and ``reduce_sum`` maps the sum back to residues with five
whole-array uint8 steps instead of a division per term.  A sum of
residues alone, such as the encoder's, takes its terms nonnegative
instead: a negated residue v is v ^ 3 = 3 - v (``residue_terms``), and
``_mod3`` reduces the uint8 sum in three steps.
Every zigzag coding matrix, its inverse and every product decode forms
sends row r to column r ^ c for one constant c, so ``terms`` moves
whole 8-byte words: it gathers word w from word w ^ (c >> 3) and then
reorders the bytes inside each word by up to three byte reversals of
2-, 4- or 8-byte lanes; a row of 1, 2 or 4 bytes is one word, reordered
the same way.  Other permutations are gathered byte by byte.

Dense elimination (``rank`` and the solvers) takes any 2-D integer
array-like, reduces it mod 3, and returns read-only uint8 arrays.  Only
the certificates rank with it, what peeling leaves of a sparse residual
(``verification._rank``); encode, decode and repair never rank.
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

    Returns a new writable, C-contiguous uint8 array of the shape of
    ``acc``.  Exact while every entry fits in int8 (a uint8 sum must stay
    below 128).  A sum of k+1 terms in {-2..2} stays within +-2(k+1),
    which fits for any k up to 62.

    The byte u of a negative int8 x is x + 256, and 256 = 1 mod 3, so
    w = u - (u >> 7) = x mod 3 for every byte, and w - 3 (w // 3) brings
    w into 0..2.  Each step is a uint8 ufunc that numpy vectorises, which
    ``np.remainder`` on uint8 is not.  A strided or transposed sum is
    copied to C order first.
    """
    if acc.dtype.itemsize != 1:
        raise TypeError(f"reduce_sum needs an int8 or uint8 sum, got {acc.dtype}")
    u = np.asarray(acc, order="C").view(np.uint8)
    w = u - (u >> 7)
    w -= 3 * (w // 3)
    return w


# Bytes of a line: multiplying by one sign per column runs over the rows
# of a C-contiguous array as flat lines of about this many bytes, the
# signs repeated along each line, so numpy makes one inner loop per line
# instead of one per short row.  It took 12 against 23 us on a (2,624, 64)
# int8 array and 4 against 66 us on a (10,496, 4) one (timeit, 2-core
# Xeon VM).
_LINE_BYTES = 1 << 10


def _line_of(column: np.ndarray) -> np.ndarray:
    """``column`` repeated as often as it fits in ``_LINE_BYTES``, at
    least once: the operand of ``_times_per_column``."""
    return np.tile(column, max(1, _LINE_BYTES // max(1, column.nbytes)))


def _per_column(op, x: np.ndarray, line: np.ndarray) -> np.ndarray:
    """``x = op(x, column)`` along the last axis, in place, for a binary
    ufunc ``op`` such as ``np.multiply``, given ``line`` =
    ``_line_of(column)``.  When ``x`` is C-contiguous, whole lines of rows
    go flat and only the rows left over take the column."""
    n = x.shape[-1]
    if not (x.size and x.flags.c_contiguous):
        op(x, line[:n], out=x)
        return x
    flat = x.reshape(-1)
    body = flat.size - flat.size % line.size
    lines, left = flat[:body].reshape(-1, line.size), flat[body:].reshape(-1, n)
    op(lines, line, out=lines)
    op(left, line[:n], out=left)
    return x


def _mod3(acc: np.ndarray, out=None) -> np.ndarray:
    """``acc`` mod 3 for a uint8 sum, in place or into ``out``: three
    uint8 passes, where ``reduce_sum`` takes five to handle signed sums."""
    q = acc // 3
    q *= 3
    return np.subtract(acc, q, out=acc if out is None else out)


# Byte reversal inside each 2-, 4- or 8-byte lane maps byte r of a word to
# r ^ 1, r ^ 3 or r ^ 7, and XORs of those three give every offset 0..7:
# entry c lists the lane widths to reverse for offset c (5 = 7 ^ 3 ^ 1).
# A reversal is a cast from the opposite byte order, so it holds in either
# byte order.
_LANE_REVERSALS = ((), (2,), (4, 2), (4,), (8, 4), (8, 4, 2), (8, 2), (8,))
_LANE_DTYPES = {w: (np.dtype(f"u{w}"), np.dtype(f"u{w}").newbyteorder()) for w in (2, 4, 8)}


def _xor_gather(x: np.ndarray, c: int) -> np.ndarray:
    """New int8 array of ``x[..., r ^ c]`` along a contiguous last axis
    of whole 8-byte words, or of 1, 2 or 4 bytes with c below that: a
    word gather for ``c >> 3``, then a lane reversal inside each word for
    every width in ``_LANE_REVERSALS[c & 7]``."""
    if not c:
        return x.copy()
    words = x
    if c >> 3:
        words = x.view(np.uint64)
        words = np.take(words, np.arange(words.shape[-1]) ^ (c >> 3), axis=-1, mode="clip")
    for width in _LANE_REVERSALS[c & 7]:
        native, swapped = _LANE_DTYPES[width]
        words = words.view(swapped).astype(native)
    return words.view(np.int8)


# ---------------------------------------------------------------------------
# Signed permutations
# ---------------------------------------------------------------------------


class SignedPermutation:
    """Matrix with exactly one +-1 entry per row and per column.

    Stored compactly: ``target[r]`` is the column of row r's single nonzero
    and ``sign[r]`` is +1 or -1.  Applying one to a vector is O(N), against
    O(N^2) for the dense form.  ``A @ B`` composes two of them.
    """

    __slots__ = ("target", "sign", "_xor", "_sign_line", "_flip_line", "_hash")

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
        self._sign_line = None
        self._flip_line = None
        self._hash = None

    @property
    def size(self) -> int:
        return self.target.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(np.arange(n), np.ones(n, dtype=np.int8))

    def _word_xor(self) -> int:
        """The constant c with ``target[r] == r ^ c`` for every row, when
        there is one and N is a whole number of 8-byte words, or one word
        of 1, 2 or 4 bytes; -1 otherwise.  Found on the first call and
        kept."""
        if self._xor is None:
            n = self.size
            c = int(self.target[0]) if n else 0
            fits = (n % 8 == 0 or n in (1, 2, 4)) and np.array_equal(self.target, np.arange(n) ^ c)
            self._xor = c if fits else -1
        return self._xor

    def terms(self, x: np.ndarray) -> np.ndarray:
        """Unreduced product along the last axis: int8 sign[r] * x[..., target[r]].

        ``x`` holds uint8 residues or an int8 partial sum; the terms keep
        its magnitude, so callers add several of them before one
        ``reduce_sum``.  When ``target[r] == r ^ c`` (``_word_xor``) and
        the last axis of ``x`` is contiguous, the gather moves whole
        8-byte words (``_xor_gather``); otherwise it takes byte by byte.
        The signs are applied a line of rows at a time (``_per_column``).
        """
        if x.dtype not in (np.uint8, np.int8):
            raise TypeError(f"terms need uint8 residues or an int8 sum, got {x.dtype}")
        out = self._gather(x.view(np.int8))
        if self._sign_line is None:
            self._sign_line = _line_of(self.sign)
        return _per_column(np.multiply, out, self._sign_line)

    def residue_terms(self, x: np.ndarray) -> np.ndarray:
        """``sign[r] * x[..., target[r]]`` mod 3 for uint8 residues ``x``,
        as new uint8 values 0..3: the gather of ``terms``, then XOR 3 on the
        rows of sign -1, which maps a residue v to 3 - v.  The terms are
        nonnegative, so a sum of them needs only ``_mod3``; XOR 3 negates
        only residues 0..2, so ``x`` must hold nothing else."""
        out = self._gather(x)
        if self._flip_line is None:
            flips = np.where(self.sign < 0, 3, 0).astype(np.uint8)
            self._flip_line = _line_of(flips) if flips.any() else flips[:0]
        if self._flip_line.size:
            _per_column(np.bitwise_xor, out, self._flip_line)
        return out

    def _gather(self, x: np.ndarray) -> np.ndarray:
        """New array of ``x[..., target[r]]``: when ``target[r] == r ^ c``
        (``_word_xor``) and the last axis of ``x`` is contiguous, a gather
        of whole 8-byte words (``_xor_gather``), otherwise byte by byte."""
        if x.shape[-1] != self.size:
            raise Gf3ShapeError(f"vector length {x.shape[-1]} != {self.size}")
        c = self._word_xor()
        if c >= 0 and x.strides[-1] == 1:
            return _xor_gather(x, c).view(x.dtype)
        return np.take(x, self.target, axis=-1)

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
        # The arrays are read-only, so the hash is found once and kept.
        if self._hash is None:
            self._hash = hash((self.target.tobytes(), self.sign.tobytes()))
        return self._hash

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


def rank(m) -> int:
    """Row rank of a 2-D integer matrix, entries taken mod 3, by exact
    Gaussian elimination over GF(3)."""
    return len(_row_reduce(_as_gf3_array(m).astype(np.int16), full=False))


def solve_square(a, b) -> np.ndarray:
    """Solve a @ x = b exactly for square nonsingular ``a``; x as a
    read-only uint8 array."""
    a, b = _as_gf3_array(a), _as_gf3_array(b)
    n = a.shape[0]
    if a.shape[1] != n:
        raise Gf3ShapeError(f"solve_square needs a square matrix, got {a.shape}")
    if b.shape[0] != n:
        raise Gf3ShapeError(f"solve_square: rhs has {b.shape[0]} rows, expected {n}")
    aug = np.hstack([a, b]).astype(np.int16)
    pivots = _row_reduce(aug, full=True)
    if len(pivots) < n or pivots != list(range(n)):
        raise SingularMatrixError(f"matrix of rank {len(pivots)} < {n} is singular")
    return _as_gf3_array(aug[:, n:])


def inverse(a) -> np.ndarray:
    a = _as_gf3_array(a)
    return solve_square(a, np.eye(a.shape[0], dtype=np.uint8))


def solve_left(x_rows, target) -> np.ndarray:
    """Find T with T @ x_rows = target, or fail if no such T exists.

    Requires every row of ``target`` to lie in the row space of ``x_rows``.
    Free coefficients are set to zero and pivots are taken left to right,
    so the returned T, a read-only uint8 array, is deterministic.
    """
    x_rows, target = _as_gf3_array(x_rows), _as_gf3_array(target)
    if x_rows.shape[1] != target.shape[1]:
        raise Gf3ShapeError(f"solve_left: column counts differ, {x_rows.shape[1]} vs {target.shape[1]}")
    p, q = x_rows.shape[0], target.shape[0]
    # Transposed normal form: x_rows^T @ T^T = target^T.
    aug = np.hstack([x_rows.T, target.T]).astype(np.int16)
    pivots = _row_reduce(aug, full=True)
    t_t = np.zeros((p, q), dtype=np.int16)
    for row, c in enumerate(pivots):
        if c >= p:
            raise InconsistentSystemError("target rows are not in the row space")
        t_t[c] = aug[row, p:]
    return _as_gf3_array(t_t.T)
