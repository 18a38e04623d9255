"""Construction of the (k+2,k) zigzag code over GF(3).

A file of M = k*N symbols (N = 2^(k-1)) is split into k parts f_0..f_{k-1}.
Nodes 0..k-1 store the parts uncoded, node k stores the row sums, and node
k+1 stores the zigzag parity: row l combines one symbol from each part,
picked by XOR-ing the row index with a basis vector and weighted by a +-1
coefficient.  Equivalently, node k+1 stores sum_j A_j f_j for k signed
permutation matrices A_j, built here by the recursive block definition;
the condition sweep checks them entrywise against the row/coefficient
description (``verification.coding_matrix_from_zigzag``).  Encoding sums
the permutations' residue terms, negated by XOR 3 (``_zigzag_sum``), and
decoding applies them through the int8 symbol kernel of ``gf3``.
Each A_j maps row l to l ^ e_j, and so do their inverses and the products
decode forms, with l ^ e_j1 ^ e_j2, so every apply is a gather of whole
8-byte words plus byte reversals inside them (``SignedPermutation.terms``);
``verification.second_parity_by_rows`` keeps a per-byte gather as the
reference.
Decoding works in place in a stack of every node's shard and writes only
the lost systematic rows; two lost parts are recovered in closed form,
O(N) per stripe.

All symbols live in GF(3) with 2 standing for -1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf3 import (
    SignedPermutation,
    SingularMatrixError,
    _mod3,
    reduce_sum,
    residues,
)

__all__ = [
    "MAX_K",
    "CodeParams",
    "CodingMatrixSet",
    "InsufficientShardsError",
    "InconsistentShardsError",
    "basis_index",
    "build_coding_matrices",
    "second_parity_by_matrices",
    "encode_parts_array",
    "decode_shards_array",
]

# Largest k accepted.  N = 2^(k-1) doubles with every k, and so does the
# size of every shard and repair matrix.
MAX_K = 16


class InsufficientShardsError(ValueError):
    """Fewer than k distinct shards were supplied."""


class InconsistentShardsError(ValueError):
    """Supplied shards do not agree with any single codeword."""


@dataclass(frozen=True)
class CodeParams:
    """Validity gate shared by every operation: k data nodes, N = 2^(k-1)."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.k > MAX_K:
            raise ValueError(f"k={self.k} exceeds the cap {MAX_K}")

    @property
    def n_rows(self) -> int:
        """Symbols per node, N = 2^(k-1)."""
        return 1 << (self.k - 1)

    @property
    def n_nodes(self) -> int:
        return self.k + 2

    @property
    def file_symbols(self) -> int:
        """Total symbols per stripe, M = k*N."""
        return self.k * self.n_rows


# ---------------------------------------------------------------------------
# Row-index machinery: bit flips and +-1 coefficients
# ---------------------------------------------------------------------------


def basis_index(params: CodeParams, j: int) -> int:
    """Integer value of e_j under the big-endian bit convention; e_0 = 0.

    Bit 1 is the most significant of the k-1 index bits, so e_j = 2^(k-1-j).
    """
    if not 0 <= j < params.k:
        raise ValueError(f"node index {j} out of range [0, {params.k})")
    return 0 if j == 0 else 1 << (params.k - 1 - j)


def _odd_weight(x: np.ndarray) -> np.ndarray:
    """Whether each of the nonnegative integers ``x`` has an odd count of
    set bits."""
    return (np.bitwise_count(x) & 1) == 1


# ---------------------------------------------------------------------------
# Coding matrices
# ---------------------------------------------------------------------------


def _recursion_level(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Block recursion for the k signed permutations at level k, each as
    its (target, sign) arrays.

    A_0 = I; A_1 swaps halves with a -1 on the upper right; for j >= 2,
    A_j = diag(B, -B) with B the (j-1)-th matrix one level down.
    """
    n = 1 << (k - 1)
    half = n >> 1
    ones = np.ones(half, dtype=np.int8)
    mats = [
        (np.arange(n), np.ones(n, dtype=np.int8)),
        (np.concatenate([np.arange(half) + half, np.arange(half)]), np.concatenate([-ones, ones])),
    ]
    if k > 2:
        for target, sign in _recursion_level(k - 1)[1:]:
            mats.append((np.concatenate([target, target + half]), np.concatenate([sign, -sign])))
    return mats


@dataclass(frozen=True)
class CodingMatrixSet:
    """The k coding matrices, each a signed permutation."""

    params: CodeParams
    matrices: tuple[SignedPermutation, ...]


@functools.lru_cache(maxsize=MAX_K - 1)
def build_coding_matrices(params: CodeParams) -> CodingMatrixSet:
    """Coding matrices from the recursive block definition.

    One set is built per ``CodeParams`` and kept for the process (at most
    15 sets, under 9 MB in all), and every caller gets that same set.
    Sharing it is safe: the set is frozen and its arrays are read-only, so
    a variant, such as ``flip_one_sign`` makes, is always a new set."""
    return CodingMatrixSet(params, tuple(SignedPermutation(t, s) for t, s in _recursion_level(params.k)))


def _is_paper_set(cm: CodingMatrixSet) -> bool:
    """Whether ``cm`` holds exactly the paper's k coding matrices, entry by
    entry in O(kN): the row/coefficient rule of
    ``verification.coding_matrix_from_zigzag`` for every j at once.  Row
    l of A_j has its nonzero at l ^ e_j, -1 where the first j index bits
    of that column have odd parity: the bits left by shifting it k-1-j
    places right."""
    k, n = cm.params.k, cm.params.n_rows
    if len(cm.matrices) != k:
        return False
    shift = k - 1 - np.arange(k)[:, None]
    target = np.arange(n) ^ np.where(shift < k - 1, 1 << shift, 0)
    sign = np.where(_odd_weight(target >> shift), -1, 1)
    return np.array_equal(np.stack([m.target for m in cm.matrices]), target) and np.array_equal(
        np.stack([m.sign for m in cm.matrices]), sign
    )


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def second_parity_by_matrices(cm: CodingMatrixSet, parts: np.ndarray) -> np.ndarray:
    """Zigzag parity as sum_j A_j f_j using the compact permutations, for
    parts of any integer dtype, taken mod 3 first (``_zigzag_sum``)."""
    parts = residues(parts)
    return _zigzag_sum(cm, parts, np.empty(parts.shape[1:], dtype=np.uint8))


def _zigzag_sum(cm: CodingMatrixSet, parts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j A_j f_j of the uint8 residue parts (k, ..., N), written into
    ``out`` (..., N) and returned.  Each term is a gather with negation as
    XOR 3 (``SignedPermutation.residue_terms``), so the uint8 sum is
    nonnegative, at most 3k, and ``_mod3`` reduces it."""
    acc = cm.matrices[0].residue_terms(parts[0])
    for j in range(1, len(cm.matrices)):
        acc += cm.matrices[j].residue_terms(parts[j])
    return _mod3(acc, out)


def encode_parts_array(params: CodeParams, cm: CodingMatrixSet, parts: np.ndarray) -> np.ndarray:
    """Encode parts of shape (k, ..., N) into uint8 shards of shape (k+2, ..., N).

    Parts of any integer dtype are taken mod 3 first.  The parities come
    from ``_encode_parities``.
    """
    if parts.shape[0] != params.k or parts.shape[-1] != params.n_rows:
        raise ValueError(f"parts shape {parts.shape} does not match k={params.k}, N={params.n_rows}")
    parts = residues(parts)
    k = params.k
    shards = np.empty((k + 2,) + parts.shape[1:], dtype=np.uint8)
    shards[:k] = parts
    shards[k:] = _encode_parities(cm, parts)
    return shards


def _encode_parities(cm: CodingMatrixSet, parts: np.ndarray, out=None) -> np.ndarray:
    """The row-sum and zigzag parities of the k uint8 residue parts
    (k, ..., N), written into ``out`` (2, ..., N), a new array if None,
    and returned.  The zigzag parity is ``_zigzag_sum``, the kernel that
    the sweep's ``encoder-forms`` check compares with
    ``verification.second_parity_by_rows``."""
    if out is None:
        out = np.empty((2,) + parts.shape[1:], dtype=np.uint8)
    _mod3(parts.sum(axis=0, dtype=np.uint8), out[0])
    _zigzag_sum(cm, parts, out[1])
    return out


# ---------------------------------------------------------------------------
# Decoding from any k shards
# ---------------------------------------------------------------------------


def _residual(parity: np.ndarray, terms) -> np.ndarray:
    """int8 ``parity - sum(terms)``, left unreduced for the caller's reduce_sum."""
    acc = parity.astype(np.int8)
    for t in terms:
        acc -= t
    return acc


@functools.lru_cache(maxsize=16)
def _decode_operators(cm: CodingMatrixSet, missing: tuple[int, ...]) -> tuple[SignedPermutation, ...]:
    """The signed permutations that rebuild the ``missing`` systematic
    parts: A_j^-1 for one part j peeled off the zigzag parity, and for two,
    j1 < j2, A_j1^-1 and P A_j1^-1 with P = A_j1^-1 A_j2, once P^2 = -I
    holds (see ``decode_shards_array``).

    Kept per coding set and pattern, the last 16 of them (about 10 MB at
    k = 16).  A pair that fails the check raises ``SingularMatrixError``,
    which is never kept, so it raises on every call."""
    mats = cm.matrices
    a1_inv = mats[missing[0]].inverse()
    if len(missing) == 1:
        return (a1_inv,)
    j1, j2 = missing
    p = a1_inv @ mats[j2]
    if p @ p != SignedPermutation.identity(cm.params.n_rows).negate():
        raise SingularMatrixError(f"A_{j1} - A_{j2} is singular: A_{j1}^-1 A_{j2} does not square to -I")
    return a1_inv, p @ a1_inv


def decode_shards_array(params: CodeParams, cm: CodingMatrixSet, shards: np.ndarray, present) -> np.ndarray:
    """Recover all k parts from any >= k shards, in place in a stack of
    every node's shard.

    ``shards`` is a uint8 array of shape (k+2, ..., N), row i node i's
    shard; the rows named by ``present`` hold residues 0..2, and the
    others anything.  The missing systematic rows are written, and only
    they: the present rows and any missing parity row are left as they
    are.  Returns the view ``shards[:k]`` of the parts, so when every
    systematic shard is present nothing is copied.

    Case split: one systematic part missing -> peel it off a parity (the
    row sum when present, else the zigzag parity through A_j^-1); two
    missing, j1 < j2 -> closed form.  With r1 = f_j1 + f_j2 and
    r2 = A_j1 f_j1 + A_j2 f_j2 left after peeling the present parts off
    both parities, let P = A_j1^-1 A_j2.  Its index map x -> x ^ e_j1 ^ e_j2
    has only 2-cycles, so A_j1 - A_j2 = A_j1 (I - P) is invertible exactly
    when P^2 = -I, and then (I - P)^-1 = -(I + P).  Hence
    f_j1 = -(I + P) A_j1^-1 (r2 - A_j2 r1) and f_j2 = r1 - f_j1, O(N) per
    stripe; if P^2 != -I, SingularMatrixError is raised.  The operators
    come from ``_decode_operators``.  With more than k shards the present
    parities are cross-checked against a re-encode of the parts.  A stack
    of another shape or dtype, or a node id outside it, raises
    ``ValueError``.
    """
    k, n = params.k, params.n_rows
    if shards.dtype != np.uint8 or shards.ndim < 2 or shards.shape[0] != k + 2 or shards.shape[-1] != n:
        raise ValueError(
            f"shard stack has shape {shards.shape} and dtype {shards.dtype}, expected uint8 ({k + 2}, ..., {n})"
        )
    present = set(present)
    for node in present:
        if not 0 <= node < params.n_nodes:
            raise ValueError(f"unknown node id {node}")
    if len(present) < k:
        raise InsufficientShardsError(f"got {len(present)} shards, need at least {k}")

    parts = shards[:k]
    kept = [j for j in range(k) if j in present]
    missing = tuple(j for j in range(k) if j not in present)
    mats = cm.matrices

    def row_sum_residual():
        return _residual(shards[k], (parts[l].view(np.int8) for l in kept))

    def zigzag_residual():
        return _residual(shards[k + 1], (mats[l].terms(parts[l]) for l in kept))

    if len(missing) == 1:
        j = missing[0]
        if k in present:
            parts[j] = reduce_sum(row_sum_residual())
        else:
            (a_inv,) = _decode_operators(cm, missing)
            parts[j] = reduce_sum(a_inv.terms(zigzag_residual()))
    elif len(missing) == 2:
        j1, j2 = missing
        a1_inv, pa1_inv = _decode_operators(cm, missing)
        r1 = reduce_sum(row_sum_residual())
        r2 = reduce_sum(zigzag_residual())
        t = r2.view(np.int8) - mats[j2].terms(r1)
        f1 = reduce_sum(-(a1_inv.terms(t) + pa1_inv.terms(t)))
        parts[j1] = f1
        parts[j2] = reduce_sum(r1.view(np.int8) - f1.view(np.int8))

    if len(present) > k:
        parities = _encode_parities(cm, parts)
        for node in sorted(present - set(range(k))):
            if not np.array_equal(parities[node - k], shards[node]):
                raise InconsistentShardsError(f"shard {node} disagrees with the reconstruction")
    return parts
