"""Dense GF(3) matrices as plain uint8 arrays, the oracle that tests hold
the sparse runtime to.

The program never forms a dense coding or repair matrix: coding matrices
are ``SignedPermutation`` objects and repair matrices are ``SparseRows``.
These helpers form them densely, for small k, so a test can compare a
certificate, a plan or a product with plain matrix arithmetic mod 3.
Elimination (``rank``, ``inverse``, ``solve_left``, ``solve_square``)
comes from ``zigzag3.gf3``, which takes and returns such arrays.
"""

import numpy as np

from zigzag3.gf3 import SignedPermutation


def gf3(data) -> np.ndarray:
    """A 2-D uint8 array of residues mod 3 (so -1 maps to 2); a 1-D
    input is one row."""
    a = np.asarray(data)
    return np.mod(a.reshape(1, -1) if a.ndim == 1 else a, 3).astype(np.uint8)


def sign_gf3(p: SignedPermutation) -> np.ndarray:
    """The signs of a ``SignedPermutation`` as field elements: +1 -> 1,
    -1 -> 2."""
    return np.where(p.sign > 0, 1, 2).astype(np.uint8)


def dense(m) -> np.ndarray:
    """The dense matrix of a ``SignedPermutation`` or a ``SparseRows``."""
    if isinstance(m, SignedPermutation):
        out = np.zeros((m.size, m.size), dtype=np.uint8)
        out[np.arange(m.size), m.target] = sign_gf3(m)
        return out
    return m.array


def mul(*ms) -> np.ndarray:
    """The product of the matrices, left to right, mod 3."""
    out = gf3(ms[0])
    for m in ms[1:]:
        out = gf3(out.astype(np.int64) @ gf3(m).astype(np.int64))
    return out


def add(a, b) -> np.ndarray:
    return gf3(np.add(a, b, dtype=np.int64))


def sub(a, b) -> np.ndarray:
    return gf3(np.subtract(a, b, dtype=np.int64))


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)
