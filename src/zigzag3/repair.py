"""Half-download repair of every node, with disk-I/O accounting.

Any single lost node is rebuilt by downloading only N/2 symbols from each
of the k+1 surviving nodes, through one ``RepairPlan`` type.  A data node
uses the zigzag rebuild: every helper sends N/2 raw rows, so a repair
reads (k+1)N/2 symbols, what it sends.  For a parity node each helper
applies an (N/2) x N full-row-rank repair matrix to its shard, so that
every unwanted term cancels while the lost shard stays recoverable; a
parity repair reads kN + N - k symbols.

Every plan is in closed form, with no elimination.  For a parity, the
repair pair is the rows of T = I + sigma C, where row u of C holds
(-1)^popcount(u mod 2^b) at column u | 2^b for each bit b < k-1 clear
in u: ``s`` the odd-weight rows and ``s_tilde`` the even-weight ones.
``s`` is the identity on its odd-weight columns, and C^2 = 0 mod 3, so
T^-1 = I - sigma C (``_plan_parity``).  Each projector splits into a
base, sigma C on the even rows and odd columns, shared by every helper,
and one signed slot per row.  This holds for the paper's coding
matrices, and no parity plan is made for another set.  What certifies
the plans, from the recursion to the I/O floor, is in ``verification``.

Every matrix here is a ``SparseRows``: a row names, per slot, a row of
the residue stack [x; -x; 0] of the symbols x it is applied to.  A
product with a coding matrix maps slots through its signed permutation
(``SparseRows.times``).  A plan's downloads, its solve inverse and a
parity's projector base have at most k nonzeros per row; a data node's
are raw row selections and signed permutations, and every projector
part has one slot per row.  Terms are summed in int8 and reduced by
``gf3.reduce_sum`` before the sum can leave +-127; sums of residue-stack
rows, which hold 3 - x for -x, stay nonnegative and are reduced by
``_mod3``.  Shards and downloads keep their (stripes, N) shapes at the
API, and a plan is one of two kinds, each with its own layout:

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

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .code import CodeParams, CodingMatrixSet, _is_paper_set, _odd_weight, basis_index
from .gf3 import (
    Gf3ShapeError,
    InconsistentSystemError,
    SignedPermutation,
    _line_of,
    _mod3,
    _per_column,
    reduce_sum,
    residues,
)

__all__ = [
    "FIRST_PARITY",
    "SECOND_PARITY",
    "SparseRows",
    "RepairPlan",
    "plan_repair",
    "compute_downloads",
    "execute_repair",
    "expected_repair_io",
    "repair_bandwidth",
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


def _slot_image(p: SignedPermutation) -> np.ndarray:
    """Where ``SparseRows.times`` sends each slot over p.size columns."""
    n = p.size
    return np.concatenate([p.target + n * (p.sign < 0), p.target + n * (p.sign > 0), [2 * n]])


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
    comes from pair m; the plan builds them from T, not by a recursion.

    * The systematic downloads sum to s applied to the lost shard (the
      top): each is s, or for the zigzag parity s A_j, s mapped through
      A_j by ``SparseRows.times``.  The surviving parity sends s_tilde.
    * s is the identity on its odd-weight columns, so the X with
      X s equal to t there is t at those columns.  Projector l is
      X(s_tilde) + c X(s_tilde A_l), c = -sigma.  The
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
    plan with it, downloads included (``verification``).
    """
    if not _is_paper_set(cm):
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


def _closed_form(k: int, sigma: int) -> tuple[SparseRows, SparseRows, SparseRows, SparseRows]:
    """The matrices of ``_plan_parity`` from T = I + sigma C: its
    odd-weight rows and its even-weight rows, which the repair pair must
    be, the base sigma C on the even rows and odd columns, and T^-1 =
    I - sigma C with its columns at the odd-weight rows, then the even.

    T is packed once, row by row: the diagonal in slot 0, then column
    u | 2^b for every clear bit b, ascending, which is how the sweep's
    recursion orders the pair's slots.  The base and the
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
    (``gf3._per_column``); per column, over the short rows of a
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
        words = _per_column(np.multiply, x.view(_little(2)).copy(), self._lines[0])
        return (words >> 8).astype(np.uint8)

    def merge(self, mine: np.ndarray, other: np.ndarray) -> np.ndarray:
        keep, move = self._lines
        words = _per_column(np.multiply, mine.astype(_little(2)), move)
        words |= _per_column(np.multiply, other.astype(_little(2)), keep)
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
