"""Deterministic in-process simulation of a k+2 node storage cluster.

Byte files are expanded six trits per byte (256 <= 3^6), zero-padded to
whole stripes of k*N symbols, and encoded stripe by stripe; the code is a
fixed-size block code, so striping is the standard lift and all meters
aggregate across stripes.  Repair reads are metered by the nonzero columns
of the matrix a helper applies, which is exactly the disk-I/O quantity the
repair strategy optimizes, even though the simulator could trivially read
whole shards.

On disk a shard packs five trits per byte (3^5 = 243 <= 256) behind a
fixed little-endian header and a CRC32 trailer; see ``shard_to_bytes``.

Both expansions are whole-row table lookups: the digit tables are viewed
as one opaque six- or five-byte row per byte value, so a single
``np.take`` turns a byte array into its trit stream.  Unpacking a shard
reads its packed bytes two at a time, as uint16, and looks each pair up in
a 65,536-row table of ten-trit rows, so it takes half as many lookups.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .code import (
    CodeParams,
    CodingMatrixSet,
    build_coding_matrices,
    decode_shards_array,
    encode_parts_array,
)
from .gf3 import residues
from .repair import RepairPlan, compute_downloads, execute_repair, expected_repair_io, plan_repair

__all__ = [
    "CorruptDataError",
    "ShardFormatError",
    "DataLossError",
    "FileMeta",
    "bytes_to_trits",
    "trits_to_bytes",
    "ingest",
    "extract",
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "shard_to_bytes",
    "shard_from_bytes",
    "write_shard_file",
    "NodeStore",
    "RepairReport",
    "repair_lost_node",
    "ScrubReport",
    "ClusterState",
]


class CorruptDataError(ValueError):
    """Recombined trits do not form valid bytes."""


class ShardFormatError(ValueError):
    """Shard bytes violate the on-disk format or fail CRC."""


class DataLossError(RuntimeError):
    """More failures than the code can tolerate."""


# ---------------------------------------------------------------------------
# Byte <-> trit mapping
# ---------------------------------------------------------------------------


def _digit_rows(values: int, digits: int) -> np.ndarray:
    """The base-3 digits of 0..values-1, most significant first, each
    value's digits viewed as one opaque ``digits``-byte row, read-only."""
    table = np.array(
        [[(b // 3**p) % 3 for p in range(digits - 1, -1, -1)] for b in range(values)],
        dtype=np.uint8,
    )
    rows = table.view(np.dtype((np.void, digits))).reshape(values)
    rows.setflags(write=False)
    return rows


# byte value -> its 6 base-3 digits
_BYTE_TO_TRITS = _digit_rows(256, 6)
# packed byte value -> its 5 base-3 digits (values >= 243 are invalid)
_PACKED_TO_TRITS = _digit_rows(243, 5)
# Two adjacent packed bytes, read as one uint16 -> their 10 digits.  Built
# through a byte view of every uint16 value, so it holds in either byte
# order.  A pair with a byte >= 243 gets a clipped row; ``_unpack_trits``
# rejects such bytes before any lookup.
_PAIR_TO_TRITS = np.take(
    _PACKED_TO_TRITS, np.arange(1 << 16, dtype=np.uint16).view(np.uint8), mode="clip"
).view(np.dtype((np.void, 10)))
_PAIR_TO_TRITS.setflags(write=False)


def _horner(groups: np.ndarray, dtype) -> np.ndarray:
    """Base-3 value of each row of trits, most significant first."""
    vals = groups[:, 0].astype(dtype)
    for c in range(1, groups.shape[1]):
        vals *= 3
        vals += groups[:, c]
    return vals


def bytes_to_trits(data: bytes, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Expand each byte to 6 trits, most significant digit first.

    The trits go to the first 6*len(data) entries of the uint8 array
    ``out`` (a new array by default), which are returned.  One whole-row
    ``np.take``: every byte indexes a row, so ``clip`` never clips; it
    only lets the take write into ``out`` directly, where the default
    ``raise`` mode buffers it.
    """
    if out is None:
        out = np.empty(6 * len(data), dtype=np.uint8)
    trits = out[: 6 * len(data)]
    rows = trits.view(_BYTE_TO_TRITS.dtype)
    np.take(_BYTE_TO_TRITS, np.frombuffer(data, dtype=np.uint8), out=rows, mode="clip")
    return trits


def trits_to_bytes(trits: np.ndarray, byte_count: int, *, first: int = 0) -> bytes:
    """Recombine groups of 6 trits into bytes; groups >= 256 are corrupt.

    ``first`` is the index of the first group in the whole stream, so that
    a block cut from a longer stream reports a corrupt group by its place
    in that stream.
    """
    need = 6 * byte_count
    if trits.shape[0] < need:
        raise CorruptDataError(f"need {need} trits for {byte_count} bytes, got {trits.shape[0]}")
    # 6 trits reach 728, so the value needs uint16
    vals = _horner(trits[:need].reshape(-1, 6), np.uint16)
    if vals.size and int(vals.max()) > 255:
        bad = int(np.argmax(vals > 255))
        raise CorruptDataError(f"trit group {first + bad} recombines to {int(vals[bad])} >= 256")
    return vals.astype(np.uint8).tobytes()


def _pack_trits(trits: np.ndarray) -> bytes:
    """Pack 5 trits per byte, earliest trit in the highest place value.

    A last group of fewer than 5 trits is zero-padded on the right; it is
    packed on its own, so the stream is never copied to pad it.
    """
    whole = trits.shape[0] - trits.shape[0] % 5
    packed = _horner(trits[:whole].reshape(-1, 5), np.uint8).tobytes()
    if whole < trits.shape[0]:
        last = np.zeros((1, 5), dtype=np.uint8)
        last[0, : trits.shape[0] - whole] = trits[whole:]
        packed += _horner(last, np.uint8).tobytes()
    return packed


def _unpack_trits(blob: bytes, trit_count: int) -> np.ndarray:
    """The first ``trit_count`` trits of 5-trit packed bytes; a byte >= 243
    or too short a payload raises ``ShardFormatError``.

    Whole-row lookups: each pair of bytes, read as a uint16, takes its 10
    trits from ``_PAIR_TO_TRITS``, and an odd last byte its 5 trits from
    ``_PACKED_TO_TRITS``.  Every index is in range, so ``clip`` never
    clips; it only lets the takes write into the result directly.
    """
    arr = np.frombuffer(blob, dtype=np.uint8)
    if arr.size and int(arr.max()) >= 243:
        raise ShardFormatError("payload byte >= 243 cannot encode 5 trits")
    if 5 * arr.size < trit_count:
        raise ShardFormatError(f"payload holds {5 * arr.size} trits, header claims {trit_count}")
    trits = np.empty(5 * arr.size, dtype=np.uint8)
    whole = arr.size - arr.size % 2
    for table, index, rows in (
        (_PAIR_TO_TRITS, arr[:whole].view(np.uint16), trits[: 5 * whole]),
        (_PACKED_TO_TRITS, arr[whole:], trits[5 * whole :]),
    ):
        np.take(table, index, out=rows.view(table.dtype), mode="clip")
    return trits[:trit_count]


# ---------------------------------------------------------------------------
# Ingest / extract
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileMeta:
    """Original byte length plus the stripe geometry it padded out to."""

    original_len: int
    stripe_count: int


# Trits per codec block: ingest and extract convert the stream a few
# stripes at a time, so neither lays out a file-sized copy of it.
_BLOCK_TRITS = 1 << 18


def _block_stripes(params: CodeParams) -> int:
    """Stripes per codec block: a multiple of 3, so every block starts on
    a byte (a stripe holds an even number of trits)."""
    return 3 * max(1, _BLOCK_TRITS // (3 * params.k * params.n_rows))


def ingest(params: CodeParams, data: bytes) -> tuple[np.ndarray, FileMeta]:
    """Split a byte string into parts of shape (k, stripes, N).

    The trit stream is zero-padded to whole stripes; an empty file still
    occupies one all-zero stripe.  Within a stripe, part j takes trits
    [j*N, (j+1)*N).  The stream is expanded block by block straight into
    the parts, with no file-sized intermediate.
    """
    k, n = params.k, params.n_rows
    per_stripe = k * n
    stripes = max(1, -(-6 * len(data) // per_stripe))
    parts = np.empty((k, stripes, n), dtype=np.uint8)
    step = _block_stripes(params)
    block = np.empty(step * per_stripe, dtype=np.uint8)
    view = memoryview(data)
    for s0 in range(0, stripes, step):
        s1 = min(stripes, s0 + step)
        b0 = min(len(data), s0 * per_stripe // 6)
        b1 = min(len(data), s1 * per_stripe // 6)
        trits = block[: (s1 - s0) * per_stripe]
        bytes_to_trits(view[b0:b1], out=trits)
        trits[6 * (b1 - b0):] = 0
        parts[:, s0:s1] = trits.reshape(s1 - s0, k, n).transpose(1, 0, 2)
    return parts, FileMeta(len(data), stripes)


def extract(params: CodeParams, parts: np.ndarray, meta: FileMeta) -> bytes:
    """Inverse of ingest: reassemble the trit stream and strip the padding.

    Like ``ingest`` it works block by block: only one block of the stream
    is ever laid out in file order.
    """
    k, n = params.k, params.n_rows
    if parts.shape != (k, meta.stripe_count, n):
        raise ValueError(f"parts shape {parts.shape} != ({k}, {meta.stripe_count}, {n})")
    size = meta.original_len
    if parts.size < 6 * size:
        raise CorruptDataError(f"need {6 * size} trits for {size} bytes, got {parts.size}")
    per_stripe = k * n
    step = _block_stripes(params)
    blocks = []
    for s0 in range(0, meta.stripe_count, step):
        b0 = s0 * per_stripe // 6
        if b0 >= size:
            break
        trits = parts[:, s0 : s0 + step].transpose(1, 0, 2).reshape(-1)
        b1 = min(size, b0 + trits.shape[0] // 6)
        blocks.append(trits_to_bytes(trits, b1 - b0, first=b0))
    return b"".join(blocks)


# ---------------------------------------------------------------------------
# Shard files
# ---------------------------------------------------------------------------

SHARD_MAGIC = b"ZZG3"
SHARD_VERSION = 1
_HEADER_LEN = 4 + 1 + 1 + 1 + 4 + 8


def shard_to_bytes(params: CodeParams, node_id: int, payload: np.ndarray) -> bytes:
    """Serialize one node's payload (stripes, N) to the shard wire format."""
    if not 0 <= node_id < params.n_nodes:
        raise ValueError(f"node id {node_id} out of range")
    stripes, n = payload.shape
    if n != params.n_rows:
        raise ValueError(f"payload row length {n} != {params.n_rows}")
    trits = residues(payload).reshape(-1)
    packed = _pack_trits(trits)
    head = (
        SHARD_MAGIC
        + bytes([SHARD_VERSION, params.k, node_id])
        + stripes.to_bytes(4, "little")
        + trits.shape[0].to_bytes(8, "little")
    )
    crc = zlib.crc32(packed) & 0xFFFFFFFF
    return head + packed + crc.to_bytes(4, "little")


def shard_from_bytes(blob: bytes) -> tuple[CodeParams, int, np.ndarray]:
    """Parse and validate a shard; returns (params, node_id, payload)."""
    if len(blob) < _HEADER_LEN + 4:
        raise ShardFormatError("shard too short for header and CRC")
    if blob[:4] != SHARD_MAGIC:
        raise ShardFormatError(f"bad magic {blob[:4]!r}")
    if blob[4] != SHARD_VERSION:
        raise ShardFormatError(f"unsupported version {blob[4]}")
    k = blob[5]
    node_id = blob[6]
    stripes = int.from_bytes(blob[7:11], "little")
    trit_count = int.from_bytes(blob[11:19], "little")
    try:
        params = CodeParams(k)
    except ValueError as exc:
        raise ShardFormatError(str(exc)) from exc
    if node_id >= params.n_nodes:
        raise ShardFormatError(f"node id {node_id} out of range for k={k}")
    if trit_count != stripes * params.n_rows:
        raise ShardFormatError(
            f"trit count {trit_count} != stripes*N = {stripes * params.n_rows}"
        )
    payload_len = (trit_count + 4) // 5
    expected_len = _HEADER_LEN + payload_len + 4
    if len(blob) != expected_len:
        raise ShardFormatError(f"shard length {len(blob)} != expected {expected_len}")
    packed = blob[_HEADER_LEN : _HEADER_LEN + payload_len]
    crc_stored = int.from_bytes(blob[-4:], "little")
    if zlib.crc32(packed) & 0xFFFFFFFF != crc_stored:
        raise ShardFormatError("payload CRC mismatch")
    trits = _unpack_trits(packed, trit_count)
    return params, node_id, trits.reshape(stripes, params.n_rows)


def write_shard_file(path, params: CodeParams, node_id: int, payload: np.ndarray) -> int:
    """Write a shard file; returns the payload CRC32."""
    blob = shard_to_bytes(params, node_id, payload)
    with open(path, "wb") as fh:
        fh.write(blob)
    return int.from_bytes(blob[-4:], "little")


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------

HEALTHY = "healthy"
FAILED = "failed"


def _read_only(payload: np.ndarray) -> np.ndarray:
    """A view of ``payload`` that raises on any write, so no reader of a
    helper's shard can change the stored copy."""
    view = payload.view()
    view.setflags(write=False)
    return view


@dataclass
class NodeStore:
    """One storage node: its symbols plus monotone read/sent meters."""

    node_id: int
    payload: Optional[np.ndarray]  # (stripes, N) or None while failed
    status: str = HEALTHY
    read_count: int = 0
    sent_count: int = 0

    def serve(self, reads: int, sent: int) -> np.ndarray:
        """Hand out a read-only view of the payload for a repair, charging
        the meters."""
        if self.status != HEALTHY or self.payload is None:
            raise DataLossError(f"node {self.node_id} cannot serve reads while failed")
        self.read_count += reads
        self.sent_count += sent
        return _read_only(self.payload)


@dataclass(frozen=True)
class RepairReport:
    """What one repair did: reads, transfers and per-stage wall time.

    ``stage_seconds`` holds ``downloads`` and ``solve`` for a plan repair,
    and ``plan`` too on the repair that built the plan (a cluster reuses
    it for every later repair of that node, which then reports no plan
    stage); ``decode`` and ``encode`` for a full download; and nothing
    for a noop.
    """

    node_id: int
    method: str  # "parity-plan" | "data-plan" | "full-download" | "noop"
    optimal: bool
    reads_per_node: dict[int, int]
    total_reads: int
    total_sent: int
    expected_reads: Optional[int]  # only for plan repairs
    stripes: int
    warning: Optional[str] = None
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def matches_expectation(self) -> Optional[bool]:
        if self.expected_reads is None:
            return None
        return self.total_reads == self.expected_reads


def repair_lost_node(
    params: CodeParams,
    cm: CodingMatrixSet,
    nodes,
    node_id: int,
    stripes: int,
    plans: Optional[dict[int, RepairPlan]] = None,
) -> tuple[np.ndarray, RepairReport]:
    """Rebuild the single lost node ``node_id`` through its repair plan.

    ``nodes`` maps every other node id to its ``NodeStore``; all k+1 serve
    as helpers, each charged with the symbols its download reads and
    sends.  ``plans``, if given, caches plans by node for ``params`` and
    ``cm``: a plan found there is reused, and one built here is stored
    there.  The plan (when built), the downloads and the solve are timed
    separately.  Returns the rebuilt (stripes, N) payload and the report;
    storing the payload is the caller's.
    """
    stage_seconds = {}
    plan = plans.get(node_id) if plans is not None else None
    if plan is None:
        start = time.perf_counter()
        plan = plan_repair(params, cm, node_id)
        stage_seconds["plan"] = time.perf_counter() - start
        if plans is not None:
            plans[node_id] = plan
    payloads = {}
    reads_per_node = {}
    total_sent = 0
    io_per_node = plan.io_per_node
    for helper in plan.helper_nodes:
        reads = stripes * io_per_node[helper]
        sent = stripes * plan.downloads[helper].rows
        payloads[helper] = nodes[helper].serve(reads, sent)
        reads_per_node[helper] = reads
        total_sent += sent
    start = time.perf_counter()
    downloads = compute_downloads(plan, payloads)
    stage_seconds["downloads"] = time.perf_counter() - start
    start = time.perf_counter()
    restored = execute_repair(plan, downloads)
    stage_seconds["solve"] = time.perf_counter() - start
    return restored, RepairReport(
        node_id=node_id,
        method="data-plan" if node_id < params.k else "parity-plan",
        optimal=True,
        reads_per_node=reads_per_node,
        total_reads=sum(reads_per_node.values()),
        total_sent=total_sent,
        expected_reads=stripes * expected_repair_io(params, node_id),
        stripes=stripes,
        stage_seconds=stage_seconds,
    )


@dataclass(frozen=True)
class ScrubReport:
    mismatches: tuple[tuple[int, int, int], ...]  # (node, stripe, row)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class ClusterState:
    """A k+2 node cluster holding one striped file.

    Single-writer: every mutation goes through fail_node/repair_node on one
    thread; NodeStore payloads are only read elsewhere.

    Repair plans are kept per node, each built on the first repair of its
    node, and dropped together whenever ``cm`` is no longer the coding
    matrix set they were built from.  Only a state that repairs the same
    node again reuses one; ``zigzag3 repair`` keeps no plans between runs.
    """

    params: CodeParams
    nodes: list[NodeStore]
    meta: FileMeta
    cm: CodingMatrixSet = field(repr=False, default=None)
    _plans: dict[int, RepairPlan] = field(init=False, repr=False, compare=False, default_factory=dict)
    _plans_cm: Optional[CodingMatrixSet] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.cm is None:
            self.cm = build_coding_matrices(self.params)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_bytes(cls, params: CodeParams, data: bytes) -> "ClusterState":
        cm = build_coding_matrices(params)
        parts, meta = ingest(params, data)
        shards = encode_parts_array(params, cm, parts)
        nodes = [NodeStore(i, shards[i].copy()) for i in range(params.n_nodes)]
        return cls(params, nodes, meta, cm)

    # -- queries --------------------------------------------------------------

    @property
    def failed_nodes(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.status == FAILED]

    @property
    def healthy_nodes(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.status == HEALTHY]

    def payloads(self, ids) -> dict[int, np.ndarray]:
        """Read-only views of the payloads of healthy nodes ``ids``."""
        out = {}
        for i in ids:
            node = self.nodes[i]
            if node.status != HEALTHY or node.payload is None:
                raise DataLossError(f"node {i} is failed")
            out[i] = _read_only(node.payload)
        return out

    def extract_file(self) -> bytes:
        """Reassemble the original bytes from any k healthy nodes."""
        healthy = self.healthy_nodes
        if len(healthy) < self.params.k:
            raise DataLossError(f"only {len(healthy)} healthy nodes, need {self.params.k}")
        chosen = healthy[: self.params.k]
        parts = decode_shards_array(self.params, self.cm, self.payloads(chosen))
        return extract(self.params, parts, self.meta)

    # -- failure and repair ----------------------------------------------------

    def _check_node_id(self, node_id: int) -> None:
        if not 0 <= node_id < self.params.n_nodes:
            raise ValueError(f"node id {node_id} out of range [0, {self.params.n_nodes})")

    def fail_node(self, node_id: int) -> None:
        self._check_node_id(node_id)
        node = self.nodes[node_id]
        if node.status == FAILED:
            return
        if len(self.failed_nodes) >= 2:
            raise DataLossError("a third failure exceeds the two-erasure tolerance")
        node.status = FAILED
        node.payload = None

    def repair_node(self, node_id: int) -> RepairReport:
        self._check_node_id(node_id)
        node = self.nodes[node_id]
        stripes = self.meta.stripe_count
        if node.status == HEALTHY:
            return RepairReport(
                node_id, "noop", False, {}, 0, 0, None, stripes,
                warning=f"node {node_id} is healthy; nothing to repair",
            )
        if self.failed_nodes == [node_id]:
            if self._plans_cm is not self.cm:
                self._plans, self._plans_cm = {}, self.cm
            restored, report = repair_lost_node(
                self.params, self.cm, self.nodes, node_id, stripes, self._plans
            )
            node.payload = restored
            node.status = HEALTHY
            return report
        return self._repair_full_download(node_id)

    def _repair_full_download(self, node_id: int) -> RepairReport:
        """Read k whole shards, decode, re-encode the lost shard.

        Used only while another node is also failed: every repair plan
        needs all k+1 other nodes as helpers.  Once this repair has run,
        the other failed node is the only one and takes its plan.
        """
        k = self.params.k
        stripes = self.meta.stripe_count
        healthy = self.healthy_nodes
        if len(healthy) < k:
            raise DataLossError(f"only {len(healthy)} healthy nodes, need {k}")
        chosen = healthy[:k]
        per_node = stripes * self.params.n_rows
        payloads = {}
        reads_per_node = {}
        for helper in chosen:
            payloads[helper] = self.nodes[helper].serve(per_node, per_node)
            reads_per_node[helper] = per_node
        start = time.perf_counter()
        parts = decode_shards_array(self.params, self.cm, payloads)
        decode_s = time.perf_counter() - start
        start = time.perf_counter()
        shards = encode_parts_array(self.params, self.cm, parts)
        encode_s = time.perf_counter() - start
        node = self.nodes[node_id]
        node.payload = np.ascontiguousarray(shards[node_id])
        node.status = HEALTHY
        return RepairReport(
            node_id=node_id,
            method="full-download",
            optimal=False,
            reads_per_node=reads_per_node,
            total_reads=sum(reads_per_node.values()),
            total_sent=per_node * len(chosen),
            expected_reads=None,
            stripes=stripes,
            stage_seconds={"decode": decode_s, "encode": encode_s},
        )

    # -- integrity --------------------------------------------------------------

    def scrub(self) -> ScrubReport:
        """Recompute both parities from the systematic shards and diff."""
        k = self.params.k
        for j in range(k):
            if self.nodes[j].status != HEALTHY:
                raise DataLossError(f"systematic node {j} is failed; cannot scrub")
        parts = np.stack([self.nodes[j].payload for j in range(k)])
        shards = encode_parts_array(self.params, self.cm, parts)
        mismatches = []
        for parity in (k, k + 1):
            node = self.nodes[parity]
            if node.status != HEALTHY:
                continue
            diff = node.payload != shards[parity]
            for stripe, row in zip(*np.nonzero(diff)):
                mismatches.append((parity, int(stripe), int(row)))
        return ScrubReport(tuple(mismatches))
