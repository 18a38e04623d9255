"""Decoding for tests: shards and shard payloads into new arrays, shards
held in a dict, and a ``ClusterState``'s file.

The program decodes shard files (``zigzag3 decode``), never a cluster's
payloads, so these live with the tests.
"""

import numpy as np

from zigzag3.cluster import _unpack_trits, extract, shard_from_bytes, shard_header, unpack_groups
from zigzag3.code import decode_shards_array
from zigzag3.gf3 import residues

# A byte no shard holds: the rows of a stack that no shard fills start
# as this, so a decode that reads one goes wrong.
UNSET = 0xA5


def read_shard(blob: bytes):
    """(params, node id, payload) of a shard, its payload unpacked by
    ``shard_from_bytes`` and, for version 4, ``unpack_groups`` into a new
    array."""
    header = shard_header(blob)
    payload = np.empty((header.stripes, header.params.n_rows), dtype=np.uint8)
    packed = shard_from_bytes(blob, payload, header)
    if header.version == 4:
        unpack_groups(packed, payload)
    return header.params, header.node_id, payload


def unpack_trits(packed: bytes, count: int, version: int) -> np.ndarray:
    """The first ``count`` trits of the shard payload ``packed``, unpacked
    by ``zigzag3.cluster._unpack_trits`` into a new array."""
    out = np.empty(count, dtype=np.uint8)
    _unpack_trits(packed, out, version, 0)
    return out


def decode_available(params, cm, available: dict) -> np.ndarray:
    """``decode_shards_array`` of the shards in ``available`` (node id ->
    array of residues of any integer dtype, all of one shape (..., N)),
    laid out in a stack of k+2 rows as ``zigzag3 decode`` lays them.

    The rows of absent nodes start as ``UNSET``, and the rows of present
    ones must come out of the decode unchanged.  Returns the parts."""
    k, n = params.k, params.n_rows
    lead = np.shape(next(iter(available.values())))[:-1] if available else ()
    stack = np.full((k + 2, *lead, n), UNSET, dtype=np.uint8)
    for node, shard in available.items():
        stack[node] = residues(shard)
    before = stack.copy()
    parts = decode_shards_array(params, cm, stack, available)
    assert np.shares_memory(parts, stack)
    for node in available:
        assert np.array_equal(stack[node], before[node]), f"decode wrote present row {node}"
    for node in set(range(k, k + 2)) - set(available):
        assert (stack[node] == UNSET).all(), f"decode wrote missing parity row {node}"
    return parts


def extract_file(cluster) -> bytes:
    """The file a cluster holds, decoded from its first k nodes whose
    payload is not None."""
    available = {n.node_id: n.payload for n in cluster.nodes if n.payload is not None}
    available = dict(list(available.items())[: cluster.params.k])
    return extract(cluster.params, decode_available(cluster.params, cluster.cm, available), cluster.meta)
