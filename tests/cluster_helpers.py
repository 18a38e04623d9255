"""Reading a ``ClusterState``'s file back, for tests.

The program decodes shard files (``zigzag3 decode``), never a cluster's
payloads, so this lives with the tests.
"""

from zigzag3.cluster import extract
from zigzag3.code import decode_shards_array


def extract_file(cluster) -> bytes:
    """The file a cluster holds, decoded from its first k nodes whose
    payload is not None through read-only views, so a decode that wrote
    to a payload raises."""
    views = {}
    for node in [n for n in cluster.nodes if n.payload is not None][: cluster.params.k]:
        views[node.node_id] = node.payload.view()
        views[node.node_id].setflags(write=False)
    return extract(cluster.params, decode_shards_array(cluster.params, cluster.cm, views), cluster.meta)
