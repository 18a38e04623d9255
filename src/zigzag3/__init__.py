"""(k+2,k) zigzag MSR erasure code over GF(3).

Systematic MDS array code storing 2^(k-1) symbols per node, tolerating any
two node failures, with half-download repair of every node and exact
disk-I/O accounting.
"""

from .code import (
    CodeParams,
    CodingMatrixSet,
    build_coding_matrices,
    decode_shards_array,
    encode_parts_array,
)
from .gf3 import SignedPermutation
from .repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    execute_repair,
    plan_repair,
)
from .cluster import ClusterState, ingest, extract

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "CodingMatrixSet",
    "SignedPermutation",
    "build_coding_matrices",
    "encode_parts_array",
    "decode_shards_array",
    "FIRST_PARITY",
    "SECOND_PARITY",
    "plan_repair",
    "execute_repair",
    "ClusterState",
    "ingest",
    "extract",
    "__version__",
]
