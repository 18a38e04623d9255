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
    verify_mds,
)
from .gf3 import SignedPermutation
from .repair import (
    FIRST_PARITY,
    SECOND_PARITY,
    brute_force_min_io,
    build_repair_pair,
    execute_repair,
    io_lower_bound,
    plan_repair,
    verify_duality,
    verify_repair_conditions,
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
    "verify_mds",
    "FIRST_PARITY",
    "SECOND_PARITY",
    "build_repair_pair",
    "verify_repair_conditions",
    "verify_duality",
    "plan_repair",
    "execute_repair",
    "io_lower_bound",
    "brute_force_min_io",
    "ClusterState",
    "ingest",
    "extract",
    "__version__",
]
