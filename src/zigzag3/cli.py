"""Command-line surface: encode, decode, repair, verify, bound, bruteforce.

Exit codes are a scriptable contract:
  0  success
  2  verification failure
  3  insufficient data
  4  format or CRC error
  5  invalid parameters, or a path that cannot be read or written

Reports print as human text by default; ``--format json`` switches the
whole output to a single stable-ordered JSON document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .code import (
    CodeParams,
    InconsistentShardsError,
    InsufficientShardsError,
    build_coding_matrices,
    decode_shards_array,
)
from .cluster import (
    SHARD_VERSION,
    CorruptDataError,
    FileMeta,
    ShardFormatError,
    byte_capacity,
    encode_file,
    extract_array,
    repair_lost_node,
    shard_from_bytes,
    shard_header,
    shard_to_bytes,
    unpack_groups,
    write_shard_file,
)
from .repair import repair_bandwidth

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INSUFFICIENT = 3
EXIT_FORMAT = 4
EXIT_PARAMS = 5

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class Config:
    """Run-wide knobs shared by every command."""

    report_format: str = "text"
    seed: int = 0
    verbose: bool = False


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the params code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARAMS, f"{self.prog}: error: {message}\n")


def _emit(cfg: Config, payload: dict, text_lines: list[str]) -> None:
    if cfg.report_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _shard_name(node_id: int) -> str:
    return f"node_{node_id}.shard"


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def cmd_encode(cfg: Config, args) -> int:
    """Encode a file into k+2 shard files and a manifest.

    The JSON report's ``stage_seconds`` times each stage of the encode:
    ``read`` (the file and its CRC), ``ingest`` and ``parities``
    (``EncodedFile.stage_seconds``), ``pack`` (the shards' packed tails
    and CRCs) and ``write`` (the shard files and the manifest).
    """
    try:
        params = CodeParams(args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    start = time.perf_counter()
    data = Path(args.input).read_bytes()
    file_crc = zlib.crc32(data)
    read_s = time.perf_counter() - start
    # The file's bytes are released once the data shards' groups hold them.
    encoded = encode_file(params, data)
    del data
    meta = encoded.meta
    start = time.perf_counter()
    shards = encoded.shards()
    packed = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for node, (pieces, _) in enumerate(shards):
        write_shard_file(out_dir / _shard_name(node), pieces)
    manifest = {
        "k": params.k,
        "stripes": meta.stripe_count,
        "original_len": meta.original_len,
        "shard_version": SHARD_VERSION,
        "file_crc32": file_crc,
        "shard_crc": [crc for _, crc in shards],
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    stage_seconds = {"read": read_s, **encoded.stage_seconds, "pack": packed - start,
                     "write": time.perf_counter() - packed}
    _emit(
        cfg,
        {"command": "encode", **manifest, "out_dir": str(out_dir), "stage_seconds": stage_seconds},
        [
            f"encoded {meta.original_len} bytes at k={params.k}: "
            f"{meta.stripe_count} stripe(s), {params.n_nodes} shards in {out_dir}",
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _load_shards(
    paths, *, keep_packed: bool = False
) -> tuple[CodeParams, int, int, np.ndarray, dict[int, int], dict[int, memoryview]]:
    """Read shard files that share k, stripe count and shard version into
    one (k+2, stripes, N) stack, allocated once the first header checks:
    each shard is unpacked into its node's row, and the rows of nodes not
    read are never written.  A shard whose k, stripe count or version
    differs from the first's, or whose node was read already, raises
    ``ShardFormatError`` before its payload is unpacked.

    Every shard is checked whole as it is read, but version-4 group
    regions are unpacked only once all shards have passed, and not at all
    when ``keep_packed`` is set and the shards are exactly the k data
    shards: a decode then recombines their words from the packed bytes.
    Returns (params, stripes, version, stack, stored CRCs by node in the
    order read, the data shards' packed payloads by node)."""
    crcs: dict[int, int] = {}
    payloads = {}
    stack = None
    for p in paths:
        blob = Path(p).read_bytes()
        head = shard_header(blob)
        if stack is None:
            params, stripes, version = head.params, head.stripes, head.version
            stack = np.empty((params.n_nodes, stripes, params.n_rows), dtype=np.uint8)
        elif head.params != params or head.stripes != stripes:
            raise ShardFormatError(
                f"mixed manifests: {p} has k={head.params.k}, stripes={head.stripes}, "
                f"expected k={params.k}, stripes={stripes}"
            )
        elif head.version != version:
            raise ShardFormatError(f"mixed shard versions: {p} has version {head.version}, expected {version}")
        if head.node_id in crcs:
            raise ShardFormatError(f"duplicate shard for node {head.node_id}")
        payloads[head.node_id] = shard_from_bytes(blob, stack[head.node_id], head)
        crcs[head.node_id] = int.from_bytes(blob[-4:], "little")
    if version == 4 and not (keep_packed and sorted(crcs) == list(range(params.k))):
        for node, payload in payloads.items():
            unpack_groups(payload, stack[node])
    return params, stripes, version, stack, crcs, {j: p for j, p in payloads.items() if j < params.k}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load_manifest(args, shard_paths, version: int) -> dict:
    """Read the manifest and check its fields.

    ``k``, ``stripes``, ``original_len`` and, if present, ``shard_version``
    (equal to ``version``) and ``file_crc32`` must be integers (not
    booleans), ``original_len`` must fit in ``stripes`` stripes of the
    shard ``version``'s byte layout, and ``shard_crc`` must be a list of
    k+2 integers; anything else raises ``ShardFormatError``.
    """
    if getattr(args, "manifest", None):
        path = Path(args.manifest)
    else:
        path = Path(shard_paths[0]).parent / MANIFEST_NAME
    if not path.exists():
        raise ShardFormatError(f"manifest not found at {path} (pass --manifest)")
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShardFormatError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ShardFormatError(f"manifest {path} is not a JSON object")
    for key in ("k", "stripes", "original_len", "shard_crc"):
        if key not in manifest:
            raise ShardFormatError(f"manifest {path} lacks field {key!r}")
    for key in ("k", "stripes", "original_len", "shard_version", "file_crc32"):
        if key in manifest and not _is_int(manifest[key]):
            raise ShardFormatError(f"manifest {path}: {key} must be an integer, got {manifest[key]!r}")
    if manifest.get("shard_version", version) != version:
        raise ShardFormatError(f"manifest {path}: shard version {manifest['shard_version']}, shards {version}")
    try:
        params = CodeParams(manifest["k"])
    except ValueError as exc:
        raise ShardFormatError(f"manifest {path}: {exc}") from None
    stripes, original_len = manifest["stripes"], manifest["original_len"]
    if stripes < 1:
        raise ShardFormatError(f"manifest {path}: stripes must be at least 1, got {stripes}")
    capacity = byte_capacity(params, stripes, version)
    if not 0 <= original_len <= capacity:
        raise ShardFormatError(
            f"manifest {path}: original_len {original_len} is outside [0, {capacity}], "
            f"the bytes {stripes} stripe(s) hold at k={params.k}"
        )
    crcs = manifest["shard_crc"]
    if not (isinstance(crcs, list) and len(crcs) == params.n_nodes and all(map(_is_int, crcs))):
        raise ShardFormatError(
            f"manifest {path}: shard_crc must be a list of {params.n_nodes} integers, got {crcs!r}"
        )
    return manifest


def _check_against_manifest(
    manifest: dict, params: CodeParams, stripes: int, crcs: dict[int, int]
) -> None:
    """Shards must share the manifest's k and stripe count, and each
    shard's CRC must equal the manifest's entry for its node; anything
    else raises ``ShardFormatError``."""
    if manifest["k"] != params.k or manifest["stripes"] != stripes:
        raise ShardFormatError(
            f"mixed manifests: shards say k={params.k}/stripes={stripes}, "
            f"manifest says k={manifest['k']}/stripes={manifest['stripes']}"
        )
    for node, crc in crcs.items():
        if crc != manifest["shard_crc"][node]:
            raise ShardFormatError(f"shard for node {node} does not match the manifest CRC")


def cmd_decode(cfg: Config, args) -> int:
    params, stripes, version, stack, crcs, packed = _load_shards(args.shards, keep_packed=True)
    manifest = _load_manifest(args, args.shards, version)
    _check_against_manifest(manifest, params, stripes, crcs)
    if len(crcs) < params.k:
        raise InsufficientShardsError(
            f"got {len(crcs)} shards, need at least {params.k}"
        )
    cm = build_coding_matrices(params)
    used = sorted(crcs)
    # The parts are the stack's first k rows: decode writes the lost ones
    # in place, and extract reads them there, and the present ones' words
    # from their packed bytes.
    parts = decode_shards_array(params, cm, stack, used)
    meta = FileMeta(manifest["original_len"], stripes, version)
    data = extract_array(params, parts, meta, packed)
    # As in encode: the shards go before the bytes are checked and written.
    del stack, parts, packed
    if "file_crc32" in manifest and zlib.crc32(data) != manifest["file_crc32"]:
        raise ShardFormatError("the decoded bytes do not match the manifest's file_crc32")
    Path(args.out).write_bytes(data)
    _emit(
        cfg,
        {
            "command": "decode",
            "k": params.k,
            "shard_version": version,
            "shards_used": used,
            "bytes": len(data),
            "out": str(args.out),
        },
        [f"decoded {len(data)} bytes from shards {used} -> {args.out}"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def cmd_repair(cfg: Config, args) -> int:
    """Rebuild one node from the other k+1 shards.

    Every helper must match the CRC that the manifest beside the first
    shard lists for its node, and so must the rebuilt shard before it is
    written; a mismatch is a format error and writes nothing.  The rebuilt
    shard takes its helpers' shard version.
    """
    params, stripes, version, stack, crcs, _ = _load_shards(args.shards)
    payloads = {node: stack[node] for node in crcs}
    rebuild = args.rebuild
    if not 0 <= rebuild < params.n_nodes:
        print(f"error: node {rebuild} out of range for k={params.k}", file=sys.stderr)
        return EXIT_PARAMS
    missing = sorted(set(range(params.n_nodes)) - set(payloads))
    if rebuild not in missing:
        print(f"error: node {rebuild} was supplied; nothing to rebuild", file=sys.stderr)
        return EXIT_PARAMS
    if len(payloads) < params.n_nodes - 1:
        raise InsufficientShardsError(
            f"repair needs {params.n_nodes - 1} shards (exactly one missing node), "
            f"got {len(payloads)}; missing {missing}"
        )

    manifest = _load_manifest(args, args.shards, version)
    _check_against_manifest(manifest, params, stripes, crcs)

    cm = build_coding_matrices(params)
    restored, report = repair_lost_node(params, cm, payloads, rebuild)
    blob = shard_to_bytes(params, rebuild, restored, version=version)
    if int.from_bytes(blob[-4:], "little") != manifest["shard_crc"][rebuild]:
        raise ShardFormatError(f"rebuilt node {rebuild} does not match the manifest CRC")
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.shards[0]).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / _shard_name(rebuild)
    out_path.write_bytes(blob)

    payload = {
        "command": "repair",
        "node": rebuild,
        "shard_version": version,
        "method": report.method,
        "stripes": stripes,
        "reads_per_node": {str(h): c for h, c in sorted(report.reads_per_node.items())},
        "total_reads": report.total_reads,
        "total_sent": report.total_sent,
        "expected_reads": report.expected_reads,
        "match": report.matches_expectation,
        "stage_seconds": report.stage_seconds,
        "out": str(out_path),
    }
    lines = [
        f"rebuilt node {rebuild} via {report.method} -> {out_path}",
        f"reads={report.total_reads} expected={report.expected_reads} "
        f"({report.expected_reads // stripes}/stripe), "
        f"{'MATCH' if report.matches_expectation else 'MISMATCH'}",
        f"per-node reads: {dict(sorted(report.reads_per_node.items()))}",
        f"transferred={report.total_sent} symbols ({report.total_sent // stripes}/stripe)",
    ]
    _emit(cfg, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / bound / bruteforce
# ---------------------------------------------------------------------------


def _parse_k_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    k = int(text)
    return range(k, k + 1)


def cmd_verify(cfg: Config, args) -> int:
    try:
        ks = _parse_k_range(args.k_range)
        if len(ks) == 0 or ks[0] < 2:
            raise ValueError(f"bad k range {args.k_range!r}: need 2 <= a <= b")
        for k in ks:
            CodeParams(k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    if args.trials < 1:
        print(f"error: --trials must be at least 1, got {args.trials}", file=sys.stderr)
        return EXIT_PARAMS
    from .verification import flip_one_sign, run_sweep  # certificates load only for the commands that run them
    hook = flip_one_sign if args.inject_fault else None
    report = run_sweep(ks, trials=args.trials, seed=cfg.seed, fault_hook=hook)
    lines = [
        f"k={c.k:2d} {c.name:28s} {'PASS' if c.passed else 'FAIL'}"
        + (f" {c.seconds:9.4f}s" if cfg.verbose else "")
        + (f"  {c.detail}" if (not c.passed or cfg.verbose) and c.detail else "")
        for c in report.checks
    ]
    lines.append(
        f"{'all checks passed' if report.passed else f'{len(report.failures)} check(s) FAILED'}"
        f" over k={ks[0]}..{ks[-1]}"
    )
    _emit(cfg, {"command": "verify", **report.to_dict()}, lines)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_bound(cfg: Config, args) -> int:
    from .verification import io_lower_bound  # certificates load only for the commands that run them
    try:
        params = CodeParams(args.k)
        report = io_lower_bound(args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    payload = {
        "command": "bound",
        "k": report.k,
        "N": report.n_rows,
        "achieved_io": report.achieved_io,
        "lower_bound": str(report.lower_bound),
        "lower_bound_ceil": report.lower_bound_ceil,
        "displayed_bound": str(report.displayed_bound),
        "clamped": report.clamped,
        "gap": str(report.gap),
        "per_matrix_floor": str(report.per_matrix_floor),
        "bandwidth": repair_bandwidth(params),
    }
    lines = [
        f"k={report.k}, N={report.n_rows}: repair reads {report.achieved_io} symbols per stripe",
        f"lower bound {report.lower_bound} (ceil {report.lower_bound_ceil}), gap {report.gap}",
        f"per-matrix nonzero-column floor: {report.per_matrix_floor}",
        f"repair bandwidth: {payload['bandwidth']} symbols per stripe",
    ]
    if report.clamped:
        lines.append(
            f"note: negative correction term clamped; displayed bound {report.displayed_bound}"
        )
    _emit(cfg, payload, lines)
    return EXIT_OK


def cmd_bruteforce(cfg: Config, args) -> int:
    from .verification import brute_force_min_io  # certificates load only for the commands that run them
    try:
        result = brute_force_min_io(args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    payload = {
        "command": "bruteforce",
        "k": result.k,
        "min_io": result.min_io,
        "lower_bound_ceil": result.lower_bound_ceil,
        "construction_io": result.construction_io,
        "valid_pairs": result.valid_pairs,
        "witness_s": result.witness.s.array.tolist(),
        "witness_s_tilde": result.witness.s_tilde.array.tolist(),
    }
    lines = [
        f"k={result.k}: exhaustive minimum repair I/O = {result.min_io} "
        f"over {result.valid_pairs} canonical valid pairs",
        f"rational floor (ceil): {result.lower_bound_ceil}; construction: {result.construction_io}",
        f"witness systematic-side matrix: {result.witness.s.array.tolist()}",
        f"witness parity-side matrix:     {result.witness.s_tilde.array.tolist()}",
    ]
    _emit(cfg, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    keeps nothing between calls, so every ``main`` call can share it."""
    parser = _Parser(prog="zigzag3", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for randomized checks")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="split a file into k+2 shard files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="rebuild the file from any k shards")
    p.add_argument("--shards", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="defaults to manifest.json beside the first shard")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("repair", help="rebuild one missing node from k+1 shards")
    p.add_argument("--shards", nargs="+", required=True)
    p.add_argument("--rebuild", type=int, required=True)
    p.add_argument("--out-dir", help="defaults to the first shard's directory")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("verify", help="run the full condition sweep")
    p.add_argument("--k-range", required=True, help="e.g. 2..8 or a single k")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="report the repair disk-I/O lower bound")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bruteforce", help="exhaustive minimum repair I/O (k <= 3)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_bruteforce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = Config(report_format=args.format, seed=args.seed, verbose=args.verbose)
    try:
        return args.func(cfg, args)
    except InsufficientShardsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (ShardFormatError, CorruptDataError, InconsistentShardsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
