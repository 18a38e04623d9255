"""The pinned shard sets under ``tests/fixtures``: their inputs, their
names, and sets built the way each shard version wrote them.

Every set ``v<version>/k<k>_<size>`` holds the shards and the manifest of
``fixture_input(size)`` at that k.  Run as a script from the repository
root, this module writes the sets of the version ``zigzag3 encode`` writes
now, with that command:

    PYTHONPATH=src python tests/fixture_sets.py

It overwrites the files of ``tests/fixtures/v<SHARD_VERSION>``; the tests
of that version then check that encode still writes them byte for byte.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import zlib
from pathlib import Path

from layout_oracle import stream_to_parts, word_stream, words_of

from zigzag3.cli import main
from zigzag3.cluster import SHARD_VERSION, shard_to_bytes
from zigzag3.code import CodeParams, build_coding_matrices, encode_parts_array

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The k x size grid of the version-2, 3 and 4 sets.  At k = 8 none of its
# sizes fills a whole block of kN words, so the current version also pins
# a 20,000-byte set, two whole blocks and a partial one.
GRID = [f"k{k}_{size}" for k in (2, 4, 8) for size in (0, 17, 5000)]
CURRENT_SETS = sorted([*GRID, "k8_20000"])


def fixture_input(size: int) -> bytes:
    """The input of every pinned set of ``size`` bytes."""
    return hashlib.shake_256(b"zigzag3 v1 fixture %d" % size).digest(size)


def shard_set(version: int, name: str) -> tuple[int, int, Path]:
    """(k, size, directory) of the pinned set ``name`` of ``version``."""
    k, size = name.removeprefix("k").split("_")
    return int(k), int(size), FIXTURES / f"v{version}" / name


def word_layout_set(k: int, data: bytes, version: int) -> dict[str, bytes]:
    """The files (``node_i.shard`` and ``manifest.json``, as bytes) that
    ``zigzag3 encode`` wrote for ``data`` while it wrote shard ``version``
    2 or 3: the parts laid out by ``layout_oracle.word_stream``, their
    parities, each shard packed by the program's packer for ``version``."""
    params = CodeParams(k)
    stream = word_stream(params, words_of(data))
    shards = encode_parts_array(params, build_coding_matrices(params), stream_to_parts(params, stream))
    files = {f"node_{node}.shard": shard_to_bytes(params, node, shards[node], version=version)
             for node in range(k + 2)}
    manifest = {
        "k": k,
        "stripes": len(stream) // params.file_symbols,
        "original_len": len(data),
        "shard_version": version,
        "file_crc32": zlib.crc32(data),
        "shard_crc": [int.from_bytes(files[f"node_{node}.shard"][-4:], "little") for node in range(k + 2)],
    }
    files["manifest.json"] = (json.dumps(manifest, indent=2) + "\n").encode()
    return files


def encode_set(name: str, out_dir: Path) -> None:
    """Write the set ``name`` into ``out_dir`` with ``zigzag3 encode``."""
    k, size = name.removeprefix("k").split("_")
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input.bin"
        source.write_bytes(fixture_input(int(size)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["encode", "--k", k, "--input", str(source), "--out-dir", str(out_dir)]) == 0


if __name__ == "__main__":
    for set_name in CURRENT_SETS:
        encode_set(set_name, FIXTURES / f"v{SHARD_VERSION}" / set_name)
        print(f"wrote {FIXTURES.name}/v{SHARD_VERSION}/{set_name}")
