"""The version-2 shard format is pinned by checked-in sets.

The sets under ``fixtures/v2`` were written by ``zigzag3 encode`` while it
wrote version 2 (see the README there).  ``zigzag3 repair`` still writes
version 2 for a version-2 set, so the version-2 packer must still write
every shard of a set byte for byte from the encoded input; decoding a set
must give back its input, and rebuilding any node must give back that
node's shard with ``match``.
"""

import hashlib
import itertools
import json
import zlib
from pathlib import Path

import pytest

from zigzag3.cli import main
from zigzag3.cluster import ingest, shard_to_bytes
from zigzag3.code import CodeParams, build_coding_matrices, encode_parts_array

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v2"
SETS = sorted(d.name for d in FIXTURES.iterdir() if d.is_dir())


def fixture_input(size: int) -> bytes:
    return hashlib.shake_256(b"zigzag3 v1 fixture %d" % size).digest(size)


def shard_set(name: str) -> tuple[int, int, Path]:
    k, size = name.removeprefix("k").split("_")
    return int(k), int(size), FIXTURES / name


def test_every_set_is_present():
    assert SETS == sorted(f"k{k}_{size}" for k in (2, 4, 8) for size in (0, 17, 5000))


@pytest.mark.parametrize("name", SETS)
def test_encode_writes_the_v2_set_byte_for_byte(name):
    # ``zigzag3 encode`` writes version 3; the input's parts and parities,
    # packed as version 2, must be the set's shards, and the manifest must
    # list their CRCs.
    k, size, directory = shard_set(name)
    params = CodeParams(k)
    data = fixture_input(size)
    parts, meta = ingest(params, data)
    shards = encode_parts_array(params, build_coding_matrices(params), parts)
    names = sorted(p.name for p in directory.iterdir())
    assert names == ["manifest.json"] + sorted(f"node_{i}.shard" for i in range(k + 2))
    crcs = []
    for node in range(k + 2):
        blob = shard_to_bytes(params, node, shards[node], version=2)
        assert blob == (directory / f"node_{node}.shard").read_bytes(), node
        crcs.append(int.from_bytes(blob[-4:], "little"))
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest == {"k": k, "stripes": meta.stripe_count, "original_len": size, "shard_version": 2,
                        "file_crc32": zlib.crc32(data), "shard_crc": crcs}


@pytest.mark.parametrize("name", SETS)
def test_v2_set_decodes_byte_identically(name, tmp_path, capsys):
    k, size, directory = shard_set(name)
    # Every set of k or more shards: each is unpacked into its row of one
    # stack, and the lost data rows are rebuilt there.
    for nodes in (c for count in (k, k + 1, k + 2) for c in itertools.combinations(range(k + 2), count)):
        out = tmp_path / "restored.bin"
        shards = [str(directory / f"node_{i}.shard") for i in nodes]
        assert main(["--format", "json", "decode", "--shards", *shards, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["shard_version"] == 2
        assert out.read_bytes() == fixture_input(size)


@pytest.mark.parametrize("name", SETS)
def test_v2_set_repairs_every_node_with_match(name, tmp_path, capsys):
    k, _, directory = shard_set(name)
    for node in range(k + 2):
        helpers = [str(directory / f"node_{i}.shard") for i in range(k + 2) if i != node]
        out_dir = tmp_path / f"node{node}"
        argv = ["--format", "json", "repair", "--shards", *helpers, "--rebuild", str(node),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["match"] is True and report["shard_version"] == 2
        rebuilt = (out_dir / f"node_{node}.shard").read_bytes()
        assert rebuilt == (directory / f"node_{node}.shard").read_bytes()
