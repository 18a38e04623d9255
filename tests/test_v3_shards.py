"""The version-3 shard format is pinned by checked-in sets.

The sets under ``fixtures/v3`` were written by ``zigzag3 encode`` (see the
README there).  Encoding the same input now must write every shard and the
manifest byte for byte, decoding a set must give back its input, and
rebuilding any node must give back that node's shard with ``match``.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from zigzag3.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v3"
SETS = sorted(d.name for d in FIXTURES.iterdir() if d.is_dir())


def fixture_input(size: int) -> bytes:
    return hashlib.shake_256(b"zigzag3 v1 fixture %d" % size).digest(size)


def shard_set(name: str) -> tuple[int, int, Path]:
    k, size = name.removeprefix("k").split("_")
    return int(k), int(size), FIXTURES / name


def test_every_set_is_present():
    assert SETS == sorted(f"k{k}_{size}" for k in (2, 4, 8) for size in (0, 17, 5000))


@pytest.mark.parametrize("name", SETS)
def test_encode_writes_the_v3_set_byte_for_byte(name, tmp_path):
    k, size, directory = shard_set(name)
    source = tmp_path / "input.bin"
    source.write_bytes(fixture_input(size))
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", str(k), "--input", str(source), "--out-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in directory.iterdir())
    assert names == sorted(p.name for p in out_dir.iterdir())
    assert names == ["manifest.json"] + sorted(f"node_{i}.shard" for i in range(k + 2))
    for file_name in names:
        assert (out_dir / file_name).read_bytes() == (directory / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", SETS)
def test_v3_set_decodes_byte_identically(name, tmp_path, capsys):
    k, size, directory = shard_set(name)
    # Every set of k or more shards: each is unpacked into its row of one
    # stack, and the lost data rows are rebuilt there.
    for nodes in (c for count in (k, k + 1, k + 2) for c in itertools.combinations(range(k + 2), count)):
        out = tmp_path / "restored.bin"
        shards = [str(directory / f"node_{i}.shard") for i in nodes]
        assert main(["--format", "json", "decode", "--shards", *shards, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["shard_version"] == 3
        assert out.read_bytes() == fixture_input(size)


@pytest.mark.parametrize("name", SETS)
def test_v3_set_repairs_every_node_with_match(name, tmp_path, capsys):
    k, _, directory = shard_set(name)
    for node in range(k + 2):
        helpers = [str(directory / f"node_{i}.shard") for i in range(k + 2) if i != node]
        out_dir = tmp_path / f"node{node}"
        argv = ["--format", "json", "repair", "--shards", *helpers, "--rebuild", str(node),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["match"] is True and report["shard_version"] == 3
        rebuilt = (out_dir / f"node_{node}.shard").read_bytes()
        assert rebuilt == (directory / f"node_{node}.shard").read_bytes()
