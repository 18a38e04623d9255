"""The version-4 shard format is pinned by checked-in sets.

The sets under ``fixtures/v4`` were written by ``zigzag3 encode`` (see the
README there).  Encoding the same input now must write every shard and the
manifest byte for byte, decoding a set must give back its input, and
rebuilding any node must give back that node's shard with ``match``.
"""

import itertools
import json
from pathlib import Path

import pytest
from fixture_sets import CURRENT_SETS, FIXTURES, encode_set, fixture_input, shard_set

from zigzag3.cluster import SHARD_VERSION
from zigzag3.cli import main

SETS = sorted(d.name for d in (FIXTURES / "v4").iterdir() if d.is_dir())


def test_every_set_is_present():
    assert SHARD_VERSION == 4 and SETS == CURRENT_SETS


@pytest.mark.parametrize("name", SETS)
def test_encode_writes_the_v4_set_byte_for_byte(name, tmp_path):
    k, _, directory = shard_set(4, name)
    out_dir = tmp_path / "shards"
    encode_set(name, out_dir)
    names = sorted(p.name for p in directory.iterdir())
    assert names == sorted(p.name for p in out_dir.iterdir())
    assert names == ["manifest.json"] + sorted(f"node_{i}.shard" for i in range(k + 2))
    for file_name in names:
        assert (out_dir / file_name).read_bytes() == (directory / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", [n for n in SETS if n.startswith("k8_") and n != "k8_20000"])
def test_a_set_without_a_whole_block_is_its_v3_set_relabelled(name):
    # Below one block of kN words, version 4 lays out and packs the stripes
    # as version 3 does; only the version byte and the manifest differ.
    k, _, directory = shard_set(4, name)
    for node in range(k + 2):
        blob = (directory / f"node_{node}.shard").read_bytes()
        old = (shard_set(3, name)[2] / f"node_{node}.shard").read_bytes()
        assert blob[4] == 4 and blob == old[:4] + bytes([4]) + old[5:]


@pytest.mark.parametrize("name", SETS)
def test_v4_set_decodes_byte_identically(name, tmp_path, capsys):
    k, size, directory = shard_set(4, name)
    # Every set of k or more shards.  From exactly the data shards, the
    # words are recombined from their packed bytes.
    for nodes in (c for count in (k, k + 1, k + 2) for c in itertools.combinations(range(k + 2), count)):
        out = tmp_path / "restored.bin"
        shards = [str(directory / f"node_{i}.shard") for i in nodes]
        assert main(["--format", "json", "decode", "--shards", *shards, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["shard_version"] == 4
        assert out.read_bytes() == fixture_input(size)


@pytest.mark.parametrize("name", SETS)
def test_v4_set_repairs_every_node_with_match(name, tmp_path, capsys):
    k, _, directory = shard_set(4, name)
    for node in range(k + 2):
        helpers = [str(directory / f"node_{i}.shard") for i in range(k + 2) if i != node]
        out_dir = tmp_path / f"node{node}"
        argv = ["--format", "json", "repair", "--shards", *helpers, "--rebuild", str(node),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["match"] is True and report["shard_version"] == 4
        rebuilt = (out_dir / f"node_{node}.shard").read_bytes()
        assert rebuilt == (directory / f"node_{node}.shard").read_bytes()
