"""The version-3 shard format is pinned by checked-in sets.

The sets under ``fixtures/v3`` were written by ``zigzag3 encode`` while it
wrote version 3 (see the README there).  ``zigzag3 repair`` still writes
version 3 for a version-3 set, so the version-3 packer must still write
every shard of a set byte for byte from the encoded input; decoding a set
must give back its input, and rebuilding any node must give back that
node's shard with ``match``.
"""

import itertools
import json

import pytest
from fixture_sets import FIXTURES, GRID, fixture_input, shard_set, word_layout_set

from zigzag3.cli import main

SETS = sorted(d.name for d in (FIXTURES / "v3").iterdir() if d.is_dir())


def test_every_set_is_present():
    assert SETS == sorted(GRID)


@pytest.mark.parametrize("name", SETS)
def test_encode_writes_the_v3_set_byte_for_byte(name):
    # ``zigzag3 encode`` writes version 4; the input's parts and parities,
    # in the version-2 word layout and packed as version 3, must be the
    # set's shards, and the manifest must list their CRCs.
    k, size, directory = shard_set(3, name)
    files = word_layout_set(k, fixture_input(size), 3)
    assert sorted(p.name for p in directory.iterdir()) == sorted(files)
    for file_name, blob in files.items():
        assert blob == (directory / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", SETS)
def test_v3_set_decodes_byte_identically(name, tmp_path, capsys):
    k, size, directory = shard_set(3, name)
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
    k, _, directory = shard_set(3, name)
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
