"""Shard sets written in version 1 still decode and repair.

The sets under ``fixtures/v1`` were written by ``zigzag3 encode`` when it
still wrote version 1 (see the README there): decoding one must give back
its input byte for byte, and rebuilding any node must give back that
node's shard, version byte included, with the repair reads the plan
expects.
"""

import itertools
import json

import pytest
from fixture_sets import FIXTURES, fixture_input, shard_set

from zigzag3.cli import main

SETS = sorted(d.name for d in (FIXTURES / "v1").iterdir() if d.is_dir())


def test_every_set_is_present():
    assert SETS == sorted(f"k{k}_{size}" for k in (2, 3, 4, 8) for size in (0, 1, 17, 1001, 5000))


@pytest.mark.parametrize("name", SETS)
def test_v1_set_decodes_byte_identically(name, tmp_path, capsys):
    k, size, directory = shard_set(1, name)
    # Every set of k or more shards: each is unpacked into its row of one
    # stack, and the lost data rows are rebuilt there.
    for nodes in (c for count in (k, k + 1, k + 2) for c in itertools.combinations(range(k + 2), count)):
        out = tmp_path / "restored.bin"
        shards = [str(directory / f"node_{i}.shard") for i in nodes]
        assert main(["--format", "json", "decode", "--shards", *shards, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["shard_version"] == 1
        assert out.read_bytes() == fixture_input(size)


@pytest.mark.parametrize("name", SETS)
def test_v1_set_repairs_every_node_with_match(name, tmp_path, capsys):
    k, _, directory = shard_set(1, name)
    for node in range(k + 2):
        helpers = [str(directory / f"node_{i}.shard") for i in range(k + 2) if i != node]
        out_dir = tmp_path / f"node{node}"
        argv = ["--format", "json", "repair", "--shards", *helpers, "--rebuild", str(node),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["match"] is True and report["shard_version"] == 1
        rebuilt = (out_dir / f"node_{node}.shard").read_bytes()
        assert rebuilt == (directory / f"node_{node}.shard").read_bytes()
