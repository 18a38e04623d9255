"""``zigzag3 encode``: shards written straight from ingest's groups.

Encode never builds the parts array, so these tests hold it to the path
that does: every shard file must equal ``shard_to_bytes`` of
``encode_parts_array(ingest(data))``.  Its parity kernel is checked
against the per-row rule and a plain row sum, on the paper's coding set
and on a faulted one, and its memory and stage timings are pinned.
"""

import json
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from zigzag3 import cluster
from zigzag3.cli import main
from zigzag3.cluster import ingest, shard_to_bytes, write_shard_file
from zigzag3.code import (
    CodeParams,
    _encode_parities,
    build_coding_matrices,
    encode_parts_array,
    second_parity_by_matrices,
)
from zigzag3.verification import flip_one_sign, second_parity_by_rows


def block_bytes(k: int) -> int:
    """Bytes of one whole block of kN words."""
    return 8 * CodeParams(k).file_symbols


def sizes(k: int) -> list[int]:
    whole = [count * block_bytes(k) + d for count in (1, 3) for d in (-1, 1)]
    return [0, 1, 17, 5000, 300_001, *whole]


IDENTITY_CASES = [(k, size) for k in (*range(2, 9), 11, 16) for size in sizes(k)]


def encode(tmp_path, k: int, data: bytes, *extra: str):
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main([*extra, "encode", "--k", str(k), "--input", str(source), "--out-dir", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("k,size", IDENTITY_CASES, ids=[f"k{k}-{size}" for k, size in IDENTITY_CASES])
def test_encode_writes_the_shards_of_the_parts_path(k, size, tmp_path):
    data = np.random.default_rng(size * 17 + k).bytes(size)
    out_dir = encode(tmp_path, k, data)
    params = CodeParams(k)
    parts, meta = ingest(params, data)
    shards = encode_parts_array(params, build_coding_matrices(params), parts)
    del parts
    crcs = []
    for node in range(k + 2):
        want = shard_to_bytes(params, node, shards[node])
        assert (out_dir / f"node_{node}.shard").read_bytes() == want, node
        crcs.append(int.from_bytes(want[-4:], "little"))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest == {"k": k, "stripes": meta.stripe_count, "original_len": size, "shard_version": 4,
                        "file_crc32": zlib.crc32(data), "shard_crc": crcs}


def plain_zigzag(cm, parts: np.ndarray) -> np.ndarray:
    """sum_j sign_j[r] * parts[j][..., target_j[r]] mod 3 in int64, for
    any signed permutations."""
    acc = np.zeros(parts.shape[1:], dtype=np.int64)
    for j, m in enumerate(cm.matrices):
        acc += m.sign * parts[j][..., m.target].astype(np.int64)
    return (acc % 3).astype(np.uint8)


@pytest.mark.parametrize("k", range(2, 10))
def test_the_parity_kernel_matches_the_row_rule_and_a_plain_row_sum(k):
    params = CodeParams(k)
    cm = build_coding_matrices(params)
    rng = np.random.default_rng(300 + k)
    parts = rng.integers(0, 3, size=(k, 5, 7, params.n_rows), dtype=np.uint8)
    parities = _encode_parities(cm, parts)
    assert np.array_equal(parities[0], parts.sum(axis=0) % 3)
    assert np.array_equal(parities[1], second_parity_by_rows(params, parts))
    assert np.array_equal(parities[1], plain_zigzag(cm, parts))
    # Parts of any integer dtype are taken mod 3 before the kernel.
    wide = parts.astype(np.int64) + 3 * rng.integers(-40, 40, size=parts.shape)
    assert np.array_equal(second_parity_by_matrices(cm, wide), parities[1])
    # A non-paper set: the sign flipped on one row of A_1 moves the
    # kernel's XOR 3 negation onto another row, and the kernel follows it.
    bad = flip_one_sign(cm)
    faulted = _encode_parities(bad, parts)
    assert np.array_equal(faulted[0], parities[0])
    assert np.array_equal(faulted[1], plain_zigzag(bad, parts))
    assert not np.array_equal(faulted[1], parities[1])


def test_a_k8_encode_peaks_under_ten_shards(tmp_path, capsys):
    # The twin of the lost0 decode's memory test: a k = 8 encode of 512 KiB
    # holds the file's bytes, every shard's group region and tail, and one
    # run's digits and temporaries, never a (k, stripes, N) parts array.
    # The encode runs once first, so only the traced call's arrays count.
    k, size = 8, 512 * 1024
    data = np.random.default_rng(88).bytes(size)
    out_dir = encode(tmp_path, k, data)
    argv = ["encode", "--k", str(k), "--input", str(tmp_path / "input.bin"), "--out-dir", str(out_dir)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stripes = json.loads((out_dir / "manifest.json").read_text())["stripes"]
    one_shard = stripes * CodeParams(k).n_rows
    assert peak < 10 * one_shard, (peak, one_shard)


def test_encode_reports_stages_that_add_up_to_its_wall_time(tmp_path, capsys):
    data = np.random.default_rng(5).bytes(4 << 20)
    encode(tmp_path, 8, data)
    capsys.readouterr()
    start = time.perf_counter()
    encode(tmp_path, 8, data, "--format", "json")
    wall = time.perf_counter() - start
    stages = json.loads(capsys.readouterr().out)["stage_seconds"]
    assert list(stages) == ["read", "ingest", "parities", "pack", "write"]
    assert all(seconds > 0 for seconds in stages.values())
    assert 0.9 * wall <= sum(stages.values()) <= wall, (stages, wall)


def test_a_text_encode_reports_no_stages(tmp_path, capsys):
    encode(tmp_path, 4, b"abc")
    out = capsys.readouterr().out
    assert out.startswith("encoded 3 bytes at k=4: 2 stripe(s), 6 shards in ") and "stage" not in out


def test_write_shard_file_finishes_short_writes(tmp_path, monkeypatch):
    # A gathering write may write less than asked; the rest is written
    # by the next, from where the last one stopped.
    writev = cluster.os.writev
    calls = []

    def short(fd, buffers):
        calls.append(len(buffers))
        return writev(fd, [bytes(buffers[0][:7])])

    monkeypatch.setattr(cluster.os, "writev", short)
    pieces = [b"head", np.arange(20, dtype=np.uint8), b"", np.zeros(0, dtype=np.uint8), b"crc!"]
    path = tmp_path / "node_0.shard"
    write_shard_file(path, pieces)
    assert path.read_bytes() == b"head" + bytes(range(20)) + b"crc!"
    assert len(calls) > 3
