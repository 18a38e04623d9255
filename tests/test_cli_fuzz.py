"""Fuzzing the shard loader through ``zigzag3 decode`` and ``repair``.

Small version-3 and version-4 sets at k = 2, 3 and 4 are copied with
drawn damage: header bytes set to drawn values, payloads cut short or
extended, a payload byte set to 243 or more (in a version-4 shard's group
region where it has one) or a padding trit set, each with the shard's CRC
recomputed, shards given twice, and shards taken from a set of another k
or of another stripe count.  Every run must either exit 0 with the
original bytes (or, for a repair, the original shard) or exit 3, 4 or 5
with nothing written, and never raise.
"""

import contextlib
import functools
import io
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from fixture_sets import word_layout_set  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zigzag3.cli import main  # noqa: E402

KS = (2, 3, 4)
SIZES = (40, 300)  # at every k in KS, two different stripe counts; 300 bytes are whole blocks and more


@functools.cache
def shard_set(k: int, size: int, version: int = 4) -> tuple[bytes, dict[str, bytes]]:
    """The input and the files (``node_i.shard`` and ``manifest.json``) of
    a set freshly encoded by ``zigzag3 encode``, or for version 3 as it
    wrote them."""
    data = np.random.default_rng(1000 * k + size).bytes(size)
    if version == 3:
        return data, word_layout_set(k, data, 3)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input.bin"
        source.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["encode", "--k", str(k), "--input", str(source), "--out-dir", tmp]) == 0
        files = {p.name: p.read_bytes() for p in Path(tmp).iterdir() if p.name != "input.bin"}
    return data, files


# (kind, which shard, argument, argument) of one piece of damage; the
# shard is counted modulo those chosen.
damage = st.one_of(
    st.tuples(st.just("header"), st.integers(0, 9), st.integers(0, 18), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 9), st.integers(1, 30), st.just(0)),
    st.tuples(st.just("extend"), st.integers(0, 9), st.integers(1, 30), st.integers(0, 255)),
    st.tuples(st.just("over-242"), st.integers(0, 9), st.integers(0, 2**16), st.integers(243, 255)),
    st.tuples(st.just("padding"), st.integers(0, 9), st.just(0), st.just(0)),
    st.tuples(st.sampled_from(["duplicate", "other-k", "other-stripes"]), st.integers(0, 9), st.just(0), st.just(0)),
)


def with_crc(blob: bytearray) -> None:
    blob[-4:] = zlib.crc32(bytes(blob[19:-4])).to_bytes(4, "little")


def damaged_set(k: int, size: int, version: int, nodes: list[int], damages) -> tuple[list[bytes], bool]:
    """The shards of ``nodes`` from the (k, size, version) set, with each
    drawn piece of damage done in turn: a header byte set, bytes cut from
    the end or appended, a payload byte set to 243 or more or a padding
    trit set (each with the CRC recomputed), a shard given twice, or a
    shard swapped for the same node's from the set of the next k or of the
    other size.  Also whether the shards differ from the set's."""
    ids = list(nodes)
    blobs = [bytearray(shard_set(k, size, version)[1][f"node_{node}.shard"]) for node in ids]
    intact = [bytes(b) for b in blobs]
    for kind, which, arg, value in damages:
        i = which % len(blobs)
        if kind == "header" and arg < len(blobs[i]):
            blobs[i][arg] = value
        elif kind == "truncate":
            del blobs[i][-arg:]
        elif kind == "extend":
            blobs[i] += bytes([value]) * arg
        elif kind == "over-242" and len(blobs[i]) > 23:
            # version 4's group region: 8 bytes per row of each whole block
            stripes, n = int.from_bytes(blobs[i][7:11], "little"), 1 << (k - 1)
            region = 8 * (stripes // 41) * n if version == 4 else 0
            blobs[i][19 + arg % min(region or len(blobs[i]), len(blobs[i]) - 23)] = value
            with_crc(blobs[i])
        elif kind == "padding" and len(blobs[i]) > 23 and blobs[i][-5] % 3 == 0:
            # a trit count not a multiple of 5 pads the last byte's place-1 digit
            if int.from_bytes(blobs[i][11:19], "little") % 5:
                blobs[i][-5] += 1
                with_crc(blobs[i])
        elif kind == "duplicate":
            ids.append(ids[i])
            blobs.append(bytearray(blobs[i]))
        else:
            other_k = KS[(KS.index(k) + 1) % len(KS)] if kind == "other-k" else k
            other_size = SIZES[1 - SIZES.index(size)] if kind == "other-stripes" else size
            node = ids[i] % (other_k + 2)
            blobs[i] = bytearray(shard_set(other_k, other_size, version)[1][f"node_{node}.shard"])
    blobs = [bytes(b) for b in blobs]
    return blobs, blobs != intact


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=80, deadline=None, database=None)
@given(
    k=st.sampled_from(KS),
    size=st.sampled_from(SIZES),
    version=st.sampled_from([3, 4]),
    order=st.permutations(range(6)),
    spare=st.integers(-1, 2),
    damages=st.lists(damage, max_size=2),
    repair=st.booleans(),
)
def test_damaged_shard_sets_decode_right_or_exit_cleanly(k, size, version, order, spare, damages, repair):
    # ``spare`` shards beyond k are given (k - 1 to k + 2 in all), in the
    # drawn order; a repair rebuilds the first node left out, or node 0.
    # Intact, a decode exits 0 from k shards or more and 3 from fewer, and
    # a repair 0 from k + 1, 3 from fewer and 5 when node 0 was given.
    # Damaged, any shard makes a decode exit 4, since every shard is
    # checked before the shard count, and a repair fail with 3, 4 or 5.
    data, files = shard_set(k, size, version)
    order = [node for node in order if node < k + 2]
    nodes = order[: k + spare]
    rebuild = order[k + spare] if k + spare < k + 2 else 0
    blobs, damaged = damaged_set(k, size, version, nodes, damages)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "manifest.json").write_bytes(files["manifest.json"])
        paths = []
        for i, blob in enumerate(blobs):
            path = tmp / f"shard_{i}.bin"
            path.write_bytes(blob)
            paths.append(str(path))
        if repair:
            out = tmp / "rebuilt"
            code = run(["repair", "--shards", *paths, "--rebuild", str(rebuild), "--out-dir", str(out)])
            if damaged:
                assert code in (3, 4, 5), code
            else:
                assert code == {k - 1: 3, k: 3, k + 1: 0, k + 2: 5}[len(nodes)], code
            if code == 0:
                assert (out / f"node_{rebuild}.shard").read_bytes() == files[f"node_{rebuild}.shard"]
        else:
            out = tmp / "restored.bin"
            code = run(["decode", "--shards", *paths, "--out", str(out)])
            assert code == (4 if damaged else 3 if len(nodes) < k else 0), code
            if code == 0:
                assert out.read_bytes() == data
        if code:
            assert not out.exists()
