"""Fuzzing the shard loader through ``zigzag3 decode`` and ``repair``.

Small version-3 and version-4 sets at k = 2, 3 and 4 are copied with
drawn damage: header bytes set to drawn values, payloads cut short or
extended, a payload byte set to 243 or more (in a version-4 shard's group
region where it has one) or a padding trit set, each with the shard's CRC
recomputed, shards given twice, and shards taken from a set of another k
or of another stripe count.  The manifest beside them may have one key
set to a drawn JSON value, moved with its value kept, or dropped.  Every
run must either exit 0 with the original bytes (or, for a repair, the
original shard) or exit 3, 4 or 5 with nothing written, and never raise.
"""

import contextlib
import functools
import io
import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from fixture_sets import word_layout_set  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zigzag3.cli import main  # noqa: E402
from zigzag3.cluster import byte_capacity  # noqa: E402
from zigzag3.code import CodeParams  # noqa: E402

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


MANIFEST_KEYS = ("k", "stripes", "original_len", "shard_version", "file_crc32", "shard_crc")
# Keys a manifest may leave out: decode and repair then go without them.
OPTIONAL_KEYS = ("shard_version", "file_crc32")

# (action, index into MANIFEST_KEYS, argument) of damage to one manifest
# key: set it to a drawn JSON value (another int, a negative, a bool, a
# string or a short list), set original_len past what the stripes hold
# by the argument, move the key to the end with its value kept, or drop
# it.
manifest_damage = st.one_of(
    st.tuples(
        st.just("set"),
        st.integers(0, len(MANIFEST_KEYS) - 1),
        st.one_of(
            st.integers(0, 2**33),
            st.integers(max_value=-1),
            st.booleans(),
            st.text(max_size=3),
            st.lists(st.integers(0, 2**32), max_size=3),
        ),
    ),
    st.tuples(st.just("past-capacity"), st.just(MANIFEST_KEYS.index("original_len")), st.integers(1, 2**16)),
    st.tuples(st.sampled_from(["keep", "drop"]), st.integers(0, len(MANIFEST_KEYS) - 1), st.just(0)),
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
        elif kind == "padding" and len(blobs[i]) > 23:
            # A trit count not a multiple of 5 pads the place-1 digit of the
            # last payload byte, byte 19 + ceil(trits / 5) - 1: the last
            # before the CRC while the shard keeps its length.
            trits = int.from_bytes(blobs[i][11:19], "little")
            last = 19 + -(-trits // 5) - 1
            if trits % 5 and last < len(blobs[i]) - 4 and blobs[i][last] < 243 and blobs[i][last] % 3 == 0:
                blobs[i][last] += 1
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


def damaged_manifest(k: int, size: int, version: int, damage) -> tuple[bytes, bool]:
    """The manifest of the (k, size, version) set with ``damage`` done to
    it (none if ``None``), and whether its meaning changed: a key's value
    differs as JSON, or a key that is not optional is gone."""
    text = shard_set(k, size, version)[1]["manifest.json"]
    if damage is None:
        return text, False
    original = json.loads(text)
    manifest = dict(original)
    action, which, value = damage
    name = MANIFEST_KEYS[which]
    if action == "set":
        manifest[name] = value
    elif action == "past-capacity":
        manifest[name] = byte_capacity(CodeParams(k), original["stripes"], version) + value
    elif action == "keep":
        manifest[name] = manifest.pop(name)
    else:
        del manifest[name]
    changed = any(
        json.dumps(manifest.get(key)) != json.dumps(original[key])
        and not (key in OPTIONAL_KEYS and key not in manifest)
        for key in MANIFEST_KEYS
    )
    return json.dumps(manifest).encode(), changed


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
    manifest=st.one_of(st.none(), manifest_damage),
    repair=st.booleans(),
)
# A padding trit set after an extend: the last payload byte is no longer
# the shard's fifth-last.
@example(k=2, size=40, version=3, order=list(range(6)), spare=0,
         damages=[("extend", 0, 5, 255), ("padding", 0, 0, 0)], manifest=None, repair=False)
def test_damaged_shard_sets_decode_right_or_exit_cleanly(k, size, version, order, spare, damages, manifest, repair):
    assert_right_or_clean_exit(k, size, version, order, spare, damages, manifest, repair)


@settings(max_examples=80, deadline=None, database=None)
@given(
    k=st.sampled_from(KS),
    size=st.sampled_from(SIZES),
    version=st.sampled_from([3, 4]),
    order=st.permutations(range(6)),
    spare=st.integers(0, 2),
    manifest=manifest_damage,
    repair=st.booleans(),
)
def test_damaged_manifests_decode_right_or_exit_cleanly(k, size, version, order, spare, manifest, repair):
    # Intact shards, enough for a decode, beside a damaged manifest.
    assert_right_or_clean_exit(k, size, version, order, spare, [], manifest, repair)


def assert_right_or_clean_exit(k, size, version, order, spare, damages, manifest, repair):
    # ``spare`` shards beyond k are given (k - 1 to k + 2 in all), in the
    # drawn order; a repair rebuilds the first node left out, or node 0.
    # Intact, a decode exits 0 from k shards or more and 3 from fewer, and
    # a repair 0 from k + 1, 3 from fewer and 5 when node 0 was given.
    # Damaged, any shard makes a decode exit 4, since every shard is
    # checked before the shard count, and a repair fail with 3, 4 or 5.
    # With intact shards, a manifest whose meaning changed makes a decode
    # exit 4 (or 3 from fewer than k shards), and may let a repair that
    # would exit 0 exit 4 instead: it reads neither original_len nor
    # file_crc32.
    data, files = shard_set(k, size, version)
    order = [node for node in order if node < k + 2]
    nodes = order[: k + spare]
    rebuild = order[k + spare] if k + spare < k + 2 else 0
    blobs, damaged = damaged_set(k, size, version, nodes, damages)
    manifest_text, changed = damaged_manifest(k, size, version, manifest)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "manifest.json").write_bytes(manifest_text)
        paths = []
        for i, blob in enumerate(blobs):
            path = tmp / f"shard_{i}.bin"
            path.write_bytes(blob)
            paths.append(str(path))
        if repair:
            out = tmp / "rebuilt"
            code = run(["repair", "--shards", *paths, "--rebuild", str(rebuild), "--out-dir", str(out)])
            intact = {k - 1: 3, k: 3, k + 1: 0, k + 2: 5}[len(nodes)]
            if damaged:
                assert code in (3, 4, 5), code
            elif changed and intact == 0:
                assert code in (0, 4), code
            else:
                assert code == intact, code
            if code == 0:
                assert (out / f"node_{rebuild}.shard").read_bytes() == files[f"node_{rebuild}.shard"]
        else:
            out = tmp / "restored.bin"
            code = run(["decode", "--shards", *paths, "--out", str(out)])
            if damaged:
                assert code == 4, code
            elif changed:
                assert code in ((3, 4) if len(nodes) < k else (4,)), code
            else:
                assert code == (3 if len(nodes) < k else 0), code
            if code == 0:
                assert out.read_bytes() == data
        if code:
            assert not out.exists()
