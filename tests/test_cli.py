"""Command-line behaviour, including the exit-code contract."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from zigzag3.cli import main
from zigzag3.cluster import byte_capacity
from zigzag3.code import CodeParams
from zigzag3.verification import coding_matrix_from_zigzag

K = 4


@pytest.fixture
def encoded(tmp_path):
    rng = np.random.default_rng(77)
    data = rng.bytes(2048)
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", str(K), "--input", str(src), "--out-dir", str(out_dir)]) == 0
    return data, out_dir, tmp_path


def shard(out_dir, node):
    return str(out_dir / f"node_{node}.shard")


def test_encode_outputs(encoded):
    _, out_dir, _ = encoded
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["manifest.json"] + [f"node_{i}.shard" for i in range(K + 2)]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["k"] == K and len(manifest["shard_crc"]) == K + 2
    assert manifest["original_len"] == 2048


def test_encode_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    out_dir = tmp_path / "out"
    assert main(["encode", "--k", "3", "--input", str(src), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest == {"k": 3, "stripes": 1, "original_len": 0, "shard_version": 4,
                        "file_crc32": 0, "shard_crc": manifest["shard_crc"]}
    out = tmp_path / "back.bin"
    shards = [shard(out_dir, i) for i in range(3)]
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_encode_rejects_k1(tmp_path):
    src = tmp_path / "x"
    src.write_bytes(b"hi")
    assert main(["encode", "--k", "1", "--input", str(src), "--out-dir", str(tmp_path / "o")]) == 5


@pytest.mark.parametrize("subset", [(0, 1, 2, 3), (2, 3, 4, 5), (0, 2, 4, 5), (1, 2, 3, 5)])
def test_decode_any_k_subset(encoded, subset):
    data, out_dir, tmp_path = encoded
    out = tmp_path / f"out_{''.join(map(str, subset))}.bin"
    shards = [shard(out_dir, i) for i in subset]
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_decode_insufficient_shards(encoded):
    _, out_dir, tmp_path = encoded
    shards = [shard(out_dir, i) for i in (0, 1, 2)]
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "x")]) == 3


def test_decode_singular_pair_exits_5(encoded, monkeypatch):
    # With one coding-matrix sign flipped, A_0 - A_1 is singular: decoding
    # without nodes 0 and 1 must fail with the parameter exit code and
    # write nothing, never return wrong bytes.
    import zigzag3.cli as cli
    from zigzag3.verification import flip_one_sign

    build = cli.build_coding_matrices
    monkeypatch.setattr(cli, "build_coding_matrices", lambda params: flip_one_sign(build(params)))
    _, out_dir, tmp_path = encoded
    out = tmp_path / "restored.bin"
    shards = [shard(out_dir, i) for i in range(2, K + 2)]
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 5
    assert not out.exists()
    # The flipped set is a copy: the shared set is still the paper's.
    assert all(build(CodeParams(K)).matrices[j] == coding_matrix_from_zigzag(CodeParams(K), j) for j in range(K))


def test_decode_corrupt_shard_exits_4(encoded):
    _, out_dir, tmp_path = encoded
    blob = bytearray((out_dir / "node_0.shard").read_bytes())
    blob[25] ^= 1
    (out_dir / "node_0.shard").write_bytes(bytes(blob))
    shards = [shard(out_dir, i) for i in range(4)]
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "x")]) == 4


def test_decode_mixed_shards_exits_4(encoded, tmp_path):
    data, out_dir, base = encoded
    other_src = base / "other.bin"
    other_src.write_bytes(b"different content")
    other_dir = base / "other_shards"
    assert main(["encode", "--k", str(K), "--input", str(other_src), "--out-dir", str(other_dir)]) == 0
    shards = [shard(out_dir, i) for i in (0, 1, 2)] + [shard(other_dir, 3)]
    assert main(["decode", "--shards", *shards, "--out", str(base / "x")]) == 4


def test_decode_missing_manifest_exits_4(encoded):
    _, out_dir, tmp_path = encoded
    (out_dir / "manifest.json").unlink()
    shards = [shard(out_dir, i) for i in range(4)]
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "x")]) == 4


@pytest.mark.parametrize(
    "field, value",
    [
        ("shard_crc", "short"),
        ("shard_crc", None),
        ("original_len", "12"),
        ("original_len", -5),
    ],
    ids=["crc-list-too-short", "crc-null", "length-string", "length-negative"],
)
def test_decode_malformed_manifest_exits_4(tmp_path, field, value):
    # k = 3 from shards 0, 1 and 4: a malformed manifest must be a format
    # error, never a crash and never a truncated file.
    src = tmp_path / "input.bin"
    src.write_bytes(np.random.default_rng(5).bytes(3000))
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", "3", "--input", str(src), "--out-dir", str(out_dir)]) == 0
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[field] = manifest["shard_crc"][:3] if value == "short" else value
    path.write_text(json.dumps(manifest))
    out = tmp_path / "restored.bin"
    shards = [shard(out_dir, i) for i in (0, 1, 4)]
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 4
    assert not out.exists()


def test_repair_parity_reports_match(encoded, capsys):
    _, out_dir, tmp_path = encoded
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 5)]
    rebuilt_dir = tmp_path / "rebuilt"
    code = main(["repair", "--shards", *helpers, "--rebuild", "4", "--out-dir", str(rebuilt_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "MATCH" in out and "36/stripe" in out
    rebuilt = (rebuilt_dir / "node_4.shard").read_bytes()
    assert rebuilt == (out_dir / "node_4.shard").read_bytes()


def test_repair_systematic_labeled_fallback(encoded, capsys):
    _, out_dir, tmp_path = encoded
    helpers = [shard(out_dir, i) for i in (1, 2, 3, 4, 5)]
    code = main(["repair", "--shards", *helpers, "--rebuild", "0", "--out-dir", str(tmp_path / "r")])
    assert code == 0
    out = capsys.readouterr().out
    assert "via data-plan" in out and "MATCH" in out and "(20/stripe)" in out
    rebuilt = (tmp_path / "r" / "node_0.shard").read_bytes()
    assert rebuilt == (out_dir / "node_0.shard").read_bytes()


def test_repair_data_node_json_report(encoded, capsys):
    _, out_dir, tmp_path = encoded
    helpers = [shard(out_dir, i) for i in (1, 2, 3, 4, 5)]
    code = main(
        ["--format", "json", "repair", "--shards", *helpers, "--rebuild", "0",
         "--out-dir", str(tmp_path / "rd")]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "data-plan" and report["match"] is True
    assert report["total_reads"] == report["total_sent"] == 20 * report["stripes"]
    assert set(report["stage_seconds"]) == {"plan", "downloads", "solve"}
    rebuilt = (tmp_path / "rd" / "node_0.shard").read_bytes()
    assert rebuilt == (out_dir / "node_0.shard").read_bytes()


def test_repair_json_report(encoded, capsys):
    _, out_dir, tmp_path = encoded
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 4)]
    code = main(
        ["--format", "json", "repair", "--shards", *helpers, "--rebuild", "5",
         "--out-dir", str(tmp_path / "rj")]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "parity-plan" and report["match"] is True
    stripes = report["stripes"]
    assert report["total_reads"] == 36 * stripes
    assert set(report["stage_seconds"]) == {"plan", "downloads", "solve"}
    assert all(t >= 0 for t in report["stage_seconds"].values())


def test_repair_present_node_exits_5(encoded):
    _, out_dir, tmp_path = encoded
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 5)]
    assert main(["repair", "--shards", *helpers, "--rebuild", "0"]) == 5


def test_repair_two_missing_exits_3(encoded):
    _, out_dir, tmp_path = encoded
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3)]
    assert main(["repair", "--shards", *helpers, "--rebuild", "4"]) == 3


def test_verify_passes(capsys):
    assert main(["verify", "--k-range", "2..4", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out and "FAIL" not in out


def test_verify_detects_injected_fault():
    assert main(["verify", "--k-range", "3..3", "--inject-fault"]) == 2


def test_injected_fault_fails_exactly_the_checks_that_read_the_signs(capsys):
    # One flipped sign in A_1 breaks every check that reads the coding
    # matrices' signs, and no other: the pair checks at k = 2 have no A_1
    # term.  io-meters fails on the parity plans, not on the data plans,
    # whose zigzag rebuild reads only the row structure.
    assert main(["--format", "json", "verify", "--k-range", "2..6", "--inject-fault"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {(c["k"], c["name"]) for c in checks if not c["passed"]}
    every_k = ["mds-ranks", "coding-matrix-equivalence", "encoder-forms", "io-meters"]
    from_3 = ["repair-conditions-first", "repair-conditions-second", "duality-first"]
    assert failed == {(k, name) for k in range(2, 7) for name in every_k + from_3 * (k >= 3)}
    assert len(failed) == 32
    for c in checks:
        if c["name"] == "io-meters":
            assert c["detail"] == (
                "InconsistentSystemError: parity plans are certified for the paper's coding matrices only"
            ), c["k"]


def test_verify_json_is_machine_parseable(capsys):
    assert main(["--format", "json", "verify", "--k-range", "2..3", "--trials", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} >= {"mds-ranks", "io-meters"}


def test_verify_reports_check_seconds(capsys):
    assert main(["--format", "json", "verify", "--k-range", "2..3", "--trials", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = report["checks"]
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in checks)
    # Each k's set-up (its coding matrices and repair pairs), which no
    # check's seconds include.
    assert [s["k"] for s in report["setup_seconds"]] == [2, 3]
    assert all(isinstance(s["seconds"], float) and s["seconds"] >= 0 for s in report["setup_seconds"])
    assert main(["--verbose", "verify", "--k-range", "2..2", "--trials", "3"]) == 0
    verbose = capsys.readouterr().out.splitlines()
    assert main(["verify", "--k-range", "2..2", "--trials", "3"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert len(verbose) == len(plain)
    # "k= 2 <name> PASS 0.0003s ..." with --verbose, "k= 2 <name> PASS" without.
    assert all(float(line.split()[4].removesuffix("s")) >= 0 for line in verbose[:-1])
    assert all(len(line.split()) == 4 for line in plain[:-1])


@pytest.mark.parametrize("inject", [False, True])
def test_verify_draws_trials_in_bounded_blocks(inject, monkeypatch, capsys):
    # With blocks of 24 symbols, two stripes at k = 3 (12 symbols each),
    # 7 trials are drawn as 2 + 2 + 2 + 1 stripes: --trials costs draws,
    # not one array of trials stripes.
    import zigzag3.verification as verification

    drawn = {}
    real = verification.second_parity_by_rows

    def by_rows(params, parts):
        drawn.setdefault(params.k, []).append(parts.shape[1])
        return real(params, parts)

    monkeypatch.setattr(verification, "_TRIAL_SYMBOLS", 24)
    monkeypatch.setattr(verification, "second_parity_by_rows", by_rows)
    argv = ["--format", "json", "verify", "--k-range", "3..3", "--trials", "7"]
    assert main(argv + (["--inject-fault"] if inject else [])) == (2 if inject else 0)
    check = next(c for c in json.loads(capsys.readouterr().out)["checks"] if c["name"] == "encoder-forms")
    assert check["passed"] is not inject
    # A fault shows in the first block; healthy matrices run every block.
    assert drawn[3] == ([2] if inject else [2, 2, 2, 1])


def test_verify_bad_range_exits_5():
    assert main(["verify", "--k-range", "0..3"]) == 5


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_bad_trials_exits_5(trials, capsys):
    assert main(["verify", "--k-range", "2..3", "--trials", trials]) == 5
    assert "--trials" in capsys.readouterr().err


def test_bound_k5(capsys):
    assert main(["bound", "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "84" in out and "91" in out


def test_bruteforce_k3(capsys):
    assert main(["bruteforce", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "minimum repair I/O = 13" in out and "witness" in out


def test_bruteforce_k4_exits_5(capsys):
    assert main(["bruteforce", "--k", "4"]) == 5
    assert "k <= 3" in capsys.readouterr().err


def test_usage_error_exits_5():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 5


def _error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line]


def test_encode_input_directory_exits_5(tmp_path, capsys):
    code = main(["encode", "--k", "3", "--input", str(tmp_path), "--out-dir", str(tmp_path / "o")])
    assert code == 5
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_encode_out_dir_is_a_file_exits_5(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload")
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    assert main(["encode", "--k", "3", "--input", str(src), "--out-dir", str(taken)]) == 5
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_decode_shard_directory_exits_5(encoded, capsys):
    _, out_dir, tmp_path = encoded
    shards = [shard(out_dir, i) for i in range(3)] + [str(out_dir)]
    capsys.readouterr()
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "x")]) == 5
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_decode_out_directory_exits_5(encoded, capsys):
    _, out_dir, tmp_path = encoded
    shards = [shard(out_dir, i) for i in range(4)]
    capsys.readouterr()
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path)]) == 5
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_decode_manifest_directory_exits_5(encoded, capsys):
    _, out_dir, tmp_path = encoded
    shards = [shard(out_dir, i) for i in range(4)]
    capsys.readouterr()
    code = main(["decode", "--shards", *shards, "--out", str(tmp_path / "x"),
                 "--manifest", str(tmp_path)])
    assert code == 5
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_repair_out_dir_is_a_file_exits_5(encoded, capsys):
    _, out_dir, tmp_path = encoded
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 5)]
    capsys.readouterr()
    assert main(["repair", "--shards", *helpers, "--rebuild", "4", "--out-dir", str(taken)]) == 5
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error:")
    assert taken.read_bytes() == b""


def test_repair_rejects_a_helper_from_another_file(tmp_path):
    # Two files of one size encode to shards of one shape at k = 3; a
    # node-4 rebuild from A's shards 0, 1, 3 and B's shard 2 would differ
    # from A's node 4, so the CRC check against A's manifest must refuse it.
    rng = np.random.default_rng(31)
    dirs = []
    for name in ("a", "b"):
        src = tmp_path / f"{name}.bin"
        src.write_bytes(rng.bytes(1000))
        dirs.append(tmp_path / f"{name}_shards")
        assert main(["encode", "--k", "3", "--input", str(src), "--out-dir", str(dirs[-1])]) == 0
    a_dir, b_dir = dirs
    helpers = [shard(a_dir, 0), shard(a_dir, 1), shard(b_dir, 2), shard(a_dir, 3)]
    out = tmp_path / "rebuilt"
    assert main(["repair", "--shards", *helpers, "--rebuild", "4", "--out-dir", str(out)]) == 4
    assert not out.exists()


def test_repair_rejects_a_rebuilt_shard_off_the_manifest(encoded):
    _, out_dir, tmp_path = encoded
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["shard_crc"][4] ^= 1
    path.write_text(json.dumps(manifest))
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 5)]
    out = tmp_path / "rebuilt"
    assert main(["repair", "--shards", *helpers, "--rebuild", "4", "--out-dir", str(out)]) == 4
    assert not out.exists()


def test_repair_missing_manifest_exits_4(encoded):
    _, out_dir, tmp_path = encoded
    (out_dir / "manifest.json").unlink()
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 5)]
    out = tmp_path / "rebuilt"
    assert main(["repair", "--shards", *helpers, "--rebuild", "4", "--out-dir", str(out)]) == 4
    assert not out.exists()


# ---------------------------------------------------------------------------
# shard versions
# ---------------------------------------------------------------------------

V1_SET = Path(__file__).resolve().parent / "fixtures" / "v1" / "k4_1001"
V2_DIR = Path(__file__).resolve().parent / "fixtures" / "v2"


def copy_set(source: Path, target: Path) -> Path:
    target.mkdir()
    for path in source.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    return target


def set_original_len(out_dir: Path, value: int) -> None:
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["original_len"] = value
    path.write_text(json.dumps(manifest))


def test_manifest_capacity_of_a_v2_set(tmp_path):
    # At k = 4 (32 words a block) 45 stripes hold one block and 3 more
    # words: 280 bytes, so a 280-byte file fills them exactly.
    assert byte_capacity(CodeParams(K), 45, 2) == 280
    data = np.random.default_rng(45).bytes(280)
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", str(K), "--input", str(src), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["stripes"] == 45 and manifest["original_len"] == 280
    shards = [shard(out_dir, i) for i in range(K)]
    out = tmp_path / "restored.bin"
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    assert out.read_bytes() == data
    set_original_len(out_dir, 281)
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "over.bin")]) == 4
    assert not (tmp_path / "over.bin").exists()


def test_manifest_capacity_of_a_v1_set(tmp_path):
    # 1001 bytes took 188 stripes of 32 trits at k = 4, which hold
    # 188 * 32 // 6 = 1002 bytes; the last one is padding, read as 0.
    out_dir = copy_set(V1_SET, tmp_path / "v1")
    assert json.loads((out_dir / "manifest.json").read_text())["stripes"] == 188
    assert byte_capacity(CodeParams(K), 188, 1) == 1002
    shards = [shard(out_dir, i) for i in range(2, K + 2)]
    out = tmp_path / "restored.bin"
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    original = out.read_bytes()
    set_original_len(out_dir, 1002)
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    assert out.read_bytes() == original + b"\0"
    set_original_len(out_dir, 1003)
    assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "over.bin")]) == 4
    assert not (tmp_path / "over.bin").exists()


def encode_bytes(tmp_path, data: bytes) -> Path:
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", str(K), "--input", str(src), "--out-dir", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("original_len", [272, 279])
def test_edited_original_len_fails_the_file_crc(tmp_path, capsys, original_len):
    # With version 2, original_len also places the last partial block;
    # 272 used to decode 272 wrong bytes with exit 0.
    data = np.random.default_rng(45).bytes(280)
    out_dir = encode_bytes(tmp_path, data)
    assert json.loads((out_dir / "manifest.json").read_text())["file_crc32"] == zlib.crc32(data)
    set_original_len(out_dir, original_len)
    capsys.readouterr()
    out = tmp_path / "restored.bin"
    assert main(["decode", "--shards", *[shard(out_dir, i) for i in range(K)], "--out", str(out)]) == 4
    assert "file_crc32" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", [280, 16, 4])
def test_version_flipped_on_every_shard_exit_4(tmp_path, capsys, size):
    # The version byte is outside the shard CRC.  16 bytes fit in the
    # stripes of either layout: read as version 1, 4 bytes used to decode
    # to 4 wrong bytes with exit 0.  Relabelled 1 or 2, a version-4 set is
    # read interleaved, and relabelled 3 planar without a group region; at
    # 280 and 16 bytes each shard has at most one padding trit, the last in
    # every packing, so only the manifest's version check refuses the set.
    # 4 bytes leave 4 padding trits per shard, 3 of them data trits of the
    # planar packing, and read interleaved the padding check refuses it
    # first.
    out_dir = encode_bytes(tmp_path, np.random.default_rng(size).bytes(size))
    blobs = [Path(shard(out_dir, node)).read_bytes() for node in range(K + 2)]
    assert {blob[4] for blob in blobs} == {4}
    for label in (1, 2, 3):
        for node, blob in enumerate(blobs):
            Path(shard(out_dir, node)).write_bytes(blob[:4] + bytes([label]) + blob[5:])
        padding = size == 4 and label < 3
        error = "nonzero padding trit" if padding else f"shard version 4, shards {label}"
        capsys.readouterr()
        out = tmp_path / "restored.bin"
        assert main(["decode", "--shards", *[shard(out_dir, i) for i in range(K)], "--out", str(out)]) == 4
        assert error in capsys.readouterr().err
        assert not out.exists()
        helpers = [shard(out_dir, i) for i in range(1, K + 2)]
        assert main(["repair", "--shards", *helpers, "--rebuild", "0", "--out-dir", str(tmp_path / "r")]) == 4
        assert error in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def test_manifest_without_version_or_file_crc_decodes(tmp_path):
    # Sets written before these fields keep decoding; a field of the
    # wrong type is a format error.
    data = np.random.default_rng(3).bytes(1000)
    out_dir = encode_bytes(tmp_path, data)
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    shards = [shard(out_dir, i) for i in range(2, K + 2)]
    out = tmp_path / "restored.bin"
    for key, bad in (("shard_version", "2"), ("file_crc32", True)):
        path.write_text(json.dumps({**manifest, key: bad}))
        assert main(["decode", "--shards", *shards, "--out", str(out)]) == 4
    for key in ("shard_version", "file_crc32"):
        manifest.pop(key)
    path.write_text(json.dumps(manifest))
    assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
    assert out.read_bytes() == data
    helpers = [shard(out_dir, i) for i in range(K + 2) if i != K]
    assert main(["repair", "--shards", *helpers, "--rebuild", str(K), "--out-dir", str(tmp_path / "r")]) == 0


def test_mixed_shard_versions_exit_4(encoded, capsys):
    # The version byte is outside the CRC, so only the version check can
    # refuse a set that mixes layouts.  One shard of a version-4 set is
    # relabelled 1, 2 or 3, and one of a version-2 set 3 or 4; each set
    # has one padding trit per shard, the last in every packing, so the
    # relabelled shard itself still parses.
    _, v4_dir, tmp_path = encoded
    v2_dir = copy_set(V2_DIR / "k2_5000", tmp_path / "v2")
    for out_dir, k, node, label in ((v4_dir, K, 3, 1), (v4_dir, K, 3, 2), (v4_dir, K, 3, 3), (v2_dir, 2, 1, 3),
                                    (v2_dir, 2, 1, 4)):
        path = out_dir / f"node_{node}.shard"
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + bytes([label]) + blob[5:])
        capsys.readouterr()
        shards = [shard(out_dir, i) for i in range(k)]
        assert main(["decode", "--shards", *shards, "--out", str(tmp_path / "x")]) == 4
        assert "mixed shard versions" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        helpers = [shard(out_dir, i) for i in range(k + 1)]
        argv = ["repair", "--shards", *helpers, "--rebuild", str(k + 1), "--out-dir", str(tmp_path / "r")]
        assert main(argv) == 4
        assert "mixed shard versions" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        path.write_bytes(blob)


def test_a_nonzero_padding_trit_exits_4(encoded, capsys):
    # 2,048 bytes at k = 4 fill 328 stripes of 8 trits: 2,624 trits, so
    # the last payload byte ends in one padding trit.  Setting it and
    # recomputing both the shard CRC and the manifest's entry leaves only
    # the padding check to refuse the shard, which the packer never writes.
    data, out_dir, tmp_path = encoded
    path = out_dir / "node_1.shard"
    blob = bytearray(path.read_bytes())
    assert int.from_bytes(blob[11:19], "little") == 2624 and blob[-5] % 3 == 0
    blob[-5] += 1
    crc = zlib.crc32(blob[19:-4])
    blob[-4:] = crc.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shard_crc"][1] = crc
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "restored.bin"
    assert main(["decode", "--shards", *[shard(out_dir, i) for i in range(K)], "--out", str(out)]) == 4
    assert "nonzero padding trit past trit 2624" in capsys.readouterr().err
    assert not out.exists()
    helpers = [shard(out_dir, i) for i in (0, 1, 2, 3, 5)]
    assert main(["repair", "--shards", *helpers, "--rebuild", "4", "--out-dir", str(tmp_path / "r")]) == 4
    assert not (tmp_path / "r").exists()
    # Without node 1 the set decodes.
    assert main(["decode", "--shards", *[shard(out_dir, i) for i in (0, 2, 3, 4)], "--out", str(out)]) == 0
    assert out.read_bytes() == data


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_repair_writes_the_helpers_version(version, encoded, capsys):
    _, out_dir, tmp_path = encoded
    if version == 1:
        out_dir = copy_set(V1_SET, tmp_path / "v1")
    elif version < 4:
        out_dir = copy_set(V2_DIR.parent / f"v{version}" / "k4_5000", tmp_path / f"v{version}")
    for node in (0, K, K + 1):
        helpers = [shard(out_dir, i) for i in range(K + 2) if i != node]
        rebuilt_dir = tmp_path / f"rebuilt{node}"
        argv = ["--format", "json", "repair", "--shards", *helpers, "--rebuild", str(node),
                "--out-dir", str(rebuilt_dir)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["match"] is True and report["shard_version"] == version
        blob = (rebuilt_dir / f"node_{node}.shard").read_bytes()
        assert blob[4] == version
        assert blob == (out_dir / f"node_{node}.shard").read_bytes()


def test_json_reports_report_the_shard_version(encoded, capsys):
    data, out_dir, tmp_path = encoded
    src = tmp_path / "input.bin"
    capsys.readouterr()
    argv = ["--format", "json", "encode", "--k", str(K), "--input", str(src),
            "--out-dir", str(tmp_path / "again")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["shard_version"] == 4
    shards = [shard(out_dir, i) for i in range(K)]
    assert main(["--format", "json", "decode", "--shards", *shards, "--out", str(tmp_path / "x")]) == 0
    assert json.loads(capsys.readouterr().out)["shard_version"] == 4
    assert (tmp_path / "x").read_bytes() == data


def test_a_packed_byte_over_242_exits_4(encoded, capsys):
    # The shard CRC and the manifest's entry are recomputed, so only the
    # range check can refuse the byte.  It lies in the group region, which
    # a decode from the data shards leaves packed.
    _, out_dir, tmp_path = encoded
    path = out_dir / "node_2.shard"
    blob = bytearray(path.read_bytes())
    blob[40] = 250
    crc = zlib.crc32(blob[19:-4])
    blob[-4:] = crc.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shard_crc"][2] = crc
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "restored.bin"
    assert main(["decode", "--shards", *[shard(out_dir, i) for i in range(K)], "--out", str(out)]) == 4
    assert "payload byte >= 243" in capsys.readouterr().err
    assert not out.exists()


def test_a_word_over_2_64_in_the_packed_bytes_exits_4(encoded, capsys):
    # 2,048 bytes at k = 4 are 8 whole blocks of 32 words.  Setting the
    # eight group bytes of row 0 of block 0 in node 1 to 242 makes word 8
    # at least 3 * (3^40 - 1) >= 2^64.  With the CRCs recomputed, only the
    # recombination refuses it, from the packed bytes of the data shards.
    # Node 0 rebuilt from the row sum and node 1 is as bad: word 0, its row
    # 0 of block 0, is refused first.
    _, out_dir, tmp_path = encoded
    path = out_dir / "node_1.shard"
    blob = bytearray(path.read_bytes())
    for g in range(8):
        blob[19 + 64 * g] = 242
    crc = zlib.crc32(blob[19:-4])
    blob[-4:] = crc.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shard_crc"][1] = crc
    manifest_path.write_text(json.dumps(manifest))
    for nodes, word in ((range(K), 8), (range(1, K + 1), 0)):
        capsys.readouterr()
        out = tmp_path / "restored.bin"
        assert main(["decode", "--shards", *[shard(out_dir, i) for i in nodes], "--out", str(out)]) == 4
        assert f"word {word} recombines to" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("whole_blocks", [0, 1], ids=["one-stripe", "block-and-tail"])
@pytest.mark.parametrize("k", range(12, 17))
def test_round_trips_at_the_top_k(k, whole_blocks, tmp_path, capsys):
    # 1,000 bytes are one stripe at every k from 12 (kN = 24,576 words).
    # kN words and 17 bytes more fill one whole block of 41 stripes and a
    # tail, so the packed group region and its recombination run too.
    # Encode, a decode from the data nodes, one without data nodes 0 and
    # 1, and the repair of data node 0 and of both parities, each byte
    # for byte.
    size = 8 * k * 2 ** (k - 1) + 17 if whole_blocks else 1000
    data = np.random.default_rng(k).bytes(size)
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", str(k), "--input", str(source), "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "manifest.json").read_text())["stripes"] == (42 if whole_blocks else 1)
    for lost in ((k, k + 1), (0, 1)):
        out = tmp_path / "restored.bin"
        shards = [shard(out_dir, i) for i in range(k + 2) if i not in lost]
        assert main(["decode", "--shards", *shards, "--out", str(out)]) == 0
        assert out.read_bytes() == data
    for node in (0, k, k + 1):
        helpers = [shard(out_dir, i) for i in range(k + 2) if i != node]
        rebuilt = tmp_path / f"rebuilt{node}"
        assert main(["repair", "--shards", *helpers, "--rebuild", str(node), "--out-dir", str(rebuilt)]) == 0
        assert (rebuilt / f"node_{node}.shard").read_bytes() == Path(shard(out_dir, node)).read_bytes()


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call, argparse's exits
    included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    import zigzag3.cli as cli
    import zigzag3.code as code

    assert cli.build_parser() is cli.build_parser()
    data = np.random.default_rng(21).bytes(3000)
    (tmp_path / "input.bin").write_bytes(data)
    out_dir = tmp_path / "shards"
    shards = [shard(out_dir, i) for i in (1, 2, 4, 5)]
    calls = [
        ["decode", "--bogus"],
        ["--help"],
        ["encode", "--k", str(K), "--input", str(tmp_path / "input.bin"), "--out-dir", str(out_dir)],
        ["--format", "json", "decode", "--shards", *shards, "--out", str(tmp_path / "json.bin")],
        ["decode", "--shards", *shards, "--out", str(tmp_path / "text.bin")],
    ]
    # Each call as the first of a process, with nothing kept from another
    # call; the decodes read the shards the encode wrote.
    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        code.build_coding_matrices.cache_clear()
        first.append(_run(argv, capsys))
    assert [c for c, _, _ in first] == [5, 0, 0, 0, 0]
    assert first[0][2].startswith("usage: zigzag3")
    assert first[1][1] == cli.build_parser.__wrapped__().format_help()
    # The same calls in order, each after the ones before it.
    assert [_run(argv, capsys) for argv in calls] == first
    assert (tmp_path / "json.bin").read_bytes() == (tmp_path / "text.bin").read_bytes() == data


def test_a_lost0_decode_peaks_at_its_stack_and_output(tmp_path, capsys):
    # Every shard is unpacked into its row of one (k+2, stripes, N) stack,
    # and extract reads the parts there: a k = 8 decode of 512 KiB from
    # the data shards peaks within the stack, extract's words and bytes,
    # and one shard of scratch (file reads, chunk buffers), so no copy of
    # the parts fits.  The decode runs once first, so only the traced
    # call's own arrays count.
    import tracemalloc

    k, size = 8, 512 * 1024
    data = np.random.default_rng(88).bytes(size)
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    out_dir = tmp_path / "shards"
    assert main(["encode", "--k", str(k), "--input", str(source), "--out-dir", str(out_dir)]) == 0
    stripes = json.loads((out_dir / "manifest.json").read_text())["stripes"]
    out = tmp_path / "restored.bin"
    argv = ["decode", "--shards", *[shard(out_dir, i) for i in range(k)], "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == data
    one_shard = stripes * CodeParams(k).n_rows
    assert peak < (k + 2) * one_shard + 2 * size + one_shard, (peak, one_shard)
