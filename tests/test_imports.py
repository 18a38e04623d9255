"""What each ``zigzag3`` module imports.

No module imports a name it does not use, so a name that moves to
another module cannot linger where a stale patch of it would still
succeed.  The certificates in ``zigzag3.verification`` load only for the
commands that run them: encode, decode and repair never import it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import zigzag3

SRC = Path(zigzag3.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at any depth and never reads, in the
    order imported; ``__future__`` imports are not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # The package's ``__init__`` imports to re-export, so it is skipped.
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert not unused, f"imported and never used: {unused}"


PLANTED = '''
from __future__ import annotations

import os.path
import numpy as np
from .code import CodeParams, basis_index as index, unused_name


def f(p: CodeParams):
    import json
    return np.zeros(index(p, 0)), os.sep
'''


def test_an_unused_import_is_flagged():
    # A name read as an annotation, an alias or an attribute's base counts
    # as used; ``json``, imported inside the function, and ``unused_name``
    # are never read.
    assert unused_imports(PLANTED) == ["unused_name", "json"]


LOADS = """
import json, sys
from zigzag3.cli import main

work = sys.argv[1]
k = "4"
shards = [f"{work}/shards/node_{i}.shard" for i in range(6)]
loaded = {"import": "zigzag3.verification" in sys.modules}
calls = {
    "encode": ["encode", "--k", k, "--input", f"{work}/input.bin", "--out-dir", f"{work}/shards"],
    "decode": ["decode", "--shards", *shards[2:], "--out", f"{work}/restored.bin"],
    "repair": ["repair", "--shards", *shards[1:], "--rebuild", "0", "--out-dir", f"{work}/rebuilt"],
    "bound": ["bound", "--k", k],
}
for name, argv in calls.items():
    loaded[name] = (main(argv), "zigzag3.verification" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_the_certificate_commands_load_verification(tmp_path):
    # A fresh process, so nothing this test session imported counts:
    # importing the CLI, then encoding a small k = 4 file, decoding it
    # without data nodes 0 and 1 and repairing node 0, loads no
    # certificate; ``bound`` does.
    data = os.urandom(3000)
    (tmp_path / "input.bin").write_bytes(data)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", LOADS, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": False,
        "encode": [0, False],
        "decode": [0, False],
        "repair": [0, False],
        "bound": [0, True],
    }
    assert (tmp_path / "restored.bin").read_bytes() == data
    assert (tmp_path / "rebuilt" / "node_0.shard").read_bytes() == (tmp_path / "shards" / "node_0.shard").read_bytes()
