"""The standing commands write the bytes pinned in tests/golden.json.

tools/golden.py --write regenerates that file; a change to any output
regenerates it and names each changed file, and why, in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _golden_tool():
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_standing_commands_write_the_pinned_bytes(tmp_path):
    golden = _golden_tool()
    pinned = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden.differences(pinned, golden.run_commands(tmp_path)) == []


def test_a_change_names_the_file_and_both_versions():
    golden = _golden_tool()
    files = {"a/x.tsv": "0" * 64, "a/y.json": "1" * 64, "b/z.json": "2" * 64}
    pinned = {"versions": {**golden.versions(), "numpy": "1.0.0"},
              "files": files}
    digests = {"a/x.tsv": "0" * 64, "a/y.json": "3" * 64, "c/new.tsv": "4" * 64}
    assert golden.differences(pinned, digests) == [
        f"numpy 1.0.0 pinned, {golden.versions()['numpy']} running",
        "a/y.json: bytes changed",
        "b/z.json: pinned, not written",
        "c/new.tsv: written, not pinned",
    ]
