"""The standing commands write the bytes pinned in tests/golden.json.

tools/golden.py --write regenerates that file; a change to any output
regenerates it and names each changed file, and why, in CHANGES.md.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    pinned = {"versions": {**golden.versions(), "numpy": "1.0.0",
                           "blas": "000000000000"},
              "files": files}
    digests = {"a/x.tsv": "0" * 64, "a/y.json": "3" * 64, "c/new.tsv": "4" * 64}
    assert golden.differences(pinned, digests) == [
        f"numpy 1.0.0 pinned, {golden.versions()['numpy']} running",
        f"blas 000000000000 pinned, {golden.versions()['blas']} running",
        "a/y.json: bytes changed",
        "b/z.json: pinned, not written",
        "c/new.tsv: written, not pinned",
    ]


def test_model_reference_loops_hold_under_another_blas_kernel():
    """tests/test_model.py's reference loops match train under OpenBLAS's
    Prescott kernel too, not only under the kernel this process picked:
    kernels block and round the same products differently, so a reference
    that sums other rows than train does agrees under one kernel only."""
    # numpy records its build configuration from 1.26 on
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    fingerprint = subprocess.run(
        [sys.executable, "-c", "import golden; print(golden.blas_fingerprint())"],
        cwd=ROOT / "tools", env=env, capture_output=True, text=True,
        check=True).stdout.strip()
    if fingerprint == _golden_tool().blas_fingerprint():
        pytest.skip("the Prescott kernel rounds as this process's kernel does")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_model.py", "-k",
         "bitwise or epoch_loop or textbook or all_rows"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stdout[-2000:]
