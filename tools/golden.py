"""Pin the bytes that the standing commands write.

Runs the CLI in-process, in an empty working directory and from relative
paths, and compares the sha256 of every file the commands write with
tests/golden.json. That file maps each path, relative to the working
directory, to its digest, and records the Python and numpy versions that
made the digests: either version changing is an output change too.

    python tools/golden.py            # check; exit 1 naming every change
    python tools/golden.py --write    # regenerate tests/golden.json

A change that alters an output regenerates the file with --write and
names each changed file, and why, in CHANGES.md. Tier-1 runs the same
check (tests/test_golden.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"

_SMALL = ["--data", "data150", "--ood-class", "3"]
_LARGE = ["--data", "data1000", "--ood-class", "3"]
# the standing settings' datasets and the commands run on them
COMMANDS = (
    ["gen", "--per-class", "150", "--seed", "7", "-o", "data150"],
    ["train", *_SMALL, "--seed", "5", "--out", "run150"],
    ["eval", *_SMALL, "--ckpt", "run150/checkpoint.json", "--out", "eval150"],
    ["ablate", *_SMALL, "--seeds", "0,1,2,3,4", "--out", "ablate150"],
    ["sweep", *_SMALL, "--param", "tau", "--seeds", "0,1",
     "--out", "sweep150-tau"],
    ["sweep", *_SMALL, "--param", "gamma", "--grid", "0.3,0.7",
     "--seeds", "0,1", "--out", "sweep150-gamma"],
    ["gen", "--per-class", "1000", "--seed", "3", "-o", "data1000"],
    ["train", *_LARGE, "--seed", "5", "--out", "run1000"],
    ["eval", *_LARGE, "--ckpt", "run1000/checkpoint.json",
     "--out", "eval1000"],
)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_commands(workdir: Path) -> dict:
    """Run COMMANDS in workdir, which should be empty, and return the
    sha256 of every file under it, keyed by its relative POSIX path."""
    # imported here: run as a script, the __main__ block puts src/ on the
    # path first
    from oodhg.cli import main

    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(argv)
            if status != 0:
                raise RuntimeError(f"oodhg {' '.join(argv)} exited {status}")
    finally:
        os.chdir(here)
    return {p.relative_to(workdir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def differences(pinned: dict, digests: dict) -> list[str]:
    """One line per version that changed and per file whose bytes did."""
    lines = [f"{name} {pinned['versions'].get(name)} pinned, {running} running"
             for name, running in versions().items()
             if pinned["versions"].get(name) != running]
    files = pinned["files"]
    for path in sorted(files.keys() | digests.keys()):
        if path not in digests:
            lines.append(f"{path}: pinned, not written")
        elif path not in files:
            lines.append(f"{path}: written, not pinned")
        elif files[path] != digests[path]:
            lines.append(f"{path}: bytes changed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="check or regenerate the digests of the standing "
        "commands' outputs (tests/golden.json)")
    parser.add_argument("--write", action="store_true",
                        help="regenerate tests/golden.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_commands(Path(tmp))
    if args.write:
        GOLDEN.write_text(json.dumps({"versions": versions(), "files": digests},
                                     indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}")
        return 0
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    lines = differences(pinned, digests)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"{len(digests)} files match {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
