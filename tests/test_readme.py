"""Every python block of README.md runs as written, so the documented
library calls keep up with the signatures they use; the dataset format
block names every file save_dataset writes, and the CLI section names
exactly the parser's flags."""

import argparse
import re
from pathlib import Path

import pytest

from oodhg import SynthConfig, generate_synthetic, make_splits, save_dataset
from oodhg.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def _dataset_format_patterns() -> list[re.Pattern]:
    """One pattern per file named at the start of a line of the README's
    "Dataset directory format" block; <name> stands for one path part."""
    block = re.search(r"^## Dataset directory format\n\n```\n(.*?)^```",
                      README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL).group(1)
    names = [line.split()[0] for line in block.splitlines()
             if line and not line[0].isspace()]
    return [re.compile(re.sub(r"<\w+>", "[^/]+", re.escape(name)))
            for name in names]


def test_dataset_format_names_every_file_save_dataset_writes(tmp_path):
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=5))
    root = save_dataset(tmp_path / "d", graph, labels, make_splits(labels, 3))
    patterns = _dataset_format_patterns()
    written = [p.relative_to(root).as_posix()
               for p in sorted(root.rglob("*")) if p.is_file()]
    for name in written:
        assert any(p.fullmatch(name) for p in patterns), name


def test_cli_section_names_every_parser_flag():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {option for command in commands.values()
             for action in command._actions for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    section = re.search(r"^## CLI\n(.*?)^## ",
                        README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL).group(1)
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert sorted(flags - named) == [], "parser flags the README leaves out"
    assert sorted(named - flags) == [], "README flags the parser lacks"
