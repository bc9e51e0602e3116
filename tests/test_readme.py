"""Every python block of README.md runs as written, so the documented
library calls keep up with the signatures they use, and the dataset format
block names every file save_dataset writes."""

import re
from pathlib import Path

import pytest

from oodhg import SynthConfig, generate_synthetic, make_splits, save_dataset

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


@pytest.mark.parametrize("feature_format", ["csv", "f32"])
def test_dataset_format_names_every_file_save_dataset_writes(tmp_path,
                                                             feature_format):
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=5))
    root = save_dataset(tmp_path / "d", graph, labels, make_splits(labels, 3),
                        feature_format=feature_format)
    patterns = _dataset_format_patterns()
    written = [p.relative_to(root).as_posix()
               for p in sorted(root.rglob("*")) if p.is_file()]
    for name in written:
        assert any(p.fullmatch(name) for p in patterns), name
