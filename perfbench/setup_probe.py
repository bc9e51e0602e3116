"""What every oodhg command pays before model work, in a fresh process:
import the package, load the dataset directory and resolve its meta-paths.

    python3 perfbench/setup_probe.py DATASET_DIR

Prints the file the package was imported from and the target node count.
"""

import sys

import oodhg
from oodhg.data import load_dataset, load_path_config
from oodhg.pipeline import resolve_paths

graph, labels, splits = load_dataset(sys.argv[1])
resolve_paths(graph, *load_path_config(sys.argv[1]))
print(oodhg.__file__, graph.target_count)
