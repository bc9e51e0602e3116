"""Dense recomputation of the post-propagation energies `oodhg eval` writes.

Independent of the oodhg package. It reads the dataset's schema and edge
files and builds every hop as a dense row-normalised matrix, the union of
all edge types with that (source, destination) signature. It then applies
the two repairs compose_metapath documents: a row of the composed path that
lost mass is rescaled to sum 1, and an empty row becomes a self-loop. It
iterates E <- gamma E + (1 - gamma) A_hat E `steps` times and averages over
paths. The composed matrix is never formed: A_hat E is the hop chain
applied right to left, so only hop-sized dense arrays are held.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# compose_metapath rescales a row whose sum is off 1 by more than this
LOST_MASS_TOL = 1e-9


def read_pairs(path: Path) -> np.ndarray:
    return np.array(path.read_text().split(), dtype=np.int64).reshape(-1, 2)


class DenseOracle:
    def __init__(self, data_dir, prop_paths):
        data_dir = Path(data_dir)
        schema = json.loads((data_dir / "schema.json").read_text())
        counts = {t["name"]: int(t["count"]) for t in schema["node_types"]}
        names_by_pair: dict[tuple[str, str], list[str]] = {}
        for e in schema["edge_types"]:
            names_by_pair.setdefault((e["src"], e["dst"]), []).append(e["name"])
        hops: dict[tuple[str, str], np.ndarray] = {}
        self.paths = []
        for path in prop_paths:
            chain = []
            for pair in zip(path[:-1], path[1:]):
                if pair not in hops:
                    binary = np.zeros((counts[pair[0]], counts[pair[1]]))
                    for name in names_by_pair[pair]:
                        edges = read_pairs(data_dir / "edges" / f"{name}.tsv")
                        binary[edges[:, 0], edges[:, 1]] = 1.0
                    sums = binary.sum(axis=1)
                    hops[pair] = binary / np.where(sums > 0, sums, 1.0)[:, None]
                chain.append(hops[pair])
            sums = self._apply_chain(chain, np.ones(counts[path[-1]]))
            lossy = (sums > 0) & (np.abs(sums - 1.0) > LOST_MASS_TOL)
            scale = np.where(lossy, 1.0 / np.where(sums > 0, sums, 1.0), 1.0)
            # entries are positive, so a composed row sums to 0 only if empty
            self.paths.append((chain, scale, sums == 0))

    @staticmethod
    def _apply_chain(chain, x):
        for hop in reversed(chain):
            x = hop @ x
        return x

    def propagate(self, e_raw: np.ndarray, gamma: float, steps: int) -> np.ndarray:
        if steps == 0:
            return e_raw.copy()
        per_path = []
        for chain, scale, empty in self.paths:
            e = e_raw.copy()
            for _ in range(steps):
                ae = scale * self._apply_chain(chain, e)
                ae[empty] = e[empty]
                e = gamma * e + (1.0 - gamma) * ae
            per_path.append(e)
        return np.mean(np.stack(per_path), axis=0)


def read_raw_energy(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(energy_raw, energy_final) columns of raw_energy.tsv, by node id."""
    rows = path.read_text().splitlines()[1:]
    table = np.array([[float(v) for v in r.split("\t")] for r in rows])
    order = np.argsort(table[:, 0], kind="stable")
    return table[order, 1], table[order, 2]
