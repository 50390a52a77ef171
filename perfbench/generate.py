"""Seeded workload generator for the benchmark.

Each workload is written to a directory as the program's documented file
formats: an edge list (``graph.edges``), a GATR binary attribute file
(``graph.gatr``, training workloads only) and a split file
(``graph.split``), plus ``workload.json`` recording the seed, the
held-out seed and the sizes. The generator depends on numpy only and
keeps its own copies of the synthetic graph recipes of the test suite
(``random_graph``, ``random_attributes`` and ``make_attribute_sbm``) and
its own split and file writers, so edits to the tests or to the program
cannot shift the inputs of a given seed.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

# Cora-shaped random graph (n, m, r) and the eval-only sparse pool.
SIZES = {
    "train-sparse": {"n": 2708, "m": 5278, "r": 256},
    "train-dense": {"n": 400},
    "eval-pool": {"n": 20000, "m": 40000},
}
RATIOS = (0.85, 0.05, 0.10)
# Claims made after this benchmark lands are re-checked on this seed,
# which no tuning run uses.
HELD_OUT_SEED = 20231105

_TAGS = {"train-sparse": 11, "train-dense": 22, "eval-pool": 33}


def _expit(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def random_pairs(rng, n, m):
    """Distinct canonical pairs drawn one at a time, like the test helper."""
    pairs = set()
    attempts = 0
    while len(pairs) < m and attempts < 50 * m:
        u, v = rng.integers(0, n, 2)
        attempts += 1
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def attribute_sbm(n, rng, p_in=0.25, p_out=0.005, latent=2, noise_dims=4,
                  kappa=3.0, block_signal=1.5):
    """Two-block SBM whose within-block edges follow a latent affinity."""
    block = (np.arange(n) >= n // 2).astype(int)
    Z = rng.normal(0, 1, (n, latent))
    iu, iv = np.triu_indices(n, 1)
    same = block[iu] == block[iv]
    affinity = 2.0 * _expit(kappa * np.einsum("ij,ij->i", Z[iu], Z[iv]))
    p = np.where(same, np.clip(p_in * affinity, 0.0, 0.9), p_out)
    keep = rng.random(len(p)) < p
    edges = np.column_stack([iu[keep], iv[keep]])
    X = np.hstack([
        (2 * block[:, None] - 1) * np.ones((n, 2)) * block_signal,
        Z,
        rng.normal(0, 0.5, (n, noise_dims)),
    ])
    return edges, X


def split_pairs(rng, pairs):
    """Shuffle canonical edges into train/valid/test with the documented
    floor sizes (valid = floor(0.05 m), test = floor(0.10 m))."""
    m = len(pairs)
    n_valid = int(math.floor(RATIOS[1] * m + 1e-9))
    n_test = int(math.floor(RATIOS[2] * m + 1e-9))
    n_train = m - n_valid - n_test
    shuffled = pairs[rng.permutation(m)]
    return (shuffled[:n_train], shuffled[n_train:n_train + n_valid],
            shuffled[n_train + n_valid:])


def write_edges(path, n, pairs, loops=()):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in pairs.tolist())
        fh.writelines(f"{u} {u}\n" for u in loops)


def write_gatr(path, X):
    with open(path, "wb") as fh:
        fh.write(b"GATR")
        fh.write(struct.pack("<QQ", X.shape[0], X.shape[1]))
        fh.write(np.ascontiguousarray(X, dtype="<f4").tobytes())


def write_split_file(path, n, seed, parts):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# gelato edge split\n")
        fh.write(f"n {n}\nseed {seed}\n")
        fh.write("ratios {!r} {!r} {!r}\n".format(*RATIOS))
        for name, pairs in zip(("TRAIN", "VALID", "TEST"), parts):
            fh.write(f"{name} {len(pairs)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in pairs.tolist())


def generate(workload, seed, out_dir, sizes=None):
    """Write one workload's files to out_dir; returns its description.

    `sizes` overrides SIZES[workload] (the smoke check uses toy sizes).
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    size = dict(SIZES[workload], **(sizes or {}))
    rng = np.random.default_rng([_TAGS[workload], seed])
    n = size["n"]
    os.makedirs(out_dir, exist_ok=True)
    X = None
    if workload == "train-dense":
        pairs, X = attribute_sbm(n, rng)
        loops = ()
    else:
        pairs = random_pairs(rng, n, size["m"])
        deg = np.bincount(pairs.ravel(), minlength=n)
        loops = np.flatnonzero(deg == 0).tolist()  # isolated-only loops
        if workload == "train-sparse":
            X = rng.uniform(0.1, 1.0, (n, size["r"]))
    parts = split_pairs(rng, pairs)
    write_edges(os.path.join(out_dir, "graph.edges"), n, pairs, loops)
    if X is not None:
        write_gatr(os.path.join(out_dir, "graph.gatr"), X)
    write_split_file(os.path.join(out_dir, "graph.split"), n, seed, parts)
    info = {"workload": workload, "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "n": n, "m": len(pairs),
            "r": None if X is None else X.shape[1],
            "train": len(parts[0]), "valid": len(parts[1]),
            "test": len(parts[2]), "sizes": size}
    with open(os.path.join(out_dir, "workload.json"), "w",
              encoding="utf-8") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    return info
