"""Dataset file formats.

Edge-list file (text): one "u v" or "u v w" per line with 0-based node
ids; '#' starts a comment; an optional first line "n <count>" fixes the
node count (otherwise n = max id + 1).

Attribute file: either CSV (n rows x r comma-separated columns) or the
binary layout: magic bytes "GATR", two little-endian 64-bit unsigned
integers n and r, then n*r little-endian 32-bit floats row-major. Values
are held as float64 in memory regardless of storage width.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError
from .graph import AttributeMatrix, Graph, build_graph

ATTR_MAGIC = b"GATR"


def read_edge_list(path):
    """Parse an edge-list file; returns (edges array, n)."""
    entries = []
    n_header = None
    width = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if n_header is None and not entries and parts[0] == "n":
                    try:
                        (n_header,) = map(int, parts[1:])
                    except ValueError as exc:
                        raise DataError(
                            f"{path}:{lineno}: bad header line") from exc
                    continue
                if len(parts) not in (2, 3):
                    raise DataError(
                        f"{path}:{lineno}: expected 'u v' or 'u v w'")
                if width is None:
                    width = len(parts)
                elif width != len(parts):
                    raise DataError(
                        f"{path}:{lineno}: mixed weighted/unweighted lines")
                try:
                    u, v = int(parts[0]), int(parts[1])
                    w = float(parts[2]) if len(parts) == 3 else None
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
                entries.append((u, v) if w is None else (u, v, w))
    except OSError as exc:
        raise DataError(f"cannot read edge list {path}: {exc}") from exc
    if entries:
        edges = np.asarray(entries, dtype=np.float64)
    else:
        edges = np.empty((0, 2))
    max_id = int(edges[:, :2].max()) if len(edges) else -1
    n = n_header if n_header is not None else max_id + 1
    return edges, n


def load_graph(path, undirected: bool = True) -> Graph:
    edges, n = read_edge_list(path)
    return build_graph(edges, n, undirected=undirected)


def write_edge_list(path, g: Graph) -> None:
    """Write canonical edges with an "n" header; weights only if non-unit."""
    pairs, weights = g.edge_pairs(return_weights=True)
    weighted = bool(len(weights)) and not np.all(weights == 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for i in range(len(pairs)):
            if weighted:
                fh.write(f"{pairs[i, 0]} {pairs[i, 1]} {float(weights[i])!r}\n")
            else:
                fh.write(f"{pairs[i, 0]} {pairs[i, 1]}\n")


def read_attributes(path) -> AttributeMatrix:
    """Load an attribute matrix, sniffing binary vs CSV from the content."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
            if head == ATTR_MAGIC:
                meta = fh.read(16)
                if len(meta) != 16:
                    raise DataError(f"{path}: truncated attribute header")
                n, r = struct.unpack("<QQ", meta)
                payload = fh.read()
                if len(payload) < 4 * n * r:
                    raise DataError(f"{path}: truncated attribute payload")
                values = np.frombuffer(payload, dtype="<f4", count=n * r)
                return AttributeMatrix(values.reshape(n, r))
    except OSError as exc:
        raise DataError(f"cannot read attributes {path}: {exc}") from exc
    try:
        values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (ValueError, OSError) as exc:
        raise DataError(f"cannot parse attribute CSV {path}: {exc}") from exc
    return AttributeMatrix(values)


def write_attributes_binary(path, X: AttributeMatrix) -> None:
    with open(path, "wb") as fh:
        fh.write(ATTR_MAGIC)
        fh.write(struct.pack("<QQ", X.n, X.r))
        fh.write(X.values.astype("<f4").tobytes())


def write_attributes_csv(path, X: AttributeMatrix) -> None:
    np.savetxt(path, X.values, delimiter=",", fmt="%.17g")
