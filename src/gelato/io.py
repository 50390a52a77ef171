"""Dataset file formats.

Edge-list file (text): one "u v" or "u v w" per line with 0-based node
ids; '#' starts a comment; an optional first line "n <count>" fixes the
node count (otherwise n = max id + 1). Every line has the width of the
first. Ids are parsed as integers and weights as floats by numpy's text
reader, so an id written "3.0", "1_000" or with non-ASCII digits is
rejected.

Attribute file: either CSV (n >= 1 rows x r comma-separated columns) or the
binary layout: magic bytes "GATR", two little-endian 64-bit unsigned
integers n and r >= 1, then exactly n*r little-endian 32-bit floats
row-major. Values are held as float64 in memory regardless of storage
width.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from .errors import DataError
from .graph import AttributeMatrix, Graph, build_graph

ATTR_MAGIC = b"GATR"
_EDGE_FIELDS = [("u", np.int64), ("v", np.int64), ("w", np.float64)]


def read_edge_list(path):
    """Parse an edge-list file; returns (edges array, n)."""
    n_header, skip, width = None, 0, 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # the header and the first data line; numpy parses the rest
            for lineno, raw in enumerate(fh, start=1):
                parts = raw.split("#", 1)[0].split()
                if parts[:1] == ["n"] and n_header is None:
                    (n_header,) = map(int, parts[1:])
                    skip = lineno
                elif parts:
                    width = len(parts)
                    break
            if width not in (0, 2, 3):
                raise DataError(f"{path}:{lineno}: expected 'u v' or 'u v w'")
            edges = np.empty((0, 2))
            if width:  # loadtxt warns on a file without data
                fh.seek(0)
                rows = np.loadtxt(fh, _EDGE_FIELDS[:width], ndmin=1,
                                  skiprows=skip)
                edges = structured_to_unstructured(rows, dtype=np.float64)
    except OSError as exc:
        raise DataError(f"cannot read edge list {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"cannot parse edge list {path}: {exc}") from exc
    max_id = int(edges[:, :2].max()) if len(edges) else -1
    n = n_header if n_header is not None else max_id + 1
    return edges, n


def load_graph(path) -> Graph:
    edges, n = read_edge_list(path)
    return build_graph(edges, n)


def write_edge_list(path, g: Graph) -> None:
    """Write canonical edges with an "n" header; weights only if non-unit."""
    pairs, weights = g.edge_pairs(return_weights=True)
    weighted = bool(len(weights)) and not np.all(weights == 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for (u, v), w in zip(pairs.tolist(), weights.tolist()):
            fh.write(f"{u} {v} {w!r}\n" if weighted else f"{u} {v}\n")


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
                if len(payload) != 4 * n * r:
                    raise DataError(f"{path}: expected {n * r} float32 "
                                    f"values, got {len(payload)} bytes")
                values = np.frombuffer(payload, dtype="<f4", count=n * r)
                return AttributeMatrix(values.reshape(n, r))
            fh.seek(0)
            if not any(ln.split(b"#", 1)[0].strip() for ln in fh):
                raise DataError(f"attribute file {path} has no rows")
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
