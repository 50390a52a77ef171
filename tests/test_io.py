import struct

import numpy as np
import pytest

from gelato import (AttributeMatrix, build_graph, load_graph,
                    read_attributes, read_edge_list, write_attributes_binary,
                    write_attributes_csv, write_edge_list)
from gelato.errors import DataError


def test_edge_list_round_trip(tmp_path):
    g = build_graph([(0, 1, 0.5), (1, 2, 1.5), (0, 3, 2.0)], 5)
    path = tmp_path / "g.edges"
    write_edge_list(path, g)
    g2 = load_graph(path)
    assert g2.n == 5
    np.testing.assert_array_equal(g.adjacency().toarray(),
                                  g2.adjacency().toarray())


def test_edge_list_unweighted_and_comments(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\nn 4\n0 1\n2 3  # trailing\n")
    edges, n = read_edge_list(path)
    assert n == 4
    assert edges.shape == (2, 2)


def test_edge_list_infers_n(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 7\n")
    _, n = read_edge_list(path)
    assert n == 8


def test_edge_list_bad_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1 2 3\n")
    with pytest.raises(DataError):
        read_edge_list(path)


def test_edge_list_non_integer_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("n abc\n0 1\n")
    with pytest.raises(DataError):
        read_edge_list(path)


def test_attributes_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = AttributeMatrix(rng.normal(size=(6, 3)).astype(np.float32))
    path = tmp_path / "attrs.bin"
    write_attributes_binary(path, X)
    X2 = read_attributes(path)
    assert (X2.n, X2.r) == (6, 3)
    np.testing.assert_allclose(X2.values, X.values, atol=1e-6)


def test_attributes_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    X = AttributeMatrix(rng.normal(size=(4, 5)))
    path = tmp_path / "attrs.csv"
    write_attributes_csv(path, X)
    X2 = read_attributes(path)
    np.testing.assert_allclose(X2.values, X.values, rtol=1e-15)


def test_attributes_truncated_binary(tmp_path):
    path = tmp_path / "attrs.bin"
    path.write_bytes(b"GATR" + b"\x00" * 10)
    with pytest.raises(DataError):
        read_attributes(path)


def test_attributes_truncated_binary_payload(tmp_path):
    path = tmp_path / "attrs.bin"
    write_attributes_binary(path, AttributeMatrix(np.ones((3, 2))))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError):
        read_attributes(path)


def test_attributes_binary_payload_with_trailing_bytes(tmp_path):
    path = tmp_path / "attrs.bin"
    write_attributes_binary(path, AttributeMatrix(np.ones((3, 2))))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(DataError, match="expected 6 float32 values"):
        read_attributes(path)


def test_attributes_binary_without_columns(tmp_path):
    path = tmp_path / "attrs.bin"
    path.write_bytes(b"GATR" + struct.pack("<QQ", 5, 0))
    with pytest.raises(DataError, match="no columns"):
        read_attributes(path)


@pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"])
def test_attributes_without_rows(tmp_path, text):
    path = tmp_path / "attrs.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="attrs.csv"):
        read_attributes(path)


def test_missing_file():
    with pytest.raises(DataError):
        read_edge_list("/nonexistent/file.edges")


def test_missing_attribute_file(tmp_path):
    with pytest.raises(DataError, match="cannot read attributes"):
        read_attributes(tmp_path / "none.attrs")
