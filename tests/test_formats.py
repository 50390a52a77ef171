"""Properties of the input file formats.

Every prefix of a valid file (a truncated download, a full disk) either
loads or raises DataError, never another exception; and writing then
reading returns the same data bit for bit. A config value that a config
line cannot hold is refused when written.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelato import (AttributeMatrix, ExperimentConfig, build_graph,
                    config_from_text, config_to_text, init_mlp_params,
                    load_graph, load_params, read_attributes,
                    read_edge_list, read_split, save_params,
                    write_attributes_binary, write_edge_list, write_split)
from gelato.config import MODES
from gelato.errors import ConfigError, DataError
from gelato.splits import EdgeSplit

FINITE = st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "file"


@st.composite
def edge_rows(draw, loops=True, max_n=12):
    """(n, distinct pairs u <= v) of a small graph."""
    n = draw(st.integers(2, max_n))
    cand = [(u, v) for u in range(n) for v in range(u + (not loops), n)]
    pairs = draw(st.lists(st.sampled_from(cand), min_size=1, max_size=16,
                          unique=True))
    return n, pairs


@st.composite
def edge_list_texts(draw):
    """An edge-list file, weighted or not, with or without a header, and
    with comments and blank lines in between."""
    n, pairs = draw(edge_rows())
    weights = draw(st.lists(st.floats(0.0, 1e6), min_size=len(pairs),
                            max_size=len(pairs)))
    weighted = draw(st.booleans())
    lines = [f"{u} {v}" + (f" {w!r}" if weighted else "")
             + draw(st.sampled_from(["", "  # trailing"]))
             for (u, v), w in zip(pairs, weights)]
    for extra in draw(st.lists(st.sampled_from(["# comment", "", "   "]),
                               max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.insert(0, f"n {n}")
    return ("\n".join(lines) + "\n").encode()


@st.composite
def splits(draw):
    n, pairs = draw(edge_rows(loops=False, max_n=9))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a, b = sorted(draw(st.integers(0, len(pairs))) for _ in range(2))
    ratios = tuple(draw(st.floats(0.0, 1.0, exclude_min=True))
                   for _ in range(3))
    return EdgeSplit(n=n, train_pos=pairs[:a], valid_pos=pairs[a:b],
                     test_pos=pairs[b:], seed=draw(st.integers(0, 2**63)),
                     ratios=ratios)


def _file_bytes(scratch, write, obj):
    write(scratch, obj)
    return scratch.read_bytes()


def _prefixes_load_or_raise_data_error(scratch, data, load):
    """Load every prefix of `data`, the whole file last, which must load;
    returns how many prefixes loaded."""
    loaded = 0
    for k in range(len(data) + 1):
        scratch.write_bytes(data[:k])
        try:
            load(scratch)
        except DataError:
            assert k < len(data)
            continue
        loaded += 1
    return loaded


@settings(max_examples=25, deadline=None)
@given(data=edge_list_texts())
def test_edge_list_prefixes(scratch, data):
    _prefixes_load_or_raise_data_error(scratch, data, load_graph)


@settings(max_examples=25, deadline=None)
@given(split=splits())
def test_split_prefixes(scratch, split):
    data = _file_bytes(scratch, write_split, split)
    _prefixes_load_or_raise_data_error(scratch, data, read_split)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(0, 4), r=st.integers(1, 3), seed=st.integers(0, 99))
def test_attribute_binary_prefixes(scratch, n, r, seed):
    X = AttributeMatrix(np.random.default_rng(seed).normal(size=(n, r)))
    data = _file_bytes(scratch, write_attributes_binary, X)
    _prefixes_load_or_raise_data_error(scratch, data, read_attributes)


@settings(max_examples=15, deadline=None)
@given(r=st.integers(1, 3), hidden=st.integers(1, 3))
def test_checkpoint_prefixes(scratch, r, hidden):
    data = _file_bytes(scratch, save_params, init_mlp_params(r, hidden))
    # only the whole file loads
    assert _prefixes_load_or_raise_data_error(scratch, data,
                                              load_params) == 1


@settings(max_examples=40, deadline=None)
@given(rows=edge_rows(), data=st.data())
def test_edge_list_text_round_trip_is_bit_exact(scratch, rows, data):
    """Ids and any finite weight written as the writer writes them (repr)
    read back bit for bit."""
    n, pairs = rows
    w = np.array(data.draw(st.lists(FINITE, min_size=len(pairs),
                                    max_size=len(pairs))))
    scratch.write_text(f"n {n}\n" + "".join(
        f"{u} {v} {x!r}\n" for (u, v), x in zip(pairs, w.tolist())))
    edges, n_read = read_edge_list(scratch)
    assert n_read == n
    assert edges.dtype == np.float64 and edges.shape == (len(pairs), 3)
    np.testing.assert_array_equal(edges[:, :2], pairs)
    np.testing.assert_array_equal(edges[:, 2].view(np.int64),
                                  w.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(rows=edge_rows(), data=st.data())
def test_write_edge_list_round_trip_is_bit_exact(scratch, rows, data):
    n, pairs = rows
    weights = data.draw(st.lists(
        FINITE.map(abs).filter(lambda x: x > 0) | st.just(1.0),
        min_size=len(pairs), max_size=len(pairs)))
    g = build_graph([(u, v, x) for (u, v), x in zip(pairs, weights)], n)
    write_edge_list(scratch, g)
    edges, n_read = read_edge_list(scratch)
    g_pairs, g_weights = g.edge_pairs(return_weights=True)
    assert n_read == g.n
    np.testing.assert_array_equal(edges[:, :2], g_pairs)
    if edges.shape[1] == 3:
        np.testing.assert_array_equal(edges[:, 2].view(np.int64),
                                      g_weights.view(np.int64))
    else:
        assert (g_weights == 1.0).all()


@settings(max_examples=40, deadline=None)
@given(split=splits())
def test_split_round_trip(scratch, split):
    data = _file_bytes(scratch, write_split, split)
    back = read_split(scratch)
    assert (back.n, back.seed) == (split.n, split.seed)
    assert np.array_equal(np.array(back.ratios).view(np.int64),
                          np.array(split.ratios).view(np.int64))
    for phase in ("train", "valid", "test"):
        got = back.positives(phase)
        assert got.dtype == np.int64 and got.shape == \
            split.positives(phase).shape
        np.testing.assert_array_equal(got, split.positives(phase))
    assert _file_bytes(scratch, write_split, back) == data


def _read_back(name, value):
    """What a config line "name value" reads as, None where it is refused."""
    try:
        return getattr(config_from_text(f"{name} {value}\n"), name)
    except ConfigError:
        return None


_WRITABLE = st.text(max_size=12).filter(lambda s: _read_back("edges", s) == s)
_POSITIVE = st.floats(1e-6, 1e6)
_INTEGERS = st.integers(1, 2 ** 62)
_CONFIG_VALUES = {
    "edges": _WRITABLE, "attributes": _WRITABLE, "split": _WRITABLE,
    "ratios": st.tuples(_POSITIVE, _POSITIVE, _POSITIVE).map(
        lambda r: tuple(x / sum(r) for x in r)),  # valid ratios sum to 1
    "eta": st.floats(0.0, 1e6), "alpha": st.floats(0.0, 1.0),
    "beta": st.floats(0.0, 1.0), "self_loop_weight": _POSITIVE,
    "self_loop_mode": st.sampled_from(["all", "isolated-only"]),
    "mode": st.sampled_from(MODES), "loss": st.sampled_from(["npair", "bce"]),
    "regime": st.sampled_from(["unbiased", "biased"]), "lr": _POSITIVE,
    "dropout": st.floats(0.0, 0.999),
    "phase": st.sampled_from(["train", "valid", "test"]),
    "prec": st.lists(st.floats(1e-3, 1.0), min_size=1,
                     max_size=4).map(tuple),
    "hits": st.lists(st.integers(1, 10 ** 9), min_size=1,
                     max_size=4).map(tuple),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_valid_config_round_trips(data):
    values = {f.name: data.draw(_CONFIG_VALUES.get(f.name, _INTEGERS),
                                label=f.name)
              for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(**values).validate()
    text = config_to_text(cfg)
    back = config_from_text(text)
    assert back == cfg
    assert config_to_text(back) == text


@settings(max_examples=200, deadline=None)
@given(value=st.text(max_size=8) | st.sampled_from(
    ["data#1/g.edges", " a", "a\n", "a\nb", "a\x85b", "a\u2028", "a b"]))
def test_a_string_value_is_written_exactly_or_refused(value):
    cfg = ExperimentConfig(edges=value)
    if _read_back("edges", value) == value:
        assert config_from_text(config_to_text(cfg)) == cfg
    else:
        with pytest.raises(ConfigError):
            config_to_text(cfg)
