import json
import struct

import numpy as np
import pytest

import gelato
from gelato import AttributeMatrix, cli, write_attributes_csv, write_edge_list
from gelato.cli import build_parser, main
from gelato.config import ExperimentConfig, config_from_text, config_to_text
from gelato.errors import NumericError

from conftest import make_attribute_sbm


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    g, X = make_attribute_sbm(48, seed=0, p_in=0.35, p_out=0.03)
    edges = root / "toy.edges"
    attrs = root / "toy.attrs"
    write_edge_list(edges, g)
    write_attributes_csv(attrs, X)
    split = root / "toy.split"
    rc = main(["split", "--edges", str(edges), "--out", str(split),
               "--ratios", "0.7", "0.1", "0.2", "--split-seed", "0"])
    assert rc == 0
    return {"edges": str(edges), "attrs": str(attrs), "split": str(split),
            "root": root, "g": g, "X": X}


def test_split_is_byte_deterministic(dataset, tmp_path):
    again = tmp_path / "again.split"
    rc = main(["split", "--edges", dataset["edges"], "--out", str(again),
               "--ratios", "0.7", "0.1", "0.2", "--split-seed", "0"])
    assert rc == 0
    with open(dataset["split"], "rb") as fh:
        first = fh.read()
    assert again.read_bytes() == first


def test_split_bad_ratios_exit_code(dataset, tmp_path):
    rc = main(["split", "--edges", dataset["edges"],
               "--out", str(tmp_path / "x.split"),
               "--ratios", "0.7", "0.1", "0.1"])
    assert rc == 2


def test_missing_edges_is_data_error(tmp_path):
    rc = main(["split", "--edges", str(tmp_path / "none.edges"),
               "--out", str(tmp_path / "x.split")])
    assert rc == 3


def test_node_ids_whose_codes_overflow_are_data_errors(tmp_path):
    edges = tmp_path / "huge.edges"
    edges.write_text(f"0 1\n1 {2 ** 62}\n")
    out = tmp_path / "huge.split"
    assert main(["split", "--edges", str(edges), "--out", str(out)]) == 3
    assert not out.exists()


def test_unallocatable_node_count_is_data_error(tmp_path):
    """A node count that fits the pair codes but whose O(n) graph arrays
    (22.6 GiB) cannot be allocated exits 3. The child caps its own address
    space at 1 GiB before importing gelato, so the allocation fails at
    once and the arrays are never touched, whatever the host's memory."""
    import os
    import subprocess
    import sys
    from gelato.graph import MAX_NODES
    edges = tmp_path / "big.edges"
    edges.write_text(f"n {MAX_NODES}\n0 1\n")
    out = tmp_path / "big.split"
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.path.insert(0, sys.argv.pop(1))\n"
            "from gelato.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", code, src, "split", "--edges", str(edges),
         "--out", str(out)], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 3, done.stderr
    assert f"node count {MAX_NODES}" in done.stderr
    assert not out.exists()


def test_split_with_an_empty_phase_is_data_error(tmp_path):
    # 8 edges floor to 0 valid and 0 test positives at the default ratios
    edges = tmp_path / "path.edges"
    edges.write_text("n 9\n" + "".join(f"{i} {i + 1}\n" for i in range(8)))
    out = tmp_path / "path.split"
    assert main(["split", "--edges", str(edges), "--out", str(out)]) == 3
    assert not out.exists()


def test_baseline_heuristics_and_report(dataset, tmp_path, capsys):
    report_path = tmp_path / "cn.json"
    rc = main(["baseline", "--kind", "cn", "--edges", dataset["edges"],
               "--split", dataset["split"], "--report", str(report_path),
               "--prec", "0.5", "1.0", "--hits", "10", "100"])
    assert rc == 0
    payload = json.loads(report_path.read_text())
    assert set(payload["prec_at"]) == {"0.5", "1.0"}
    assert set(payload["hits_at"]) == {"10", "100"}
    assert 0.0 <= payload["ap"] <= 1.0
    assert not payload["biased"]


def test_baseline_matches_library_path(dataset, tmp_path):
    report_path = tmp_path / "ac.json"
    rc = main(["baseline", "--kind", "ac", "--edges", dataset["edges"],
               "--split", dataset["split"], "--report", str(report_path),
               "--t", "2"])
    assert rc == 0
    payload = json.loads(report_path.read_text())

    split = gelato.read_split(dataset["split"])
    g = gelato.load_graph(dataset["edges"])
    g_train = gelato.build_graph(split.train_pos, split.n)
    looped = gelato.add_self_loops(g_train, "isolated-only", 1.0)
    from gelato.scorers import AutocovarianceScorer
    rs = gelato.rank_summary(AutocovarianceScorer(looped, 2), g, split,
                             "test")
    assert payload["ap"] == gelato.average_precision(rs)


def test_cosine_baseline_matches_brute_force(dataset, tmp_path):
    from conftest import brute_force_counts, enumerate_pool
    from gelato.scorers import CosineScorer
    report_path = tmp_path / "cos.json"
    rc = main(["baseline", "--kind", "cos", "--edges", dataset["edges"],
               "--attributes", dataset["attrs"], "--split", dataset["split"],
               "--report", str(report_path)])
    assert rc == 0
    payload = json.loads(report_path.read_text())

    split = gelato.read_split(dataset["split"])
    g = gelato.load_graph(dataset["edges"])
    X = gelato.read_attributes(dataset["attrs"])
    rs = gelato.rank_summary(CosineScorer(X), g, split, "test")
    pos = gelato.cosine_pairs(X, split.test_pos)
    above, tied = brute_force_counts(
        pos, gelato.cosine_pairs(X, enumerate_pool(split, "test")))
    # the scorer's matrix product and cosine_pairs' einsum round apart
    np.testing.assert_allclose(rs.pos_scores, pos, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(rs.neg_above, above)
    np.testing.assert_array_equal(rs.neg_tied, tied)
    assert payload["ap"] == gelato.average_precision(rs)


def _no_scoring(*args):
    raise AssertionError("the pool was scored")


def test_unreportable_phase_is_refused_before_scoring(dataset, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "_build_scorer", _no_scoring)
    base = ["baseline", "--kind", "cn", "--edges", dataset["edges"]]
    # a fraction that rounds to k = 0 of the split's test positives
    assert main(base + ["--split", dataset["split"],
                        "--prec", "0.0001"]) == 2
    # a hand-written split whose test phase has no positives
    split = gelato.read_split(dataset["split"])
    empty = gelato.EdgeSplit(
        n=split.n, train_pos=np.vstack([split.train_pos, split.test_pos]),
        valid_pos=split.valid_pos, test_pos=np.empty((0, 2), np.int64),
        seed=0, ratios=split.ratios)
    path = tmp_path / "no-test.split"
    gelato.write_split(path, empty)
    assert main(base + ["--split", str(path)]) == 3


def test_zero_width_attributes_are_a_data_error(tmp_path, capsys):
    from conftest import random_graph
    edges = tmp_path / "g.edges"
    write_edge_list(edges, random_graph(np.random.default_rng(0), 60, 150))
    split = tmp_path / "g.split"
    assert main(["split", "--edges", str(edges), "--out", str(split)]) == 0
    attrs = tmp_path / "empty.gatr"
    attrs.write_bytes(b"GATR" + struct.pack("<QQ", 60, 0))
    rc = main(["train", "--edges", str(edges), "--attributes", str(attrs),
               "--split", str(split), "--epochs", "1", "--hidden", "4",
               "--out-checkpoint", str(tmp_path / "m.gpar")])
    assert rc == 3
    assert "no columns" in capsys.readouterr().err


def test_train_eval_round_trip(dataset, tmp_path, capsys):
    ck = tmp_path / "model.gpar"
    hist = tmp_path / "hist.log"
    rc = main(["train", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "gelato", "--epochs", "3", "--batch-count", "3",
               "--neg-cap", "10", "--hidden", "8", "--t", "2",
               "--seed", "1", "--out-checkpoint", str(ck),
               "--out-history", str(hist)])
    assert rc == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 3

    report_path = tmp_path / "gelato.json"
    pr_path = tmp_path / "pr.csv"
    rc = main(["eval", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "gelato", "--t", "2", "--hidden", "8",
               "--checkpoint", str(ck), "--report", str(report_path),
               "--pr-csv", str(pr_path)])
    assert rc == 0
    payload = json.loads(report_path.read_text())
    assert 0.0 <= payload["ap"] <= 1.0
    assert pr_path.read_text().startswith("recall,precision")


def test_eval_trained_mode_requires_checkpoint(dataset):
    rc = main(["eval", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "gelato"])
    assert rc == 2


def test_train_ac_only_is_notice(dataset, tmp_path, capsys):
    rc = main(["train", "--edges", dataset["edges"], "--split",
               dataset["split"], "--mode", "ac-only",
               "--out-checkpoint", str(tmp_path / "no.gpar")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no trainable parameters" in out
    assert not (tmp_path / "no.gpar").exists()


def test_biased_eval_banner_and_flag(dataset, tmp_path, capsys):
    rc = main(["eval", "--edges", dataset["edges"], "--split",
               dataset["split"], "--mode", "ac-only",
               "--biased-neg-per-pos", "1", "--eval-seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "BIASED" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["biased"] is True


def test_eval_reports_are_reproducible(dataset, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(["eval", "--edges", dataset["edges"], "--split",
                   dataset["split"], "--mode", "ac-only", "--report",
                   str(p), "--workers", "4"])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_export_scores_consistency(dataset, tmp_path):
    out_s = tmp_path / "scores.csv"
    out_w = tmp_path / "weights.csv"
    rc = main(["export-scores", "--edges", dataset["edges"], "--split",
               dataset["split"], "--mode", "ac-only", "--t", "2",
               "--nodes", "0", "3", "5",
               "--out-scores", str(out_s), "--out-weights", str(out_w)])
    assert rc == 0
    rows = [line.split(",") for line in out_s.read_text().splitlines()]
    assert [r[0] for r in rows] == ["0", "3", "5"]

    split = gelato.read_split(dataset["split"])
    g_train = gelato.build_graph(split.train_pos, split.n)
    looped = gelato.add_self_loops(g_train, "isolated-only", 1.0)
    ref = gelato.AutocovarianceScorer(looped, 2).rows([0, 3, 5])
    got = np.array([[float(x) for x in r[1:]] for r in rows])
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=1e-300)

    rc2 = main(["export-scores", "--edges", dataset["edges"], "--split",
                dataset["split"], "--mode", "ac-only", "--t", "2",
                "--nodes", "5", "3", "0", "--out-scores",
                str(tmp_path / "s2.csv"), "--out-weights",
                str(tmp_path / "w2.csv")])
    assert rc2 == 0
    assert (tmp_path / "s2.csv").read_bytes() == out_s.read_bytes()


def test_export_scores_subset_budget(dataset, tmp_path):
    rc = main(["export-scores", "--edges", dataset["edges"], "--split",
               dataset["split"], "--mode", "ac-only", "--block-size", "2",
               "--nodes", "0", "1", "2",
               "--out-scores", str(tmp_path / "s.csv"),
               "--out-weights", str(tmp_path / "w.csv")])
    assert rc == 2


def test_config_round_trip():
    cfg = ExperimentConfig(edges="a.edges", eta=0.5, alpha=0.25,
                           hits=(10, 50), mode="cos-ac")
    text = config_to_text(cfg)
    cfg2 = config_from_text(text)
    assert cfg2 == cfg
    assert config_to_text(cfg2) == text


@pytest.mark.parametrize("value", ["data#1/g.edges", " g.edges",
                                   "g.edges\t"])
def test_show_config_refuses_an_unwritable_value(capsys, value):
    # the line would read back as another value
    assert main(["show-config", "--edges", value]) == 2
    assert capsys.readouterr().out == ""


def test_config_file_plus_flag_override(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"edges {dataset['edges']}\neta 0.5\nseed 9\n")
    rc = main(["show-config", "--config", str(cfg_path), "--eta", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    parsed = config_from_text(out)
    assert parsed.eta == 0.25  # flag wins
    assert parsed.seed == 9    # file survives

    rc = main(["show-config", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [
    ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"), ("--hidden", "0"),
    ("--block-size", "0"), ("--eta", "nan"), ("--eta", "inf"),
    ("--self-loop-weight", "nan"), ("--self-loop-weight", "inf"),
    ("--neg-cap", "-5"), ("--prec", "1.5"), ("--prec", "0"), ("--hits", "0"),
    ("--workers", "-1"), ("--biased-neg-per-pos", "-1"),
    ("--ratios", "nan 0.2 0.2"), ("--ratios", "0.5 0.5 0.5"),
    ("--ratios", "0.7 0.3 0"), ("--batch-count", "0"),
])
def test_show_config_rejects_invalid_values(capsys, flag, value):
    """`value` holds the flag's space-separated values."""
    assert main(["show-config", flag, *value.split()]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["split", "--out", "{bad}"],
    ["eval", "--mode", "ac-only", "--split", "{split}", "--report", "{bad}"],
    ["baseline", "--kind", "cn", "--split", "{split}", "--pr-csv", "{bad}"],
    ["train", "--attributes", "{attrs}", "--split", "{split}",
     "--epochs", "1", "--batch-count", "3", "--neg-cap", "2", "--hidden",
     "4", "--out-checkpoint", "{bad}"],
    ["export-scores", "--mode", "ac-only", "--split", "{split}", "--nodes",
     "0", "1", "--out-scores", "{bad}", "--out-weights", "{bad}"],
])
def test_unwritable_output_is_config_error(dataset, tmp_path, capsys, args):
    bad = str(tmp_path / "missing-dir" / "out")
    argv = [a.format(bad=bad, split=dataset["split"], attrs=dataset["attrs"])
            for a in args]
    assert main(argv + ["--edges", dataset["edges"]]) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("an input was read or a pool scored")


@pytest.mark.parametrize("args", [
    ["eval", "--mode", "ac-only", "--report", "{ok}", "--pr-csv", "{bad}"],
    ["baseline", "--kind", "ra", "--report", "{ok}", "--pr-csv", "{bad}"],
    ["export-scores", "--mode", "ac-only", "--nodes", "0", "1",
     "--out-scores", "{ok}", "--out-weights", "{bad}"],
    ["split", "--out", "{bad}"],
])
def test_outputs_are_checked_before_any_input(dataset, tmp_path, capsys,
                                              monkeypatch, args):
    monkeypatch.setattr(cli, "load_graph", _no_work)
    monkeypatch.setattr(cli, "rank_summary", _no_work)
    ok, bad = tmp_path / "ok", str(tmp_path / "missing-dir" / "out")
    argv = [a.format(ok=ok, bad=bad) for a in args]
    assert main(argv + ["--edges", dataset["edges"],
                        "--split", dataset["split"]]) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err
    assert not ok.exists()


# the override flags of the hand-written parser the derived one replaced
SEED_FLAGS = {
    "--edges", "--attributes", "--split", "--split-seed", "--eta", "--alpha",
    "--beta", "--self-loop-mode", "--self-loop-weight", "--hidden", "--mode",
    "--loss", "--regime", "--lr", "--epochs", "--batch-count", "--neg-cap",
    "--dropout", "--t", "--seed", "--phase",
    "--biased-neg-per-pos", "--eval-seed", "--block-size", "--workers",
    "--ratios", "--prec", "--hits",
}


def test_parser_flags_are_the_config_fields():
    sub = build_parser()._subparsers._group_actions[0].choices
    for name, parser in sub.items():
        flags = {opt for action in parser._actions
                 for opt in action.option_strings}
        assert flags - {"-h", "--help", "--config"} >= SEED_FLAGS, name
    show = {opt for action in sub["show-config"]._actions
            for opt in action.option_strings}
    assert show - {"-h", "--help", "--config"} == SEED_FLAGS
    assert len(SEED_FLAGS) == 28


def test_readme_flags_are_accepted():
    import os
    import re
    parser = build_parser()
    accepted = {opt for p in (parser, *parser._subparsers._group_actions[0]
                              .choices.values())
                for action in p._actions for opt in action.option_strings}
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        named = {flag for line in fh if "pip install" not in line
                 for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
    assert named
    assert not named - accepted, sorted(named - accepted)


def test_readme_exit_2_examples_are_refused(capsys):
    """Every backticked `--flag value...` example in README's exit-code-2
    bullet is refused before any input is read; the output flags, listed
    without a value, are skipped."""
    import os
    import re
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    bullet = text[text.index("* `2`:"):text.index("* `3`:")]
    examples = re.findall(r"`(--[a-z][a-z0-9-]*(?: [^`\s]+)+)`",
                          " ".join(bullet.split()))
    assert "--ratios nan 0.2 0.2" in examples
    for example in examples:
        assert main(["show-config", *example.split()]) == 2, example
    assert capsys.readouterr().out == ""


def test_sub_config_defaults_agree():
    assert ExperimentConfig().enhancer() == gelato.EnhancerConfig()
    assert ExperimentConfig().trainer() == gelato.TrainConfig()


def test_checkpoint_width_mismatch_is_data_error(dataset, tmp_path):
    ck = tmp_path / "wide.gpar"
    gelato.save_params(ck, gelato.init_mlp_params(dataset["X"].r + 2, 4))
    rc = main(["eval", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "gelato", "--checkpoint", str(ck)])
    assert rc == 3


def test_checkpoint_non_finite_is_data_error(dataset, tmp_path):
    params = gelato.init_mlp_params(dataset["X"].r, 4)
    params.W2[0] = np.nan
    ck = tmp_path / "nan.gpar"
    gelato.save_params(ck, params)
    rc = main(["eval", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "gelato", "--hidden", "4", "--checkpoint", str(ck)])
    assert rc == 3


@pytest.mark.parametrize("size", [10, 25])  # in the header; mid-value
def test_truncated_checkpoint_is_data_error(dataset, tmp_path, size):
    ck = tmp_path / "cut.gpar"
    gelato.save_params(ck, gelato.init_mlp_params(dataset["X"].r, 4))
    ck.write_bytes(ck.read_bytes()[:size])
    rc = main(["eval", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "gelato", "--hidden", "4", "--checkpoint", str(ck)])
    assert rc == 3


def _train_argv(dataset, *outputs):
    return ["train", "--edges", dataset["edges"], "--attributes",
            dataset["attrs"], "--split", dataset["split"], "--epochs", "1",
            "--batch-count", "3", "--neg-cap", "2", "--hidden", "4",
            *outputs]


def _no_training(*args, **kwargs):
    raise AssertionError("training ran")


@pytest.mark.parametrize("outputs", [
    ["--out-checkpoint", "{bad}"],
    ["--out-checkpoint", "{ck}", "--out-history", "{bad}"],
])
def test_train_checks_outputs_before_training(dataset, tmp_path, capsys,
                                              monkeypatch, outputs):
    monkeypatch.setattr(cli, "train", _no_training)
    bad = str(tmp_path / "missing-dir" / "out")
    ck = tmp_path / "c.gpar"
    argv = _train_argv(dataset, *[a.format(bad=bad, ck=ck) for a in outputs])
    assert main(argv) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err
    assert not ck.exists()


def test_failed_training_keeps_existing_outputs(dataset, tmp_path,
                                                monkeypatch):
    def diverge(*args, **kwargs):
        raise NumericError("diverged")

    monkeypatch.setattr(cli, "train", diverge)
    ck, hist = tmp_path / "c.gpar", tmp_path / "h.log"
    ck.write_bytes(b"old checkpoint")
    hist.write_text("old history\n")
    assert main(_train_argv(dataset, "--out-checkpoint", str(ck),
                            "--out-history", str(hist))) == 4
    assert ck.read_bytes() == b"old checkpoint"
    assert hist.read_text() == "old history\n"


@pytest.mark.parametrize("flag, code", [("--edges", 3), ("--split", 3),
                                        ("--config", 2)])
def test_non_utf8_input_is_an_error(dataset, tmp_path, flag, code):
    bad = tmp_path / "latin1"
    bad.write_bytes(b"\xff\xfe0 1\n")
    inputs = {"--edges": dataset["edges"], "--split": dataset["split"],
              flag: str(bad)}
    argv = ["eval", "--mode", "ac-only"]
    for key, value in inputs.items():
        argv += [key, value]
    assert main(argv) == code


def test_split_of_another_graph_is_data_error(tmp_path):
    # a valid 5-node split whose TRAIN edge 0-4 the graph does not have
    split = tmp_path / "five.split"
    split.write_text("# gelato edge split\nn 5\nseed 0\n"
                     "ratios 0.6 0.2 0.2\nTRAIN 4\n0 4\n1 2\n2 3\n3 4\n"
                     "VALID 1\n0 2\nTEST 1\n1 3\n")
    own, other = tmp_path / "own.edges", tmp_path / "other.edges"
    own.write_text("n 5\n0 4\n1 2\n2 3\n3 4\n0 2\n1 3\n")
    other.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n0 2\n1 3\n")
    args = ["baseline", "--kind", "cn", "--prec", "1.0", "--split", str(split)]
    assert main(args + ["--edges", str(own)]) == 0
    assert main(args + ["--edges", str(other)]) == 3


def test_config_unknown_key():
    with pytest.raises(gelato.ConfigError):
        config_from_text("frobnicate 3\n")


def test_mlp_only_two_stage_modes(dataset, tmp_path):
    ck = tmp_path / "mlp.gpar"
    rc = main(["train", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "mlp-only", "--epochs", "2", "--batch-count", "3",
               "--neg-cap", "5", "--hidden", "8",
               "--out-checkpoint", str(ck)])
    assert rc == 0
    for mode in ("mlp-only", "mlp-ac-two-stage"):
        report = tmp_path / f"{mode}.json"
        rc = main(["eval", "--edges", dataset["edges"], "--attributes",
                   dataset["attrs"], "--split", dataset["split"],
                   "--mode", mode, "--t", "2", "--hidden", "8",
                   "--checkpoint", str(ck), "--report", str(report)])
        assert rc == 0
        assert 0.0 <= json.loads(report.read_text())["ap"] <= 1.0


def test_cos_ac_mode_needs_no_checkpoint(dataset, tmp_path):
    report = tmp_path / "cosac.json"
    rc = main(["eval", "--edges", dataset["edges"], "--attributes",
               dataset["attrs"], "--split", dataset["split"],
               "--mode", "cos-ac", "--eta", "0.25", "--alpha", "0.5",
               "--t", "2", "--report", str(report)])
    assert rc == 0
    assert 0.0 <= json.loads(report.read_text())["ap"] <= 1.0
