"""Command-line interface.

Subcommands: split | train | eval | baseline | export-scores. Options
come from an optional key-value config file plus flags; flags win. Exit
codes: 0 success, 2 configuration error or an output that cannot be
written, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .config import (STRUCTURE_MODES, TRAINED_MODES, TUPLE_TYPES,
                     ExperimentConfig, config_to_text, load_config)
from .enhancer import build_enhanced_graph, load_params, save_params
from .errors import ConfigError, DataError, NumericError
from .evaluator import (biased_sample_metrics, compute_report, rank_summary,
                        report_to_json, top_k, write_pr_csv)
from .graph import add_self_loops
from .io import load_graph, read_attributes
from .scorers import (AutocovarianceScorer, CosineScorer,
                      LocalHeuristicScorer, MlpScorer)
from .splits import (check_split, negative_pool_size, read_split,
                     split_edges, train_graph, write_split)
from .trainer import train


def _add_common(parser):
    """--config plus one override flag per ExperimentConfig field."""
    parser.add_argument("--config", help="key-value config file")
    for f in fields(ExperimentConfig):
        flag = f"--{f.name.replace('_', '-')}"
        if f.name in TUPLE_TYPES:
            parser.add_argument(flag, type=TUPLE_TYPES[f.name], default=None,
                                nargs=3 if f.name == "ratios" else "+")
        else:
            parser.add_argument(flag, type=type(f.default), default=None)


def _resolve_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name,
                    tuple(value) if isinstance(value, list) else value)
    return cfg.validate()


def _load_graph(cfg):
    if not cfg.edges:
        raise ConfigError("no edge-list file configured (--edges)")
    return load_graph(cfg.edges)


def _load_run(cfg):
    """(graph, attributes, split); no attributes for a mode that reads none."""
    g, X = _load_graph(cfg), None
    if cfg.mode not in STRUCTURE_MODES:
        if not cfg.attributes:
            raise ConfigError("this mode needs --attributes")
        X = read_attributes(cfg.attributes)
        X.check_rows(g.n)
    if not cfg.split:
        raise ConfigError("no split file configured (--split)")
    split = read_split(cfg.split)
    check_split(g, split)
    return g, X, split


def _check_writable(*paths) -> None:
    """Refuse each given output that could not be written, without opening
    it. Every subcommand calls this before it reads any input, so that no
    run fails after its work or its first outputs, or truncates them."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        target = path if os.path.exists(path) else folder
        if (os.path.isdir(path) or not os.path.isdir(folder)
                or not os.access(target, os.W_OK)):
            raise ConfigError(f"cannot write {path}")


def _build_scorer(cfg, g, X, split, checkpoint):
    """(scorer, structure graph) over the training edges, per mode."""
    g_train = train_graph(g, split)
    mode = cfg.mode
    if mode.startswith("heuristic:"):
        kind = mode.split(":", 1)[1]
        if kind == "cos":
            return CosineScorer(X), g_train
        return LocalHeuristicScorer(kind, g_train), g_train
    if mode == "ac-only":
        looped = add_self_loops(g_train, cfg.self_loop_mode,
                                cfg.self_loop_weight)
        return AutocovarianceScorer(looped, cfg.t), looped

    params = None
    if mode in TRAINED_MODES:
        if not checkpoint:
            raise ConfigError(f"mode {mode} needs --checkpoint")
        params = load_params(checkpoint)
        if params.r != X.r:
            raise DataError(f"checkpoint r ({params.r}) != attribute "
                            f"width ({X.r})")
    if mode == "mlp-only":
        return MlpScorer(params, X), g_train
    enh = cfg.enhancer()
    if mode == "cos-ac":
        enh = replace(enh, beta=0.0)
    eg = build_enhanced_graph(g_train, X, params, enh)
    return AutocovarianceScorer(eg.graph, cfg.t), eg.graph


# -- subcommands ---------------------------------------------------------------

def cmd_split(args) -> int:
    cfg = _resolve_config(args)
    _check_writable(args.out)
    g = _load_graph(cfg)
    split = split_edges(g, cfg.ratios, cfg.split_seed)
    write_split(args.out, split)
    print(f"wrote {args.out}")
    print(f"n {split.n}  edges {split.num_edges}")
    print(f"train {len(split.train_pos)}  valid {len(split.valid_pos)}"
          f"  test {len(split.test_pos)}")
    for phase in ("train", "valid", "test"):
        print(f"{phase} negative pool {negative_pool_size(g, split, phase)}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if cfg.mode not in TRAINED_MODES:
        print(f"mode {cfg.mode} has no trainable parameters; nothing to do "
              "(run eval directly)")
        return 0
    _check_writable(args.out_checkpoint, args.out_history)
    g, X, split = _load_run(cfg)
    params, history = train(g, X, split, cfg.enhancer(), cfg.trainer())
    save_params(args.out_checkpoint, params)
    lines = ["# epoch loss valid_prec skipped"]
    for rec in history:
        lines.append(f"{rec.epoch} {rec.loss!r} {rec.valid_prec!r} "
                     f"{rec.skipped}")
    text = "\n".join(lines) + "\n"
    if args.out_history:
        with open(args.out_history, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    skipped = sum(rec.skipped for rec in history)
    best = max((rec.valid_prec for rec in history
                if not np.isnan(rec.valid_prec)), default=float("nan"))
    print(f"wrote {args.out_checkpoint}; best valid prec@100% {best!r}; "
          f"{skipped} invalid-gradient batches skipped")
    return 0


def _check_reportable(cfg, split):
    """Refuse, before any scoring, a phase whose metrics cannot be
    reported: one without positives, or a prec fraction giving k = 0."""
    count = len(split.positives(cfg.phase))
    if count == 0:
        raise DataError(f"the {cfg.phase} phase has no positives to rank")
    for fraction in cfg.prec:
        top_k(fraction, count)


def _report(cfg, g, X, split, checkpoint):
    scorer, _ = _build_scorer(cfg, g, X, split, checkpoint)
    if cfg.biased_neg_per_pos > 0:
        report = biased_sample_metrics(
            scorer, g, split, cfg.biased_neg_per_pos, cfg.eval_seed,
            phase=cfg.phase, prec_fractions=cfg.prec, hits_ks=cfg.hits)
        report.meta["mode"] = cfg.mode
        return report
    rs = rank_summary(scorer, g, split, cfg.phase,
                      block_size=cfg.block_size, workers=cfg.workers)
    return compute_report(rs, cfg.prec, cfg.hits,
                          meta={"phase": cfg.phase, "mode": cfg.mode})


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    _check_writable(args.report, args.pr_csv)
    g, X, split = _load_run(cfg)
    _check_reportable(cfg, split)
    report = _report(cfg, g, X, split, args.checkpoint)
    if report.biased:
        print("=" * 60)
        print("==  BIASED evaluation: negatives were downsampled.      ==")
        print("==  Metrics overestimate unbiased performance.          ==")
        print("=" * 60)
    print(report_to_json(report), end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    if args.pr_csv:
        write_pr_csv(args.pr_csv, report)
    return 0


def cmd_baseline(args) -> int:
    args.mode = {"ac": "ac-only"}.get(args.kind, f"heuristic:{args.kind}")
    args.checkpoint = None
    return cmd_eval(args)


def cmd_export_scores(args) -> int:
    cfg = _resolve_config(args)
    _check_writable(args.out_scores, args.out_weights)
    g, X, split = _load_run(cfg)
    if not 0 <= min(args.nodes) <= max(args.nodes) < g.n:  # before int64
        raise DataError("node id out of range")
    nodes = np.asarray(sorted(set(args.nodes)), dtype=np.int64)
    if len(nodes) > cfg.block_size:
        raise ConfigError(
            f"subset of {len(nodes)} exceeds the memory budget "
            f"({cfg.block_size} rows); raise --block-size deliberately")
    scorer, structure = _build_scorer(cfg, g, X, split, args.checkpoint)
    for path, rows in ((args.out_scores, scorer.rows(nodes)),
                       (args.out_weights,
                        structure.adjacency()[nodes].toarray())):
        np.savetxt(path, np.column_stack([nodes, rows]), delimiter=",",
                   fmt=["%d"] + ["%.17g"] * g.n)
    print(f"wrote {args.out_scores} and {args.out_weights} "
          f"({len(nodes)} rows x {g.n} columns)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelato",
        description="Link prediction via attribute-enhanced graphs and "
                    "random-walk similarity, with unbiased evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="generate a train/valid/test edge split")
    _add_common(p)
    p.add_argument("--out", required=True, help="split file to write")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the enhancement MLP end-to-end")
    _add_common(p)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None,
                   help="write per-epoch records here instead of stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank-based evaluation (unbiased default)")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--report", default=None, help="write JSON report here")
    p.add_argument("--pr-csv", default=None, help="write PR curve CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="evaluate an untrained heuristic")
    _add_common(p)
    p.add_argument("--kind", required=True,
                   choices=("cn", "aa", "ra", "cos", "ac"))
    p.add_argument("--report", default=None)
    p.add_argument("--pr-csv", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("export-scores",
                       help="dump dense score and weight rows for a node subset")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--nodes", nargs="+", type=int, required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--out-weights", required=True)
    p.set_defaults(func=cmd_export_scores)

    p = sub.add_parser("show-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_show_config)
    return parser


def cmd_show_config(args) -> int:
    print(config_to_text(_resolve_config(args)), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # the loaders turn failed reads into DataError
        print(f"config error: cannot write {exc.filename or 'output'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
