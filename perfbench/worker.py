"""One workload in one process: set up, then timed passes of public calls.

Started by ``run.py`` with BLAS pinned to one thread through the
environment, so the pin is in place before numpy loads. The caller is a
single closed loop: each public call starts after the previous one
returns. A pass is a fixed sequence of steps, one per model:

* ``train-sparse``: ``train`` (N-pair loss, unbiased negatives, 1 epoch);
* ``train-dense``: ``train`` of two models, N-pair + unbiased, then
  BCE + biased;
* ``eval-pool``: no training; the models are the Autocovariance and
  Resource Allocation scorers.

A step is a round of ``SETUPS_PER_ROUND`` set-ups, the model's train
call, one test-phase ``rank_summary`` + ``compute_report`` of the model,
then ``EVAL_REPEATS - 1`` evaluations of every model trained so far. The
last set-up of a pass's first round is the state its calls use. Passes
repeat while another one fits in ``--seconds`` (at least one); the time
left after the last is filled with slots of a set-up round and
``EVAL_REPEATS`` evaluations of every model. Set-up and evaluation
samples are thus spread over the whole run, between the train calls,
rather than bunched at the end of a pass, and their means over rounds
and slots average the host's speed over the run.

The process prints one JSON object: set-up and evaluation times,
per-pass times and outputs, the invariant checks it made, and with
``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans as tr  # noqa: E402

# Fixed work per step, from per-call times measured on a shared 2-vCPU
# Xeon: a set-up takes about 25 ms (train-sparse), 35 ms (train-dense)
# and 200 ms (eval-pool); a train call about 11 s (train-sparse) and
# 6 s (each train-dense model); a trained model's test evaluation about
# 0.28 s (train-sparse) and 0.025 s (train-dense), so an evaluation slot
# lasts about 1.1 s (train-sparse) or 1 s (train-dense) and two passes
# fit in a 40 s run. Only a model's first evaluation after its train
# call is part of pipeline_s.
SETUPS_PER_ROUND = {"train-sparse": 12, "train-dense": 10, "eval-pool": 3}
EVAL_REPEATS = {"train-sparse": 4, "train-dense": 20, "eval-pool": 1}
EVAL_WORKERS = 2
AC_T = 3

# Relative tolerance for float outputs compared with an independent
# recomputation inside this process (summation order differs).
RECOMPUTE_RTOL = 1e-12


def import_gelato(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import gelato
    import gelato.evaluator
    import gelato.heuristics
    import gelato.trainer
    return gelato


def models(workload, seed):
    """(name, EnhancerConfig, TrainConfig) of each trained model."""
    from gelato.enhancer import EnhancerConfig
    from gelato.trainer import TrainConfig
    if workload == "train-sparse":
        enh = EnhancerConfig(eta=0.5, alpha=0.5, beta=0.25,
                             self_loop_mode="all")
        return [("npair-unbiased", enh,
                 TrainConfig(loss="npair", regime="unbiased", epochs=1,
                             seed=seed, ac_t=AC_T))]
    if workload == "train-dense":
        enh = EnhancerConfig(eta=0.0, alpha=0.0, beta=1.0,
                             self_loop_mode="all")
        return [(f"{loss}-{regime}", enh,
                 TrainConfig(loss=loss, regime=regime, lr=0.001, epochs=15,
                             batch_count=5, seed=seed, dropout=0.5,
                             ac_t=AC_T, hidden=32, neg_cap=40))
                for loss, regime in (("npair", "unbiased"),
                                     ("bce", "biased"))]
    return []


def setup(gelato, workload, wdir):
    """Parse the workload files and build what the timed calls take.

    Returns (state, parse seconds).
    """
    t0 = time.perf_counter()
    g = gelato.load_graph(os.path.join(wdir, "graph.edges"))
    split = gelato.read_split(os.path.join(wdir, "graph.split"))
    attr_path = os.path.join(wdir, "graph.gatr")
    X = gelato.read_attributes(attr_path) if os.path.exists(attr_path) \
        else None
    parse_s = time.perf_counter() - t0
    g_train = gelato.build_graph(
        np.column_stack([split.train_pos, g.pair_weights(split.train_pos)]),
        split.n, undirected=True)
    state = {"g": g, "split": split, "X": X, "g_train": g_train}
    if workload == "eval-pool":
        state["scorers"] = [
            ("ac", gelato.AutocovarianceScorer(
                gelato.add_self_loops(g_train, "all"), AC_T)),
            ("ra", gelato.LocalHeuristicScorer("ra", g_train)),
        ]
    return state, parse_s


def counts_digest(rs):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(rs.neg_above, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(rs.neg_tied, dtype="<i8").tobytes())
    return h.hexdigest()


def recomputed_ap(rs):
    """Pessimistic-tie AP recomputed from the counts by a separate route:
    i positives at or above a score, over i plus the negatives at or
    above it."""
    s = np.sort(rs.pos_scores)
    at_or_above = len(s) - np.searchsorted(s, rs.pos_scores, side="left")
    terms = at_or_above / (at_or_above + rs.neg_above + rs.neg_tied)
    return float(np.sum(terms) / len(terms))


def pt_density(graph, t):
    """nnz(P^t) / n^2 of a graph's transition pattern."""
    A = graph.adjacency().copy().tocsr()
    A.data[:] = 1.0
    M = A
    for _ in range(t - 1):
        M = (M @ A).tocsr()
        M.data[:] = 1.0
    return M.nnz / float(graph.n) ** 2


class Setups:
    """Set-up samples of the whole run, taken in rounds of a fixed size.

    A set-up counts as one op; one that raises is a failed op, gives no
    sample and ends its round.
    """

    def __init__(self, gelato, workload, wdir, count):
        self.gelato, self.workload, self.wdir = gelato, workload, wdir
        self.count = count
        self.rounds = []   # seconds of each good set-up, per round
        self.parse_s = []
        self.ops = 0
        self.failed = []   # (name, call, message) per failed set-up

    def round(self):
        """One round; returns the state of its last good set-up or None."""
        state, times = None, []
        for _ in range(self.count):
            self.ops += 1
            t0 = time.perf_counter()
            try:
                state, parse = setup(self.gelato, self.workload, self.wdir)
            except Exception as exc:  # a raising set-up is a failed op
                traceback.print_exc(file=sys.stderr)
                self.failed.append(("setup", "raised", repr(exc)))
                break
            times.append(time.perf_counter() - t0)
            self.parse_s.append(parse)
        self.rounds.append(times)
        return state

    def seconds(self):
        """Mean over rounds of each round's median set-up time."""
        medians = [statistics.median(r) for r in self.rounds if r]
        return statistics.mean(medians) if medians else 0.0


class Evals:
    """Test evaluations of the whole run, per slot and model.

    A slot is a block of evaluations between two train calls or
    set-up rounds. Each model's time is the mean over slots of its
    median within the slot: the median drops a call that was
    descheduled, and the mean over slots spread through the run
    averages the host's speed over the run.
    """

    def __init__(self):
        self.slots = []    # {model name: [seconds, ...]} per slot
        self.first = {}    # model name -> outputs of its first evaluation

    def open(self):
        self.slots.append({})

    def add(self, name, seconds):
        self.slots[-1].setdefault(name, []).append(seconds)

    def count(self):
        return sum(len(v) for slot in self.slots for v in slot.values())

    def seconds(self):
        """One evaluation of every model: the sum of their times."""
        per_model = {}
        for slot in self.slots:
            for name, times in slot.items():
                per_model.setdefault(name, []).append(
                    statistics.median(times))
        return sum(statistics.mean(v) for v in per_model.values())


class Pass:
    """Outputs, times and failed calls of one pass."""

    def __init__(self, tracer, state):
        self.tracer = tracer
        self.state = state      # set-up state the pass's calls use
        self.train_s = 0.0
        self.pipeline_s = 0.0   # train calls + one evaluation of each model
        self.wall_s = 0.0       # the whole pass, set-up rounds included
        self.ops = 0
        self.failed = []        # (name, call, message) per failed call
        self.outputs = {}       # name -> outputs of the pass's models
        self.density_graph = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def check(self, ok, name, call, message):
        if not ok:
            self.failed.append((name, call, message))

    def guarded(self, name, calls, fn):
        """fn() with `calls` public calls counted as attempted; a raise
        is recorded as a failed call and gives None."""
        self.ops += calls
        try:
            return fn()
        except Exception as exc:  # a raising call is a failed op
            traceback.print_exc(file=sys.stderr)
            self.failed.append((name, "raised", repr(exc)))
            return None


def evaluate(gelato, p, name, scorer, state, info):
    """Test-phase rank_summary + compute_report, checked.

    Returns (outputs, seconds spent in the two calls).
    """
    g, split = state["g"], state["split"]
    if p.tracer:
        scorer = tr.TracedScorer(scorer, p.tracer)
    t0 = time.perf_counter()
    with p.span(tr.EVAL_PHASE):
        with p.span("evaluator.rank_summary"):
            rs = gelato.rank_summary(scorer, g, split, "test",
                                     workers=EVAL_WORKERS)
        with p.span("evaluator.metrics"):
            rep = gelato.compute_report(rs)
    spent = time.perf_counter() - t0
    if p.tracer:
        p.tracer.count("evaluator.pairs_streamed", rs.total_negatives)
    n, m = info["n"], info["m"]
    pool = n * (n - 1) // 2 - m
    p.check(rs.num_positives == info["test"]
            and rs.total_negatives == pool
            and bool(np.all(rs.neg_above + rs.neg_tied <= pool)),
            name, "rank_summary", "counts outside the pool")
    ap_ref = recomputed_ap(rs)
    p.check(0.0 < rep.ap <= 1.0
            and abs(rep.ap - ap_ref) <= RECOMPUTE_RTOL * ap_ref,
            name, "compute_report", f"AP {rep.ap!r} != recomputed {ap_ref!r}")
    return {"test_ap": rep.ap, "pool": rs.total_negatives,
            "positives": rs.num_positives,
            "counts_sha256": counts_digest(rs)}, spent


def evaluate_into(gelato, p, evals, name, scorer, info):
    """One checked evaluation recorded in the open slot; returns its
    outputs and seconds, or None when it raised. Every evaluation of a
    model must reproduce its first one bit for bit."""
    done = p.guarded(name, 2, partial(evaluate, gelato, p, name, scorer,
                                      p.state, info))
    if done is None:
        return None
    out, seconds = done
    evals.add(name, seconds)
    first = evals.first.setdefault(name, out)
    p.check(out == first, name, "determinism",
            "evaluation differs from the model's first one")
    return done


def train_model(gelato, p, name, enh, cfg, state):
    """Train one model; returns the test-phase scorer of its structure."""
    g, split, X = state["g"], state["split"], state["X"]
    t0 = time.perf_counter()
    with p.span(tr.TRAIN_PHASE):
        params, history = gelato.train(g, X, split, enh, cfg)
    p.train_s += time.perf_counter() - t0
    skipped = sum(r.skipped for r in history)
    if p.tracer:
        p.tracer.count("trainer.batches_skipped", skipped)
    final = history[-1].loss if history else float("nan")
    p.check(len(history) == cfg.epochs and np.isfinite(final)
            and skipped == 0,
            name, "train", "history incomplete, non-finite or with skipped "
            "batches")
    p.outputs[name] = {"final_loss": final, "epochs": len(history)}
    eg = gelato.build_enhanced_graph(state["g_train"], X, params, enh,
                                     training=False)
    state.setdefault("density_graph", eg.graph)
    return gelato.AutocovarianceScorer(eg.graph, AC_T)


def run_pass(gelato, workload, seed, setups, evals, scorers, info,
             repeats, tracer=None):
    """One pass; None when its first set-up round produced no state.

    A step per model (per scorer on eval-pool): a set-up round (the
    pass's first gives the state its calls use), the train call, one
    evaluation of the model, which is part of pipeline_s, then
    ``repeats - 1`` evaluations of every model trained so far in the
    run. `scorers` maps model names to their latest scorer.
    """
    t_pass = time.perf_counter()
    state = setups.round()
    if state is None:
        return None
    p = Pass(tracer, state)
    if workload == "eval-pool":
        steps = [(name, None, None) for name, _ in state["scorers"]]
    else:
        steps = models(workload, seed)
    for i, (name, enh, cfg) in enumerate(steps):
        if i:
            setups.round()
        if cfg is None:
            scorer = state["scorers"][i][1]
        else:
            scorer = p.guarded(name, 1, partial(train_model, gelato, p, name,
                                                enh, cfg, state))
            if scorer is None:
                continue
        scorers[name] = scorer
        evals.open()
        done = evaluate_into(gelato, p, evals, name, scorer, info)
        if done is not None:
            p.outputs.setdefault(name, {}).update(done[0])
            p.pipeline_s += done[1]
        for _ in range(repeats - 1):
            for other, sc in scorers.items():
                evaluate_into(gelato, p, evals, other, sc, info)
    p.pipeline_s += p.train_s
    p.density_graph = state.get("density_graph")
    if p.density_graph is None and "scorers" in state:
        p.density_graph = state["scorers"][0][1].graph
    p.wall_s = time.perf_counter() - t_pass
    return p


def fill_slot(gelato, p, setups, evals, scorers, info, repeats):
    """A set-up round and `repeats` evaluations of every model, in the
    time left after the last whole pass; calls are accounted to `p`."""
    setups.round()
    evals.open()
    for _ in range(repeats):
        for name, scorer in scorers.items():
            evaluate_into(gelato, p, evals, name, scorer, info)


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gelato = import_gelato(args.root)
    with open(os.path.join(args.dir, "workload.json"),
              encoding="utf-8") as fh:
        info = json.load(fh)

    setups = Setups(gelato, args.workload, args.dir,
                    SETUPS_PER_ROUND[args.workload])
    tracer = notes = None
    if args.trace:
        tracer, notes = tr.Tracer(), []
        tr.install(tracer, {"trainer": gelato.trainer,
                            "heuristics": gelato.heuristics,
                            "evaluator": gelato.evaluator}, notes)

    # one evaluation per traced pass keeps its layer times per pass
    repeats = 1 if tracer else EVAL_REPEATS[args.workload]
    evals, scorers = Evals(), {}
    passes, layer_passes, tables = [], [], []
    peak_rss_mb = 0.0
    t_start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        p = run_pass(gelato, args.workload, args.seed, setups, evals,
                     scorers, info, repeats, tracer)
        if p is None:
            break
        passes.append(p)
        if len(passes) == 1:
            # peak of set-up plus one pass: later passes only add heap
            # fragmentation, which varies from run to run
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            layer_passes.append(tr.pass_metrics(tracer))
            tables.append(tr.self_time_table(tracer))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(q.wall_s for q in passes)
        if elapsed + typical > args.seconds:
            break

    # the time left after the last whole pass goes to evaluation slots
    slot_s = []
    while passes and scorers and not tracer:
        expected = statistics.median(slot_s) if slot_s else (
            setups.count * setups.seconds() + repeats * evals.seconds())
        if time.perf_counter() - t_start + expected > args.seconds:
            break
        t0 = time.perf_counter()
        fill_slot(gelato, passes[-1], setups, evals, scorers, info,
                  repeats)
        slot_s.append(time.perf_counter() - t0)

    # every pass must reproduce the first one's outputs bit for bit
    first = passes[0].outputs if passes else {}
    for p in passes[1:]:
        p.check(p.outputs == first, "*", "determinism",
                "outputs differ from the first pass")

    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_rounds": setups.rounds, "parse_s": setups.parse_s,
        "setup_ops": setups.ops, "setup_failed": setups.failed,
        "setup_s": setups.seconds(), "eval_s": evals.seconds(),
        "eval_slots": evals.slots, "evaluations": evals.count(),
        "passes": [{"train_s": p.train_s, "pipeline_s": p.pipeline_s,
                    "ops": p.ops, "failed": p.failed} for p in passes],
        "outputs": [dict(out, name=name) for name, out in first.items()],
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "gelato": getattr(gelato, "__version__", "unknown")},
    }
    if tracer and passes:
        result["layers"] = layer_passes
        result["self_times"] = tables[0]
        result["notes"] = notes
        graph = passes[-1].density_graph
        result["pt_density"] = 0.0 if graph is None \
            else pt_density(graph, AC_T)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
