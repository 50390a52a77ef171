"""Span tracer for the benchmark's traced run.

The program has no tracing of its own, so the traced run times the calls
into each layer from here: it replaces module attributes that
``gelato.trainer``, ``gelato.heuristics`` and ``gelato.evaluator`` look
up at call time with timing wrappers, and hands ``rank_summary`` a
delegating scorer. A hook whose attribute no longer exists is skipped
with a note; its metrics then read 0.

A span records its layer name, thread, start, end and parent. A layer's
self time is its duration minus the part of that interval that its child
spans on the same thread cover. ``rank_summary`` streams its pool on a
thread pool: the pool wrapper records each block scan as an
``evaluator.scan`` span on the worker thread, parented to an
``evaluator.pool_wait`` span on the calling thread, so counting work
done on the workers is not lost in the caller's waiting time. Layer
times are busy time summed over threads: with two pool workers,
``evaluator.rows_s`` + ``evaluator.count_s`` approach twice the wall
time of the scan. The unattributed remainder of a phase is the self
time of its phase span on the calling thread.

``heuristics.walk_*`` cover the walks made while a ``phase.train`` span
is open: the training forward pass and the per-epoch validation, both
part of ``train_s``. Walks made by a scorer during the test evaluation
are recorded as ``evaluator.walk`` spans, inside ``evaluator.rows``, and
count in no ``heuristics`` metric.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Per-layer metrics of the traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("io.parse_s", "s"),
    ("enhancer.augment_s", "s"),
    ("splits.sample_negatives_s", "s"),
    ("splits.negatives", "count"),
    ("trainer.forward_s", "s"),
    ("trainer.forward_self_s", "s"),
    ("enhancer.assemble_s", "s"),
    ("enhancer.active_pairs", "count"),
    ("heuristics.walk_s", "s"),
    ("heuristics.walk_rows", "count"),
    ("heuristics.walk_flops", "flop"),
    ("heuristics.pt_density", "fraction"),
    ("trainer.backward_s", "s"),
    ("trainer.backward_self_s", "s"),
    ("trainer.ac_backward_s", "s"),
    ("trainer.mlp_backward_s", "s"),
    ("trainer.adam_s", "s"),
    ("trainer.validation_s", "s"),
    ("trainer.validation_self_s", "s"),
    ("trainer.batches", "count"),
    ("trainer.batches_skipped", "count"),
    ("trainer.scored_pairs", "count"),
    ("evaluator.rank_summary_s", "s"),
    ("evaluator.rows_s", "s"),
    ("evaluator.rows_self_s", "s"),
    ("evaluator.rows_calls", "count"),
    ("evaluator.count_s", "s"),
    ("evaluator.pairs_streamed", "count"),
    ("evaluator.metrics_s", "s"),
    ("trace.train_s", "s"),
    ("trace.eval_s", "s"),
    ("trace.overhead_train_s", "s"),
    ("trace.overhead_eval_s", "s"),
    ("trace.unattributed_train_s", "s"),
    ("trace.unattributed_eval_s", "s"),
    ("trace.attributed_train_share", "fraction"),
    ("trace.attributed_eval_share", "fraction"),
]

# Phase spans opened by the workload itself around the timed calls.
TRAIN_PHASE = "phase.train"
EVAL_PHASE = "phase.eval"


class Tracer:
    """Collects spans and counters; one instance per traced pass."""

    def __init__(self):
        self.spans = []          # [name, thread id, start, end, parent]
        self.counters = defaultdict(float)
        self.phase = None        # the open phase span's name, if any
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, threading.get_ident(),
                               time.perf_counter(), None, parent])
        stack.append(index)
        if name in (TRAIN_PHASE, EVAL_PHASE):
            self.phase = name
        try:
            yield index
        finally:
            if name in (TRAIN_PHASE, EVAL_PHASE):
                self.phase = None
            stack.pop()
            self.spans[index][3] = time.perf_counter()

    def count(self, name, amount):
        with self._lock:
            self.counters[name] += amount

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus the union of its
        same-thread children's intervals."""
        children = defaultdict(list)
        for _, tid, start, end, parent in self.spans:
            if parent is not None and self.spans[parent][1] == tid:
                children[parent].append((start, end))
        out = []
        for i, (_, _, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def layer_totals(self):
        """(inclusive seconds, self seconds, calls) per span name."""
        selfs = self.self_times()
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for (name, _, start, end, _), s in zip(self.spans, selfs):
            incl[name] += end - start
            own[name] += s
            calls[name] += 1
        return incl, own, calls


def wrap_callable(tracer, owner, attr, span_name, after, notes):
    """Replace owner.attr by a timing wrapper.

    `span_name` is a name or a function of no arguments giving one.
    `after(args, result)` runs outside the span to update
    counters. A missing attribute is reported in `notes` and skipped.
    """
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None:
        notes.append(f"{getattr(owner, '__name__', owner)}.{attr} not "
                     f"found: {span_name} not measured (reads 0)")
        return

    name_of = span_name if callable(span_name) else lambda: span_name

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name_of()):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


class TracedScorer:
    """Delegating scorer that times and counts every rows() call."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer

    def rows(self, sources):
        with self.tracer.span("evaluator.rows"):
            out = self.inner.rows(sources)
        self.tracer.count("evaluator.rows_calls", 1)
        return out


def traced_pool_class(base, tracer):
    """Thread pool whose map() records each task as an evaluator.scan span
    on the worker thread, under an evaluator.pool_wait span on the caller."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            with tracer.span("evaluator.pool_wait") as wait:
                def run(*args):
                    with tracer.span("evaluator.scan", parent=wait):
                        return fn(*args)
                return list(super().map(run, *iterables, **kwargs))

    return TracedPool


def install(tracer, gelato_modules, notes):
    """Install every layer hook for the rest of the process."""
    trainer = gelato_modules["trainer"]
    heuristics = gelato_modules["heuristics"]
    evaluator = gelato_modules["evaluator"]

    def walk_name():
        return "heuristics.walk" if tracer.phase == TRAIN_PHASE \
            else "evaluator.walk"

    def walk_counts(args, result):
        if tracer.phase != TRAIN_PHASE:
            return
        P, sources, t = args[0], args[1], args[2]
        tracer.count("heuristics.walk_rows", len(sources))
        tracer.count("heuristics.walk_flops", 2 * len(sources) * P.nnz * t)

    def batch_counts(args, result):
        batch = args[5]
        negs = 0 if batch.negatives is None else len(batch.negatives)
        tracer.count("trainer.batches", 1)
        tracer.count("trainer.scored_pairs", len(batch.batch_pos) + negs)

    hooks = [
        (trainer, "select_augmentation_pairs", "enhancer.augment", None),
        (trainer, "sample_negatives", "splits.sample_negatives",
         lambda a, r: tracer.count("splits.negatives", len(r))),
        (trainer, "_forward", "trainer.forward", batch_counts),
        (trainer, "assemble_enhanced", "enhancer.assemble",
         lambda a, r: tracer.count("enhancer.active_pairs",
                                   int(r.active.sum()))),
        (trainer, "_walk_hits", walk_name, walk_counts),
        (heuristics, "_walk_hits", walk_name, walk_counts),
        (getattr(trainer, "Tape", None), "backward", "trainer.backward",
         None),
        (getattr(trainer, "Tape", None), "_ac_backward",
         "trainer.ac_backward", None),
        (getattr(trainer, "Tape", None), "_mlp_backward",
         "trainer.mlp_backward", None),
        (trainer, "adam_update", "trainer.adam", None),
        (trainer, "_validation_prec", "trainer.validation", None),
    ]
    for owner, attr, name, after in hooks:
        if owner is None:
            notes.append(f"gelato.trainer.Tape not found: {name} not "
                         "measured (reads 0)")
        else:
            wrap_callable(tracer, owner, attr, name, after, notes)
    pool = getattr(evaluator, "ThreadPoolExecutor", None)
    if pool is None:
        notes.append("gelato.evaluator.ThreadPoolExecutor not found: "
                     "pool scans are not split from waiting")
    else:
        evaluator.ThreadPoolExecutor = traced_pool_class(pool, tracer)


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass (times in seconds)."""
    incl, own, _ = tracer.layer_totals()
    c = tracer.counters
    train_s = incl[TRAIN_PHASE]
    eval_s = incl[EVAL_PHASE]
    un_train = own[TRAIN_PHASE]
    un_eval = own[EVAL_PHASE]
    return {
        "enhancer.augment_s": incl["enhancer.augment"],
        "splits.sample_negatives_s": incl["splits.sample_negatives"],
        "splits.negatives": c["splits.negatives"],
        "trainer.forward_s": incl["trainer.forward"],
        "trainer.forward_self_s": own["trainer.forward"],
        "enhancer.assemble_s": incl["enhancer.assemble"],
        "enhancer.active_pairs": c["enhancer.active_pairs"],
        "heuristics.walk_s": incl["heuristics.walk"],
        "heuristics.walk_rows": c["heuristics.walk_rows"],
        "heuristics.walk_flops": c["heuristics.walk_flops"],
        "trainer.backward_s": incl["trainer.backward"],
        "trainer.backward_self_s": own["trainer.backward"],
        "trainer.ac_backward_s": incl["trainer.ac_backward"],
        "trainer.mlp_backward_s": incl["trainer.mlp_backward"],
        "trainer.adam_s": incl["trainer.adam"],
        "trainer.validation_s": incl["trainer.validation"],
        "trainer.validation_self_s": own["trainer.validation"],
        "trainer.batches": c["trainer.batches"],
        "trainer.batches_skipped": c["trainer.batches_skipped"],
        "trainer.scored_pairs": c["trainer.scored_pairs"],
        "evaluator.rank_summary_s": incl["evaluator.rank_summary"],
        "evaluator.rows_s": incl["evaluator.rows"],
        "evaluator.rows_self_s": own["evaluator.rows"],
        "evaluator.rows_calls": c["evaluator.rows_calls"],
        "evaluator.pairs_streamed": c["evaluator.pairs_streamed"],
        # rank_summary self time, summed over the caller and pool threads
        "evaluator.count_s": (own["evaluator.rank_summary"]
                              + own["evaluator.scan"]),
        "evaluator.metrics_s": incl["evaluator.metrics"],
        "trace.train_s": train_s,
        "trace.eval_s": eval_s,
        "trace.unattributed_train_s": un_train,
        "trace.unattributed_eval_s": un_eval,
        "trace.attributed_train_share":
            1.0 - un_train / train_s if train_s > 0 else 0.0,
        "trace.attributed_eval_share":
            1.0 - un_eval / eval_s if eval_s > 0 else 0.0,
    }


def self_time_table(tracer):
    """{span name: (calls, inclusive s, self s)} for the printed breakdown."""
    incl, own, calls = tracer.layer_totals()
    return {name: (calls[name], incl[name], own[name]) for name in incl}
