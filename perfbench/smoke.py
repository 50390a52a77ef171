"""Fast self-check of the benchmark at toy sizes.

Run from the root of a checkout: ``python3 perfbench/smoke.py``. It runs
every workload path untraced and traced, records toy references and
checks that a rerun matches them, that a corrupted reference is
counted as failed calls and that a set-up which raises gives a result
with failed ops, checks that ``BENCHMARK.json`` declares exactly
the metrics the benchmark prints, and that the command refuses to run
outside a checkout. Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402

TOY = {"train-sparse": {"n": 80, "m": 160, "r": 8},
       "train-dense": {"n": 60},
       "eval-pool": {"n": 300, "m": 600}}
SEED = 5


def check(ok, message, failures):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def main():
    root = os.getcwd()
    failures = []
    work = os.path.join(root, ".bench_work", "smoke")
    os.makedirs(work, exist_ok=True)
    refs = os.path.join(work, "references.json")
    if os.path.exists(refs):
        os.remove(refs)

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py",
          failures)
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER,
          "BENCHMARK.json per_layer matches spans.py", failures)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py", failures)

    for workload, sizes in TOY.items():
        run.record(workload, SEED, root, refs_path=refs, sizes=sizes)
        plain = run.run(workload, SEED, 0.0, 0, root, refs_path=refs,
                        sizes=sizes)
        check(plain["reference"] == "compared" and plain["failed"] == 0
              and plain["attempted"] > 0,
              f"{workload}: untraced run matches its fresh reference",
              failures)
        check(all(v > 0 for v in plain["end_to_end"].values()),
              f"{workload}: end-to-end metrics are positive", failures)
        traced = run.run(workload, SEED, 0.0, 1, root, refs_path=refs,
                         sizes=sizes)
        layers = traced["per_layer"]
        check(traced["failed"] == 0
              and set(layers) == {name for name, _ in PER_LAYER},
              f"{workload}: traced run reports every per-layer metric",
              failures)
        check(layers["evaluator.pairs_streamed"] > 0
              and layers["evaluator.rows_calls"] > 0,
              f"{workload}: evaluator layers were traced", failures)
        if workload != "eval-pool":
            check(layers["trainer.batches"] > 0
                  and layers["splits.negatives"] > 0
                  and layers["heuristics.walk_rows"] > 0
                  and layers["trainer.ac_backward_s"] > 0,
                  f"{workload}: trainer and walk layers were traced",
                  failures)
        else:
            check(layers["heuristics.walk_rows"] == 0
                  and layers["heuristics.walk_s"] == 0,
                  f"{workload}: evaluation walks are not training walks",
                  failures)
        check(not traced["notes"], f"{workload}: every hook installed",
              failures)

    # a reference that no longer matches counts as failed calls
    with open(refs, encoding="utf-8") as fh:
        stored = json.load(fh)
    for entries in stored.values():
        for out in entries[str(SEED)]["outputs"]:
            out["test_ap"] *= 1.0 + 1e-6
    with open(refs, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    for workload, sizes in TOY.items():
        bad = run.run(workload, SEED, 0.0, 0, root, refs_path=refs,
                      sizes=sizes)
        check(bad["failed"]
              == len(bad["outputs"]) * bad["samples"]["passes"],
              f"{workload}: a moved test_ap fails one call per output",
              failures)

    # a set-up that raises is a failed op, and the run still reports
    prepare = run.prepare

    def broken_split(*args, **kwargs):
        wdir, info = prepare(*args, **kwargs)
        with open(os.path.join(wdir, "graph.split"), "w",
                  encoding="utf-8") as fh:
            fh.write("not a split file\n")
        return wdir, info

    run.prepare = broken_split
    try:
        bad = run.run("train-dense", SEED, 0.0, 0, root, refs_path=refs,
                      sizes=TOY["train-dense"])
    finally:
        run.prepare = prepare
    check(bad["failed"] > 0 and bad["failed"] <= bad["attempted"]
          and bad["failures"][0][0] == "setup",
          "a raising set-up counts as failed ops", failures)

    # outside a checkout the command refuses to run and prints no result
    empty = os.path.join(work, "empty")
    os.makedirs(empty, exist_ok=True)
    os.chdir(empty)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "eval-pool", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    os.chdir(root)
    check(code != 0 and not buf.getvalue(),
          "outside a checkout: non-zero exit, no result", failures)

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
