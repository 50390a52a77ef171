"""Benchmark of gelato's training and unbiased evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-sparse --seed 1 \\
        --seconds 40 --trace 0

The command generates the workload from the seed (``generate.py``),
writes it to ``.bench_work/`` in the documented file formats, and runs it
in a child process (``worker.py``) with BLAS pinned to one thread. It
prints the environment, a table of every end-to-end metric with its unit,
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result also goes to
``.bench_out/``.

Workloads (the caller is one closed loop, one call at a time):

* ``train-sparse``: Cora-shaped random graph (n=2708, m=5278, r=256),
  ``eta=.5 alpha=.5 beta=.25``, self-loops on all nodes, N-pair loss,
  unbiased negatives, 1 epoch of 10 batches. P^3 of the graph fills ~3%
  of n^2 (~10% with the augmentation and self-loops) and a batch scores
  ~366k negatives: the AC backward, negative sampling and the walk
  dominate.
* ``train-dense``: the two-block attribute SBM with n=400 (P^3 dense),
  two models (N-pair + unbiased, BCE + biased), 15 epochs x 5 batches
  each. Fixed per-batch costs (assemble, validation) show; a
  sparse-support kernel should leave it unchanged.
* ``eval-pool``: sparse random graph, n=20000, m=40000, no training;
  test-phase ``rank_summary`` with 2 workers for Autocovariance (t=3,
  self-loops on all nodes), then Resource Allocation. Each streams all
  2*10^8 pool pairs.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs an untraced child, then a traced child (``spans.py``)
for half the time each, and reports the per-layer metrics, the tracing
overhead and the part of each end-to-end time no layer accounts for.

Correctness: every call's outputs are checked against invariants and an
independent recomputation (``worker.py``), passes must agree bit for bit,
traced and untraced outputs must agree, and outputs are compared with
``references.json`` when it holds the seed. Integer outputs must match
exactly; floats within ``REFERENCE_RTOL``. ``--record`` stores the
current outputs of one pass as the seed's reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import generate  # noqa: E402
from spans import PER_LAYER  # noqa: E402

WORKLOADS = ("train-sparse", "train-dense", "eval-pool")
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("eval_s", "s"),
              ("peak_rss_mb", "MB")]
BLAS_THREADS = 1
EVAL_WORKERS = 2
REFERENCES = os.path.join(HERE, "references.json")
# Whole-command budget; the contract allows 180 s.
BUDGET_S = 170.0

# Float outputs (test AP, final epoch loss) may differ from the stored
# reference by this relative amount. Running the seed with two BLAS
# threads instead of one reorders the GEMM sums and moved the final
# N-pair loss of train-dense by 4e-16 relative and left every AP
# unchanged; 1e-9 leaves room for sums reordered by a rewritten kernel
# (ROADMAP asks such a kernel to match the loss to 1e-12 per batch)
# while any change of model or data moves these values far more.
REFERENCE_RTOL = 1e-9

# Output key -> the public call that produced it.
_CALL_OF = {"final_loss": "train", "epochs": "train",
            "pool": "rank_summary", "positives": "rank_summary",
            "counts_sha256": "rank_summary", "test_ap": "compute_report"}
_EXACT = ("epochs", "pool", "positives", "counts_sha256")
_CLOSE = ("final_loss", "test_ap")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "blas_threads": BLAS_THREADS,
            "rank_summary_workers": EVAL_WORKERS,
            "git_commit": commit, "src_sha256": h.hexdigest()}


def run_worker(root, workload, seed, wdir, seconds, trace, deadline):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--dir", wdir,
           "--root", root, "--seconds", repr(seconds),
           "--trace", str(trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the workload")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {remaining:.0f} s") \
            from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"workload process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_references(path):
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(workload, outputs):
    keys = ("name", "test_ap", "pool", "positives")
    keys += ("counts_sha256",) if workload == "eval-pool" \
        else ("final_loss", "epochs")
    return {"outputs": [{k: out[k] for k in keys} for out in outputs]}


def compare(outputs, reference):
    """(name, call, message) of every output that misses its reference."""
    bad = []
    wanted = reference["outputs"]
    if [o.get("name") for o in outputs] != [w["name"] for w in wanted]:
        return [("*", "*", "outputs do not match the reference's models")]
    for out, want in zip(outputs, wanted):
        for key in _EXACT + _CLOSE:
            if key not in want:
                continue
            got, ref = out.get(key), want[key]
            if key in _EXACT:
                ok = got == ref
            else:
                ok = isinstance(got, float) and math.isclose(
                    got, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
            if not ok:
                bad.append((want["name"], _CALL_OF[key],
                            f"{key} {got!r} != reference {ref!r}"))
    return bad


def count_failures(child, extra):
    """Failed calls of a child run: one per failed set-up and one per
    (pass, model, call)."""
    failed = len(child["setup_failed"])
    for p in child["passes"]:
        keys = {tuple(f[:2]) for f in p["failed"]}
        keys |= {f[:2] for f in extra}
        failed += len(keys)
    return failed


def median(values):
    return statistics.median(values) if values else 0.0


def samples(passes, key):
    """`key` of every pass."""
    return [p[key] for p in passes]


def prepare(workload, seed, root, sizes):
    """Write the workload's files; returns (directory, description)."""
    tag = f"{workload}-{seed}" + ("-toy" if sizes else "")
    wdir = os.path.join(root, ".bench_work", tag)
    return wdir, generate.generate(workload, seed, wdir, sizes=sizes)


def record(workload, seed, root, refs_path=REFERENCES, sizes=None):
    """Store the outputs of one checked pass as the seed's reference."""
    deadline = time.monotonic() + BUDGET_S
    wdir, _ = prepare(workload, seed, root, sizes)
    child = run_worker(root, workload, seed, wdir, 0.0, 0, deadline)
    failures = child["setup_failed"] + [f for p in child["passes"]
                                        for f in p["failed"]]
    if failures:
        raise BenchError(f"not recording a run with failed calls: "
                         f"{failures}")
    refs = load_references(refs_path)
    refs.setdefault(workload, {})[str(seed)] = reference_entry(
        workload, child["outputs"])
    with open(refs_path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return refs[workload][str(seed)]


def run(workload, seed, seconds, trace, root, refs_path=REFERENCES,
        sizes=None):
    """Generate, run and check one workload; returns the result dict."""
    deadline = time.monotonic() + BUDGET_S
    wdir, info = prepare(workload, seed, root, sizes)
    refs = load_references(refs_path)
    children = []
    split = seconds / 2.0 if trace else seconds
    children.append(run_worker(root, workload, seed, wdir, split, 0,
                               deadline))
    if trace:
        children.append(run_worker(root, workload, seed, wdir, split, 1,
                                   deadline))
    plain = children[0]

    ref = refs.get(workload, {}).get(str(seed))
    problems = [] if ref is None else compare(plain["outputs"], ref)
    if trace and children[1]["outputs"] != plain["outputs"]:
        problems.append(("*", "*", "traced outputs differ from untraced"))
    attempted = sum(c["setup_ops"] + sum(p["ops"] for p in c["passes"])
                    for c in children)
    failed = sum(count_failures(c, problems) for c in children)
    failed = min(failed, attempted)

    passes = plain["passes"]
    result = {
        "workload": workload, "seed": seed, "info": info,
        "reference": "none stored for this seed" if ref is None
        else "compared", "problems": [list(p) for p in problems],
        "failures": [f for c in children for f in c["setup_failed"]
                     + [f for p in c["passes"] for f in p["failed"]]],
        "attempted": attempted, "failed": failed,
        "samples": {"setup": sum(map(len, plain["setup_rounds"])),
                    "rounds": len(plain["setup_rounds"]),
                    "passes": len(passes),
                    "eval": plain["evaluations"],
                    "slots": len(plain["eval_slots"])},
        "passes": [{k: p[k] for k in ("train_s", "pipeline_s")}
                   for p in passes],
        "setup_rounds": plain["setup_rounds"],
        "eval_slots": plain["eval_slots"],
        "versions": plain["versions"], "outputs": plain["outputs"],
        "end_to_end": {
            "setup_s": plain["setup_s"],
            "pipeline_s": median(samples(passes, "pipeline_s")),
            "eval_s": plain["eval_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
        },
        "train_s": median(samples(passes, "train_s")),
    }
    if trace:
        result["per_layer"], result["layer_note"] = per_layer(plain,
                                                              children[1])
        result["self_times"] = children[1].get("self_times", {})
        result["notes"] = children[1].get("notes", [])
    return result


def per_layer(plain, traced):
    """Per-layer metrics: medians over traced passes; counts must repeat."""
    layers = traced.get("layers")
    if not layers:
        return {name: 0.0 for name, _ in PER_LAYER}, "no traced pass ran"
    out = {name: median([p.get(name, 0.0) for p in layers])
           for name, _ in PER_LAYER if name in layers[0]}
    note = ""
    counts = [name for name, unit in PER_LAYER if unit == "count"
              and name in layers[0]]
    if any(p[name] != layers[0][name] for p in layers for name in counts):
        note = "count metrics differ between traced passes"
    for name in counts:
        out[name] = layers[0][name]
    out["io.parse_s"] = median(traced["parse_s"])
    out["heuristics.pt_density"] = traced["pt_density"]
    out["trace.overhead_train_s"] = (
        median(samples(traced["passes"], "train_s"))
        - median(samples(plain["passes"], "train_s")))
    out["trace.overhead_eval_s"] = traced["eval_s"] - plain["eval_s"]
    for name, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    return out, note


def report(result, env, trace):
    """Human-readable lines printed before the JSON result."""
    e2e = result["end_to_end"]
    lines = [f"env {json.dumps(dict(env, **result['versions']))}",
             f"workload {result['workload']} seed {result['seed']} "
             f"(held-out seed {generate.HELD_OUT_SEED}); "
             f"{result['samples']['passes']} pass(es), "
             f"{result['samples']['setup']} set-ups; reference: "
             f"{result['reference']}"]
    train = f"{result['train_s']:.4f} s" \
        if result["workload"] != "eval-pool" else "n/a (no training)"
    n = result["samples"]
    rows = [("setup_s", f"{e2e['setup_s']:.5f} s",
             f"mean of {n['rounds']} rounds' median set-up "
             f"({n['setup']} set-ups)"),
            ("train_s", train, f"median of {n['passes']} passes"),
            ("eval_s", f"{e2e['eval_s']:.4f} s",
             "one evaluation of every model/scorer: per model the mean "
             f"of {n['slots']} slots' median ({n['eval']} evaluations)"),
            ("pipeline_s", f"{e2e['pipeline_s']:.4f} s",
             f"median of {n['passes']} passes: train calls + one "
             "evaluation"),
            ("peak_rss_mb", f"{e2e['peak_rss_mb']:.1f} MB",
             "workload process")]
    for out in result["outputs"]:
        if "test_ap" in out:
            rows.append(("test_ap", f"{out['test_ap']:.6g}", out["name"]))
    rows += [("ops", f"{result['attempted']} calls", "attempted"),
             ("ops_failed", f"{result['failed']} calls",
              "raised or failed a check")]
    lines += [f"  {k:<12} {v:<22} {why}" for k, v, why in rows]
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines += [f"  failure: {f}" for f in result["failures"]]
    if trace:
        lines.append("  layer self times of one traced pass "
                     "(calls, inclusive s, self s):")
        for name, (calls, incl, own) in sorted(result["self_times"].items()):
            lines.append(f"    {name:<28} {calls:>6} {incl:>10.4f} "
                         f"{own:>10.4f}")
        lines += [f"  note: {n}" for n in result["notes"]]
        if result["layer_note"]:
            lines.append(f"  note: {result['layer_note']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="gelato benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs in references.json")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gelato",
                                       "__init__.py")):
        print("perfbench: src/gelato not found; run from the root of a "
              "gelato checkout", file=sys.stderr)
        return 2
    try:
        if args.record:
            entry = record(args.workload, args.seed, root)
            print(f"recorded {args.workload} seed {args.seed}: "
                  f"{json.dumps(entry)}")
            return 0
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = environment(root)
    for line in report(result, env, args.trace):
        print(line)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-{args.seed}-trace"
                           f"{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, env=env, metrics=metrics), fh, indent=1,
                  sort_keys=True)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
