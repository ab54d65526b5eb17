"""The common-eig benchmark: seeded matrix pairs with a known common spectrum,
fed to the program from one process, answers checked against the truth.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense_scan --seed 1 --seconds 30 --trace 0

``--trace 0`` times a closed loop (the next pair is sent when the previous
one has finished) for ``--seconds`` and prints the end-to-end metrics.
Seconds are adjusted to the speed of a fixed reference workload sampled
between pairs (see ``speed.py``); the unadjusted figures are printed
beside them.  ``--trace 1`` runs each pair untraced and then again with
timing wrappers around the program's public functions, prints the
per-layer metrics and the tracing overhead, and fails if the program's own
evaluation counts disagree with the calls counted from outside.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``correct`` covers the benchmark's own checks (the eigvals oracle on the
inputs, the counter check); wrong answers from the program are counted in
``common_recall``, ``common_precision`` and ``failed``.

Inputs, outputs and span files go under ``.perfbench_work/`` in the
checkout.  The program is imported from ``src/`` of the same checkout; the
benchmark exits non-zero without a result when it is not there.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    kind: str  # generator family, see generate.make_pairs
    client: str  # key of workloads.CLIENTS
    pool: int  # pairs generated per seed; the loop cycles through them
    why: str
    layer: str


WORKLOADS = {
    "dense_scan": Workload(
        kind="dense",
        client="pipeline",
        pool=48,
        why="dense nonsymmetric n=60, 6 real eigenvalues (3 shared) among complex "
        "pairs: wide bounds and few roots, so the scan grid carries most char_fn work",
        layer="rootfind.scan -> matrix.char_fn",
    ),
    "sym_bisect": Workload(
        kind="symmetric",
        client="pipeline",
        pool=64,
        why="symmetric n=30, all 30 eigenvalues real (4 shared): every eigenvalue "
        "is a root, so bisection carries most char_fn work; clusters expose cell misses",
        layer="rootfind.bisect -> matrix.char_fn",
    ),
    "cli_small": Workload(
        kind="small",
        client="cli",
        pool=300,
        why="orders 3-8 through run_cli with --json --svg --scan-table, 20% of pairs "
        "scaled by 1e-4 or 1e4: per-call overhead, parsing, emitters, CLI re-scan",
        layer="cli + reporting + matrix.parse_matrix",
    ),
}

END_TO_END = {
    "pairs_per_s": "1/s",
    "pair_s.p50": "s",
    "pair_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "common_recall": "share",
    "common_precision": "share",
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def setup_seconds(workload: Workload, inputs: Path, outdir: Path, reference) -> list[float]:
    """Import + parse + one warm-up pair, in each of SETUP_PROBES fresh
    interpreters, each adjusted to reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        reference.sample()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload.client,
             str(inputs), str(outdir)],
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
            check=True,
        )
        reference.sample()
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(seconds * reference.factor(start))
    return samples


@dataclass
class Tally:
    """Per-pair times and answer scores of one loop."""

    times: list
    starts: list
    attempted: int = 0
    failed: int = 0
    truths: int = 0
    reported: int = 0
    matched: int = 0

    def add(self, other: "Tally") -> None:
        self.times += other.times
        self.starts += other.starts
        for name in ("attempted", "failed", "truths", "reported", "matched"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def closed_loop(client, pairs, seconds, min_pairs, run=None, reference=None) -> Tally:
    """Send pairs one after another until ``seconds`` have passed and at
    least ``min_pairs`` have finished; time each call, then score it.
    Between pairs, sample ``reference`` when one is due."""
    from workloads import MATCH_TOL, BadOutput, count_matches

    run = run or client.run
    tally = Tally(times=[], starts=[])
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_pairs:
        pair = pairs[i % len(pairs)]
        i += 1
        if reference is not None:
            reference.sample_if_due()
        t0 = time.perf_counter()
        try:
            outcome = run(pair)
        except Exception:  # any raise is a failed pair, counted below
            outcome = None
        tally.times.append(time.perf_counter() - t0)
        tally.starts.append(t0)
        tally.attempted += 1
        tally.truths += len(pair.common)
        try:
            if outcome is None:
                raise BadOutput("raised")
            values = client.answer(pair, outcome)
        except BadOutput:
            tally.failed += 1
            continue
        tally.reported += len(values)
        tally.matched += count_matches(pair.common, values, MATCH_TOL * pair.scale)
    if reference is not None:
        reference.sample()
    return tally


def tail(times) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_run(workload, pairs, inputs, outdir, seconds):
    import workloads
    from speed import REFERENCE_S, Reference

    reference = Reference()
    setups = setup_seconds(workload, inputs, outdir, reference)
    client = workloads.CLIENTS[workload.client](pairs, outdir)
    client.load()
    client.answer(pairs[0], client.run(pairs[0]))  # warm-up, untimed
    tally = closed_loop(client, pairs, seconds, min_pairs=TAIL_BEYOND + 1, reference=reference)
    times = [dt * reference.factor(t0) for t0, dt in zip(tally.starts, tally.times)]
    tail_s, tail_pct = tail(times)
    metrics = {
        "pairs_per_s": len(times) / sum(times),
        "pair_s.p50": statistics.median(times),
        "pair_s.tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "common_recall": tally.matched / tally.truths,
        "common_precision": tally.matched / tally.reported if tally.reported else 0.0,
    }
    raw_tail, _ = tail(tally.times)
    notes = {
        "pairs_per_s": f"{len(times)} pairs; unadjusted {len(times) / sum(tally.times):.6g}",
        "pair_s.p50": f"unadjusted {statistics.median(tally.times):.6g}",
        "pair_s.tail": f"p{tail_pct:.1f} of {len(times)} pairs, {TAIL_BEYOND} beyond it; "
        f"unadjusted {raw_tail:.6g}",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, adjusted",
        "common_recall": f"{tally.matched} of {tally.truths} true common values",
        "common_precision": f"{tally.matched} of {tally.reported} reported values",
        "reference": f"{len(reference.seconds)} samples of the reference workload, median "
        f"{statistics.median(reference.seconds) * 1e6:.1f} us per call against "
        f"{REFERENCE_S * 1e6:.1f} us; seconds above are adjusted to that speed",
    }
    return metrics, END_TO_END, notes, True, tally


def traced_run(workload, pairs, outdir, seconds, span_file):
    import layers
    import workloads
    from common_eig import Mode, parse_matrix
    from spans import Tracer

    client = workloads.CLIENTS[workload.client](pairs, outdir)
    client.load()
    client.answer(pairs[0], client.run(pairs[0]))  # warm-up, untimed
    name = "pipeline.common_eigenvalues" if workload.client == "pipeline" else "cli.run_cli"
    tracer = Tracer()

    def traced(pair):
        return tracer.call(name, client.run, pair)

    # Each pair runs untraced, then traced, back to back, so that both
    # timings see the same load on a shared machine.  Half the time goes
    # here; the conventional search on the same pairs, for the paper's
    # evaluation ratio, comes after.
    subset, untraced_s, traced_tally = [], 0.0, Tally(times=[], starts=[])
    start = time.perf_counter()
    for pair in pairs:
        if len(subset) >= 3 and time.perf_counter() - start >= seconds / 2:
            break
        subset.append(pair)
        untraced_s += sum(closed_loop(client, [pair], 0.0, 1).times)
        with tracer:
            tracer.pair = pair.index
            if workload.client == "pipeline":  # the CLI parses inside run_cli
                for path in (pair.path_a, pair.path_b):
                    with open(path, encoding="utf-8") as fh:
                        tracer.call("matrix.parse_matrix", parse_matrix, fh.read())
            traced_tally.add(closed_loop(client, [pair], 0.0, 1, run=traced))
    tracer.write(span_file)

    conventional = {p.index: client.evals(p, Mode.CONVENTIONAL) for p in subset}
    mismatches = layers.counter_mismatches(tracer.spans)
    # every pair that ran to an answer must have had its report checked
    unchecked = traced_tally.attempted - traced_tally.failed - len(
        layers.reports_by_pair(tracer.spans)
    )
    overhead = sum(traced_tally.times) / untraced_s - 1.0
    metrics = layers.layer_metrics(
        tracer.spans, {p.index: p for p in subset}, conventional, overhead
    )
    notes = {
        "matrix.char_fn.gflop_per_s": "computed from 2/3 n^3 flops per call",
        "trace.overhead_share": "traced over untraced seconds, same pairs back to back, minus 1",
    }
    for line in mismatches:
        print(f"counter check failed: {line}", file=sys.stderr)
    if unchecked > 0:
        print(f"no report captured for {unchecked} pairs", file=sys.stderr)
    correct = not mismatches and unchecked <= 0
    return metrics, layers.LAYER_METRICS, notes, correct, traced_tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "common_eig" / "__init__.py").is_file():
        print(f"error: no common_eig package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import generate

    workload = WORKLOADS[args.workload]
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    rundir = WORK / f"{label}_pid{os.getpid()}"
    inputs, outdir = rundir / "inputs", rundir / "out"
    outdir.mkdir(parents=True)
    try:
        try:
            pairs = generate.write_pairs(workload.kind, args.seed, workload.pool, inputs)
        except generate.OracleMismatch as exc:
            print(f"error: generated spectrum fails the eigvals oracle: {exc}", file=sys.stderr)
            return 3
        import common_eig

        if Path(common_eig.__file__).resolve().parent != SRC / "common_eig":
            print(f"error: imported common_eig from {common_eig.__file__}", file=sys.stderr)
            return 2
        if args.trace:
            result = traced_run(workload, pairs, outdir, args.seconds, WORK / f"spans_{label}.jsonl")
        else:
            result = timed_run(workload, pairs, inputs, outdir, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics, units, notes, correct, tally = result
    env = environment()
    print(f"workload: {args.workload} (closed loop, 1 client, seed {args.seed})")
    print(f"why: {workload.why}")
    print(f"work carried by: {workload.layer}")
    print(f"environment: {json.dumps(env)}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    if "reference" in notes:
        print(f"reference: {notes['reference']}")
    print(
        f"failed_share = {tally.failed / tally.attempted:.6g} share  ({tally.failed} of "
        f"{tally.attempted} pairs raised, exited non-zero or wrote unparsable output)"
    )
    final = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"BENCH_{label}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "why": workload.why,
                    "layer": workload.layer, "environment": env, "notes": notes,
                    "pair_seconds": tally.times, **final},
                   indent=2)
    )
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
