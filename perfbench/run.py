#!/usr/bin/env python3
"""tsallisq benchmark: one closed-loop client, one operation at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roof-mixed --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics over whole rounds of operations
for at least --seconds seconds; --trace 1 runs one fixed round, each
operation untraced and traced in mirrored order, and reports the per-layer
metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full result, with
provenance, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("roof-mixed", "pure-monogamy", "cli-scan-verify")
# One client on matrices of side <= 64: a single BLAS thread (<= nproc) keeps
# the closed loop free of thread hand-offs and of contention with neighbours.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
START_REPEATS = 3
# Operations per round.  A run measures whole rounds, so every run holds each
# kind of operation equally often; a new round starts only while time remains.
ROUND_OPS = {"roof-mixed": 21, "pure-monogamy": 600, "cli-scan-verify": 15}
# op_tail_ms is the highest of the percentiles 50, 75, 90 and 95 that leaves
# at least ten samples beyond it in a run of `run_seconds`; a run goes on
# until it holds that many samples, so the percentile never changes.  The
# ladder stops at 95: on pure-monogamy p99 of 6000 short operations follows
# the machine's slow phases and spread 0.18 between seeds.
TAIL_PERCENTILE = {"roof-mixed": 90, "pure-monogamy": 95, "cli-scan-verify": 75}
TAIL_BEYOND = 10

# name: (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "roof.calls": ("count", "lower"),
    "roof.self_s": ("s", "lower"),
    "roof.cost_s": ("s", "lower"),
    "roof.cost_calls": ("count", "lower"),
    "roof.cost_rows": ("count", "lower"),
    "roof.winner_iters": ("count", "lower"),
    "roof.nonconverged": ("count", "lower"),
    "roof.useful_ratio": ("ratio", "higher"),
    "roof.rank2.ms_p50": ("ms", "lower"),
    "roof.rank3.ms_p50": ("ms", "lower"),
    "roof.rank4.ms_p50": ("ms", "lower"),
    "roof.max_err": ("abs", "lower"),
    "monogamy.indicator.calls": ("count", "lower"),
    "monogamy.indicator.self_s": ("s", "lower"),
    "monogamy.residual.calls": ("count", "lower"),
    "monogamy.residual.self_s": ("s", "lower"),
    "monogamy.hierarchical.self_s": ("s", "lower"),
    "monogamy.self_s": ("s", "lower"),
    "measures.wootters.calls": ("count", "lower"),
    "measures.wootters.self_s": ("s", "lower"),
    "measures.tee_curve.elements": ("count", "lower"),
    "measures.tee_curve.self_s": ("s", "lower"),
    "measures.self_s": ("s", "lower"),
    "qstate.reduced.calls": ("count", "lower"),
    "qstate.reduced.self_s": ("s", "lower"),
    "qstate.self_s": ("s", "lower"),
    "linalg.calls": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "analysis.scan.points": ("count", "lower"),
    "analysis.scan.self_s": ("s", "lower"),
    "analysis.points_per_s": ("1/s", "higher"),
    "analysis.root.func_evals": ("count", "lower"),
    "analysis.root.self_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "cli.start_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
}

# Which end-to-end metric each layer should move, and on which workload.
SHOULD_MOVE = {
    "roof": "ops_per_s and op_tail_ms on roof-mixed; op_tail_ms on cli-scan-verify (verify); nothing on pure-monogamy",
    "monogamy": "ops_per_s on pure-monogamy",
    "measures": "op_p50_ms on pure-monogamy (per call); op_tail_ms on cli-scan-verify (per element)",
    "qstate": "ops_per_s on pure-monogamy",
    "linalg": "ops_per_s on pure-monogamy",
    "analysis": "op_tail_ms on cli-scan-verify only",
    "cli": "op_p50_ms and op_tail_ms on cli-scan-verify; setup_s everywhere via import",
    "trace": "none",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    """Import tsallisq from this checkout's src/, never from elsewhere."""
    if not (SRC / "tsallisq" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tsallisq'} not found; run from a tsallisq checkout")
    sys.path.insert(0, str(SRC))
    import tsallisq

    if Path(tsallisq.__file__).resolve().parent != SRC / "tsallisq":
        sys.exit(f"error: imported tsallisq from {tsallisq.__file__}, not from {SRC}")
    return tsallisq


def prepare(args, workdir: Path):
    """Import, generate the inputs and run one warm-up operation."""
    tq = import_package()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    ops, probes = workloads.build(tq, args.workload, args.seed, str(workdir), child_env())
    mode = "subprocess" if args.workload == "cli-scan-verify" else "call"
    warm = ops[0]
    ok, detail, _ = warm.execute(mode)
    if not ok:
        sys.exit(f"error: warm-up operation {warm.label} failed: {detail}")
    return ops, probes


def run_timed(ops, seconds: float, round_ops: int, runner, min_samples: int = 1):
    """Run whole rounds until `seconds` have passed and `min_samples` are in;
    return the samples and the wall time of each round."""
    samples, rounds = [], []
    start = last = time.perf_counter()
    while True:
        samples.append(runner(ops[len(samples) % len(ops)]))
        if len(samples) % round_ops == 0:
            now = time.perf_counter()
            rounds.append(now - last)
            last = now
            if now - start >= seconds and len(samples) >= min_samples:
                return samples, rounds


def tail(latencies_ms, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies_ms)
    rank = max(math.ceil(pct * len(ordered) / 100), 1)
    return ordered[rank - 1], len(ordered) - rank


def min_samples(pct) -> int:
    """Fewest samples that leave TAIL_BEYOND beyond the nearest-rank pct."""
    return math.ceil(TAIL_BEYOND * 100 / (100 - pct))


def wall_of(cmd, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: {cmd[1:]} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return wall


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import, generate and warm up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    return [wall_of(cmd, child_env()) for _ in range(SETUP_REPEATS)]


def cli_start_seconds() -> list[float]:
    cmd = [sys.executable, "-m", "tsallisq.cli", "tee", "w:3", "--q", "2"]
    return [wall_of(cmd, child_env()) for _ in range(START_REPEATS)]


def provenance(args) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """Digest of src/, which names the code when the checkout has no .git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def input_properties(workload, ops, samples) -> dict:
    """The input properties that decide each workload's cost, over the
    operations a run executed."""
    if workload == "cli-scan-verify":
        return {
            "per_command": {
                op.label: {
                    "points": op.props["points"],
                    "csv_bytes": len(op.ref_csv or b""),
                    "stdout_bytes": len(op.ref_stdout or b""),
                }
                for op in ops
            }
        }
    key = "rank" if workload == "roof-mixed" else "n"
    hist: dict[str, int] = {}
    for op, *_ in samples:
        label = f"{key}{op.props[key]}"
        hist[label] = hist.get(label, 0) + 1
    return {f"{key}_histogram": hist}


def executor(mode):
    def run(op):
        t0 = time.perf_counter()
        ok, detail, err = op.execute(mode)
        return op, time.perf_counter() - t0, ok, detail, err

    return run


def peak_rss_mb(workload, ops) -> float:
    import resource

    if workload == "cli-scan-verify":
        kb = max(op.child_rss_kb for op in ops)
    else:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def failures(samples, limit=20) -> list[str]:
    return [f"{op.label}: {detail}" for op, _, ok, detail, _ in samples if not ok][:limit]


def timed_run(args, ops, setup):
    mode = "subprocess" if args.workload == "cli-scan-verify" else "call"
    round_ops = ROUND_OPS[args.workload]
    pct = TAIL_PERCENTILE[args.workload]
    samples, rounds = run_timed(ops, args.seconds, round_ops, executor(mode), min_samples(pct))
    good = [s for s in samples if s[2]]
    lat_ms = [s[1] * 1e3 for s in samples]
    tail_ms, beyond = tail(lat_ms, pct)
    metrics = {
        "setup_s": statistics.median(setup),
        # the median round damps the slow phases of a shared machine
        "ops_per_s": round_ops / statistics.median(rounds) * len(good) / len(samples),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(args.workload, ops),
    }
    extra = {
        "elapsed_s": sum(rounds),
        "round_s": rounds,
        "ops_per_s_whole_run": len(good) / sum(rounds),
        "setup_samples_s": setup,
        "op_tail": {"percentile": pct, "samples": len(lat_ms), "beyond": beyond},
        "fail_frac": (len(samples) - len(good)) / len(samples),
        "failures": failures(samples),
        "input_properties": input_properties(args.workload, ops, samples),
        "latency_ms_by_kind": by_kind(samples),
    }
    return samples, metrics, extra


def by_kind(samples) -> dict:
    groups: dict[str, list[float]] = {}
    for op, dt, *_ in samples:
        groups.setdefault(op.kind, []).append(dt * 1e3)
    return {k: {"n": len(v), "p50": statistics.median(v), "max": max(v)} for k, v in groups.items()}


def traced_run(args, round_ops):
    """Run each operation of one fixed round untraced, traced, traced again
    and untraced again.

    The mirrored order cancels warm-up and slow drift of the machine in the
    overhead estimate; the per-layer numbers come from the first traced run.
    """
    import tracer as tracing

    run = executor("call")
    tr = tracing.Tracer()
    plain, samples, repeats = [], [], []
    traced_wall = 0.0
    for i, op in enumerate(round_ops):
        plain.append(run(op))
        for keep in (True, False):
            mark = len(tr.spans)
            tr.install()
            try:
                t0 = time.perf_counter()
                sample = tr.op_span(i, lambda: run(op))
                wall = time.perf_counter() - t0
            finally:
                tr.restore()
            if keep:
                samples.append(sample)
                traced_wall += wall
            else:
                del tr.spans[mark:]
                repeats.append(sample)
        plain.append(run(op))
    plain_wall = sum(s[1] for s in plain)
    both_traced = sum(s[1] for s in samples + repeats)

    layers = tracing.layer_metrics(tr.spans, lambda rho: int(rho.rank()))
    metrics = dict(layers["metrics"])
    errs = [s[4] for s in samples if s[4] is not None]
    metrics["roof.max_err"] = max(errs) if args.workload == "roof-mixed" and errs else 0.0
    metrics["cli.start_s"] = statistics.median(cli_start_seconds())
    metrics["cli.csv_bytes"] = sum(len(op.ref_csv or b"") for op in round_ops if hasattr(op, "ref_csv"))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = both_traced / plain_wall - 1.0
    accounted = sum(layers["layer_self_s"].values())
    metrics["trace.accounted_frac"] = accounted / traced_wall

    roofs = [r[5] for r in tr.spans if r[0] == tracing.ROOF_SPAN]
    capped_ops = {r[4] for r in tr.spans if r[0] == tracing.ROOF_SPAN and r[5]["capped"]}
    extra = {
        "untraced_wall_s": plain_wall / 2,
        "layer_self_s": layers["layer_self_s"],
        "unaccounted_s": traced_wall - accounted,
        "roof_sweeps_unknown": layers["roof_sweeps_unknown"],
        "should_move": SHOULD_MOVE,
        "failures": failures(plain + samples + repeats),
        "input_properties": input_properties(args.workload, round_ops, samples),
        "spans": len(tr.spans),
    }
    if args.workload == "roof-mixed":
        extra["input_properties"]["cap_share"] = len(capped_ops) / len(round_ops)
        extra["input_properties"]["capped_restarts"] = sum(r["capped"] or 0 for r in roofs)
    OUT.mkdir(parents=True, exist_ok=True)
    tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return plain + samples + repeats, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            prepare(args, workdir)
            return 0
        import_package()  # fail before any probe when src/ is missing
        setup = [] if args.trace else setup_seconds(args)
        ops, probes = prepare(args, workdir)
        if args.trace:
            samples, metrics, extra = traced_run(args, ops[: ROUND_OPS[args.workload]] + probes)
            table = PER_LAYER
        else:
            samples, metrics, extra = timed_run(args, ops, setup)
            table = END_TO_END
    finally:
        for path in sorted(workdir.glob("*")) if workdir.exists() else ():
            path.unlink()
        if workdir.exists():
            workdir.rmdir()

    failed = sum(1 for s in samples if not s[2])
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in table.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  provenance=provenance(args), **extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for failure in extra["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
