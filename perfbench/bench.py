"""Measurement loop, metrics and result records of the wealthca benchmark.

An untraced run times a closed loop of seeded operations for the requested
number of seconds and prints every end-to-end metric. A traced run first does
the same untraced for half the time, then installs the span wrappers and
replays exactly those operations, so the per-layer numbers and the tracing
overhead (traced over untraced time on identical inputs) come from one
process. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer
from wealthca import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile
UNTRACED_SHARE = 0.5  # of --seconds, in a traced run
#: End-to-end metrics that are printed and recorded but not declared in
#: BENCHMARK.json, with their units and better direction. A run's central time follows the share of
#: it the shared host spends in its fast state, which moves these by more than
#: the largest allowed bound between runs of the same code (README,
#: "Steadiness"). Compare them between commits in alternating pairs.
UNGATED = {"runs_per_s": ("1/s", "higher"), "run_s_p50": ("s", "lower")}


@dataclass(frozen=True)
class OpRecord:
    index: int
    seed: int
    seconds: float
    outcome: workloads.Outcome


def run_ops(wl, seed: int, seconds: float | None = None,
            count: int | None = None, tracer: Tracer | None = None
            ) -> list[OpRecord]:
    """Run operations 0, 1, ... one after another and check each.

    Stops after count operations, or once seconds have passed at a cycle
    boundary of the workload. Only the library call is timed; checks run
    between operations.
    """
    records = []
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % wl.cycle == 0 and time.perf_counter() >= deadline:
            break
        s = analysis.derive_seed(seed, i)
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = wl.run(i, s)
            else:
                res = tracer.call(wl.root, wl.run, i, s)
        except Exception:
            dt = time.perf_counter() - t0
            outcome = workloads.Outcome("error", detail=traceback.format_exc())
        else:
            dt = time.perf_counter() - t0
            try:
                outcome = wl.check(i, s, res)
            except Exception:
                outcome = workloads.Outcome(
                    "wrong", detail="check raised:\n" + traceback.format_exc())
        records.append(OpRecord(i, s, dt, outcome))
        i += 1
    return records


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES
    samples beyond it; the maximum if there are too few samples."""
    times = sorted(times)
    n = len(times)
    if n <= TAIL_SAMPLES:
        return times[-1], 100.0
    return times[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def end_to_end(records: list[OpRecord], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in records]
    failed = sum(r.outcome.status != "ok" for r in records)
    return {
        "setup_s": setup_s,
        "runs_per_s": len(times) / sum(times),
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail(times)[0],
        "ok_share": 1.0 - failed / len(records),
        "w_max_mean": statistics.fmean(r.outcome.w for r in records),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh process to its workload being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed ({code})")
    return elapsed


def environment() -> dict:
    """What the result depends on besides the code: versions and machine."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def result_line(values: dict[str, float], records: list[OpRecord],
                trace: bool) -> dict:
    """The JSON result: every declared metric of the mode, with its unit.

    A target miss counts as failed but leaves the run correct; an exception
    or a result that differs from its reference makes it incorrect.
    """
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {
        "correct": all(r.outcome.status in ("ok", "miss") for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome.status != "ok" for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def measure(wl, seed: int, seconds: float, trace: bool, setup_s: float
            ) -> tuple[dict[str, float], list[OpRecord], Tracer | None]:
    """Set up, run and check; returns (metric values, records, tracer)."""
    layer_setup = wl.setup()
    if not trace:
        records = run_ops(wl, seed, seconds)
        return end_to_end(records, setup_s), records, None

    untraced = run_ops(wl, seed, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, seed, count=len(untraced), tracer=tracer)
    finally:
        tracer.restore()
    for k, (a, b) in enumerate(zip(untraced, traced)):
        if a.outcome.fingerprint != b.outcome.fingerprint:
            traced[k] = OpRecord(b.index, b.seed, b.seconds, workloads.Outcome(
                "wrong", b.outcome.w, b.outcome.fingerprint,
                "traced replay gave another result than the untraced run"))
    values = tracer.layer_metrics()
    values.update(layer_setup)
    values["trace.overhead_share"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
        - 1.0)
    return values, untraced + traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = workloads.make(args.workload, OUT / "render")
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    setup_s = statistics.median(probe_setup(args.workload)
                                for _ in range(SETUP_PROBES))
    values, records, tracer = measure(wl, args.seed, args.seconds,
                                      bool(args.trace), setup_s)
    line = result_line(values, records, bool(args.trace))
    failed = [r for r in records if r.outcome.status != "ok"]
    percentile = tail([r.seconds for r in records])[1]

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz", workload=args.workload,
                    seed=args.seed)
    ungated = {} if args.trace else {
        name: {"value": values[name], "unit": unit, "better": better}
        for name, (unit, better) in UNGATED.items()}
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        **line, "ungated": ungated, "tail_percentile": percentile,
        "operations": [[r.index, r.seed, r.seconds, r.outcome.status]
                       for r in records],
        "failures": [{"index": r.index, "seed": r.seed,
                      "status": r.outcome.status, "detail": r.outcome.detail}
                     for r in failed],
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"cpu={env['cpu']!r} git={env['git_sha']}")
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, m in ungated.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (not gated)")
    if not args.trace:
        print(f"# run_s_tail is p{percentile:.1f} of "
              f"{len(records)} operations; failed_share = "
              f"{len(failed) / len(records):.4g}")
    for r in failed:
        last = (r.outcome.detail.strip().splitlines() or [""])[-1]
        print(f"# {r.outcome.status}: op {r.index} seed {r.seed}: {last}")
    print(f"# record: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps(line))
    return 0
