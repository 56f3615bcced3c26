"""Repeat the untraced benchmark over several seeds and record its spread.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --out spread.json

By default seeds are interleaved across workloads (round r runs every
workload with seed base + r, in an order rotated each round), so slow drift
of a shared machine spreads over all workloads instead of landing on one.
With --back-to-back every workload runs all its seeds before the next one
starts, which lets one slow or fast spell of the host land on several runs of
one workload. For each end-to-end metric, and for the printed but ungated
ones, it reports the median, the quartiles from statistics.quantiles(n=4) and
the spread (q3 - q1) / median next to the metric's bound. Given an earlier
output with --against, it also reports how much worse each median got (as a
share of the earlier median), which must stay within the bound too.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "perfbench" / "out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    line["wall_s"] = time.perf_counter() - t0
    record = json.loads(
        (OUT / f"{workload}-seed{seed}-trace0.json").read_text())
    line["ungated"] = record["ungated"]
    return line


def summary(lines: list[dict]) -> dict:
    """Median, quartiles and spread of every declared metric (with its
    bound) and every printed but ungated one (bound None)."""
    metrics = [(m["name"], m["better"], m["bound"])
               for m in SPEC["end_to_end"]]
    metrics += [(name, m["better"], None)
                for name, m in lines[0]["ungated"].items()]
    out = {}
    for name, better, bound in metrics:
        values = [{**line["metrics"], **line["ungated"]}[name]["value"]
                  for line in lines]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bound,
                     "better": better, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--back-to-back", action="store_true",
                        help="run all seeds of a workload before the next")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier output to compare the medians with")
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else None

    seeds = range(args.seed_base, args.seed_base + args.seeds)
    if args.back_to_back:
        order = [(w, s) for w in args.workloads for s in seeds]
    else:
        order = []
        for r, s in enumerate(seeds):
            k = r % len(args.workloads)
            order += [(w, s) for w in args.workloads[k:] + args.workloads[:k]]
    lines = {w: [] for w in args.workloads}
    for w, s in order:
        line = run_once(w, s, args.seconds)
        lines[w].append(line)
        print(f"{w} seed={s} wall={line['wall_s']:.1f}s "
              f"failed={line['failed']}/{line['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in
                         {**line["metrics"], **line["ungated"]}.items()),
              flush=True)
    record = {
        "seconds": args.seconds,
        "seeds": list(seeds),
        "order": "back-to-back" if args.back_to_back else "interleaved",
        "workloads": {w: {"attempted": [x["attempted"] for x in ls],
                          "failed": [x["failed"] for x in ls],
                          "correct": all(x["correct"] for x in ls),
                          "wall_s": [round(x["wall_s"], 1) for x in ls],
                          "metrics": summary(ls)}
                      for w, ls in lines.items()},
    }
    for w, rec in record["workloads"].items():
        for name, s in rec["metrics"].items():
            if s["bound"] is None:
                flag = "  not gated"
            elif s["spread"] > s["bound"]:
                flag = "  ABOVE BOUND"
            elif s["spread"] > s["bound"] / 3:
                flag = "  above bound/3"
            else:
                flag = ""
            if earlier:
                old = earlier["workloads"][w]["metrics"][name]["median"]
                sign = 1 if s["better"] == "lower" else -1
                s["worse_than_earlier"] = sign * (s["median"] - old) / old
                flag += f"  worse by {s['worse_than_earlier']:+.3f}"
            print(f"{w:14s} {name:12s} median={s['median']:.5g} "
                  f"spread={s['spread']:.3f} bound={s['bound']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
