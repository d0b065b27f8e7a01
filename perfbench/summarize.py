#!/usr/bin/env python3
"""Summarise benchmark runs: per workload and metric, the median and
quartiles over runs, and the spread (q3 - q1) / median next to the bound
BENCHMARK.json fixes.

    python3 perfbench/summarize.py [--out FILE] [--against DIR] [RUN.json ...]

Without run files it reads every run in perfbench/out/runs/. With --out
it writes the summary, together with the newest traced run of each
workload, as one JSON file (the form of perfbench/trajectory/*.json).
With --against it also compares each median with the median of the runs
in DIR, as a share of the latter, and flags a difference beyond the
bound; two sets of the same code, run interleaved, should stay within.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def load(files):
    """Untraced runs per workload, the last traced run per workload, and
    the environment of the first run."""
    untraced, traced, env = {}, {}, None
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        env = env or {k: v for k, v in r["env"].items() if k not in ("seed", "input_records")}
        if r["trace"]:
            traced[r["workload"]] = r
        else:
            untraced.setdefault(r["workload"], []).append(r)
    return untraced, traced, env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    ap.add_argument("--against")
    ap.add_argument("runs", nargs="*")
    args = ap.parse_args()
    files = args.runs or sorted(glob.glob(os.path.join(BENCH_DIR, "out", "runs", "*.json")))
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    untraced, traced, env = load(files)
    other = load(sorted(glob.glob(os.path.join(args.against, "*.json"))))[0] if args.against else {}

    summary = {}
    for w, runs in sorted(untraced.items()):
        summary[w] = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                      "records": runs[0]["records"], "metrics": {}}
        print(f"{w}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            s = spread(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary[w]["metrics"][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:14s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {bound}{flag}")
            if other.get(w):
                base = statistics.median(r["metrics"][name]["value"] for r in other[w])
                s["vs_against"] = s["median"] / base - 1
                flag = "" if bound is None or abs(s["vs_against"]) <= bound else "  <-- beyond the bound"
                print(f"  {'':14s} vs {len(other[w])} runs in {args.against}: median {base:<14.6g} "
                      f"differs by {s['vs_against']:+.4f}{flag}")

    for w, r in sorted(traced.items()):
        m = {k: v["value"] for k, v in r["metrics"].items()}
        print(f"{w} traced (seed {r['seed']}): wall {m['trace.wall_s']:.2f} s, "
              f"blocking {m['blocking.s'] / m['trace.wall_s']:.1%}, "
              f"block_fn {m['core.block_fn_s'] / m['trace.wall_s']:.1%}, "
              f"coverage {m['trace.coverage']:.4f}, overhead {m['trace.overhead_frac']:+.3f}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "untraced": summary,
                       "traced": {w: {k: r[k] for k in ("seed", "metrics", "end_to_end", "samples",
                                                          "result_row", "env", "spans", "jobs")}
                                  for w, r in sorted(traced.items())}}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
