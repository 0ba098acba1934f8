#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile of the runs, as a share of their median (the
measure the bounds in BENCHMARK.json are checked against).

    python3 symbench/spread.py --workloads matrix,fleet --seeds 1-10 \
        --record symbench/results/host.jsonl

Run it from the repository root. Every run's host stamp, result line and
metrics are appended to the --record file, one JSON row per run.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--record", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                sys.exit(1)
            res = json.loads(lines[-1])
            host = next((json.loads(l[7:]) for l in lines if l.startswith("# host ")), {})
            passes = [l[len("symbench: "):] for l in p.stderr.splitlines() if l.startswith("symbench: pass ")]
            row = {"host": host, "took_s": round(took, 1), "passes": passes, **res}
            if args.record:
                with open(args.record, "a") as f:
                    f.write(json.dumps(row) + "\n")
            figures = " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items()))
            print(f"{wl} seed {seed}: {took:.1f}s correct={res['correct']} attempted={res['attempted']} {figures}",
                  file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"{wl:12s} {name:28s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
