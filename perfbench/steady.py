"""Steadiness check: run the benchmark once per seed and report spreads.

    python3 perfbench/steady.py --workload check-dense --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 1-10 --trace 1

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median.  End-to-end spreads are compared with a
third of the metric's bound in BENCHMARK.json, and the share of failed
ops must be the same in every run.  Each run's result line is appended
to perfbench/out/steady.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    log = HERE / "out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    steady = True
    for workload in names:
        results = []
        for seed in args.seeds:
            res = run_once(spec, workload, seed, args.trace)
            results.append(res)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, **res}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, "
              f"failed shares {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            line = f"  {metric:28s} {med:14.6g} {unit:6s}"
            if med:
                line += f" spread {spread(values):7.4f}"
            bound = bounds.get(metric)
            if bound is not None and metric != "setup_s":
                ok = spread(values) < bound / 3.0
                steady &= ok
                line += f"  bound {bound} {'ok' if ok else 'WIDE'}"
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
