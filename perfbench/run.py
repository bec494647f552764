"""Benchmark of `pdm integrate` and `pdm check`, one process, one thread.

    python3 perfbench/run.py --workload integrate-osc --seed 1 \\
        --seconds 20 --trace 0

Each op is one in-process call to `pdmham.cli.main(argv)`, the call behind
`pdm integrate ...` / `pdm check ...`.  A round runs the workload's fixed
op list once; the run repeats whole rounds until `--seconds` have passed.
Before each op the frozen reference kernel (refkernel.py) is timed, and
`gc.collect()` runs; both stay outside the op's timing, as does reading
back and checking every op's output (oracle.py).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics from spans (spans.py), which
it also writes to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import refkernel
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def load_program():
    """Import pdmham from this checkout's src/, single-threaded BLAS."""
    if not (SRC / "pdmham" / "cli.py").is_file():
        sys.exit(f"run.py: no program source at {SRC / 'pdmham'}")
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import pdmham
    import pdmham.cli
    if Path(pdmham.__file__).resolve().parent != SRC / "pdmham":
        sys.exit(f"run.py: imported pdmham from {pdmham.__file__}")
    return pdmham


def time_reference():
    t0 = time.perf_counter()
    result = refkernel.kernel()
    elapsed = time.perf_counter() - t0
    if abs(result - refkernel.CHECKSUM) > 1e-9:
        sys.exit(f"run.py: reference kernel changed ({result!r})")
    return t0, elapsed


def run_op(pdm, case, path):
    """One timed op; returns (ok, summary, wall_s, cpu_s, start)."""
    path.unlink(missing_ok=True)
    argv = case["argv"] + ["--out", str(path)]
    buf = io.StringIO()
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = pdm.cli.main(argv)
    except SystemExit as exc:   # argparse has reported the usage error
        code = exc.code
    except Exception:           # a crashed op counts as failed; run goes on
        traceback.print_exc()
        code = None
    c1 = time.process_time()
    w1 = time.perf_counter()
    return code == 0, buf.getvalue(), w1 - w0, c1 - c0, w0


def check_output(case, path, summary, fd_seed):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"no output: {exc}"]
    if case["kind"] == "integrate":
        return oracle.check_trajectory(text, summary, case)
    return oracle.check_certificate(text, case, fd_seed)


def prepare(workload, seed):
    """Imports, inputs and the warm-up op: everything before timing."""
    pdm = load_program()
    cases = workloads.make_cases(workload, seed)
    opdir = OUT / f"{workload}-{os.getpid()}"
    opdir.mkdir(parents=True, exist_ok=True)
    warm = workloads.warmup_case(workload)
    path = opdir / "warmup.out"
    ok, summary, *_ = run_op(pdm, warm, path)
    problems = check_output(warm, path, summary, seed) if ok else ["failed"]
    if problems:
        sys.exit(f"run.py: warm-up op {warm['argv']}: {problems}")
    return pdm, cases, opdir


def setup_seconds(workload, seed):
    """Median wall time of fresh processes doing `prepare` and exiting."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def drift_steps(pdm, case):
    """Steps of the drift trajectory inside `pdm check`, re-run untimed.

    The certificate does not report them; the trajectory is deterministic,
    so integrating the same start point with the same config counts them.
    """
    params = pdm.phase.ModelParams(case["family"], case["n"], case["k0"],
                                   case["k1"], case["k2"])
    start = pdm.phase.sample_points(
        params, pdm.phase.DomainBox(seed=case["sample_seed"]), 1)[0]
    traj = pdm.dynamics.integrate(params, start,
                                  pdm.dynamics.IntegratorConfig(t_end=10.0))
    return traj.n_accepted + traj.n_rejected


def measure(pdm, cases, opdir, seconds, seed, tracer):
    """Whole rounds within `seconds`; per-op and per-round records.

    Another round starts only while the mean round so far still fits, so
    a run lasts at most `seconds` unless one round alone is longer.
    """
    ops, rounds, problems = [], [], []
    t_begin = time.perf_counter()
    while True:
        this_round = []
        for i, case in enumerate(cases):
            path = opdir / f"op{i:02d}.out"
            gc.collect()
            if tracer is not None:
                tracer.op = len(ops)
                op_span = tracer.add("op", time.perf_counter(), None)
            ref_start, ref_s = time_reference()
            ok, summary, wall, cpu, start = run_op(pdm, case, path)
            rec = {"ok": ok, "wall": wall, "cpu": cpu, "ref": ref_s,
                   "steps": 0}
            if ok:
                bad = check_output(case, path, summary, seed * 1000 + i)
                problems.extend(f"op {i} {case['argv']}: {p}" for p in bad)
                if case["kind"] == "integrate" and not bad:
                    _, _, accepted, rejected = oracle.parse_summary(summary)
                    rec["steps"] = accepted + rejected
            if tracer is not None:
                tracer.add("bench.ref", ref_start, ref_start + ref_s, op_span)
                tracer.add("cli.main", start, start + wall, op_span,
                           bytes=path.stat().st_size if ok else 0)
                if ok:
                    spans.probe_layers(tracer, pdm, case, op_span,
                                       case["argv"] + ["--out", str(path)])
                tracer.spans[op_span]["end"] = time.perf_counter()
            ops.append(rec)
            this_round.append(rec)
        rounds.append(this_round)
        elapsed = time.perf_counter() - t_begin
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return ops, rounds, problems


def op_p50(rounds):
    """Median over the round's ops of each op's median across rounds.

    Each op of a round is a different case; this picks the same middle
    case in every run, where a median over all timings jumps between the
    cases on either side of the middle as the host's speed drifts.
    """
    return statistics.median(statistics.median(r["wall"] for r in per_case)
                             for per_case in zip(*rounds))


def end_to_end(pdm, workload, seed, cases, ops, rounds):
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(r["wall"] for r in rnd) for rnd in rounds]
    cpus = [sum(r["cpu"] for r in rnd) for rnd in rounds]
    if workload == "check-dense":
        steps = sum(drift_steps(pdm, case) for case in cases)
    else:
        steps = sum(r["steps"] for r in rounds[0])
    return {
        "setup_s": (setup_seconds(workload, seed), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "op_p50_s": (op_p50(rounds), "s"),
        "wall_rel": (sum(r["wall"] for r in ops)
                     / sum(r["ref"] for r in ops), "x"),
        "peak_rss_mb": (peak_mb, "MB"),
        "steps": (steps, "count"),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pdm, cases, opdir = prepare(args.workload, args.seed)
    try:
        if args.setup_only:
            return 0
        tracer = spans.Tracer() if args.trace else None
        ops, rounds, problems = measure(pdm, cases, opdir, args.seconds,
                                        args.seed, tracer)
        for p in problems:
            print(f"run.py: wrong output: {p}", file=sys.stderr)
        if tracer is None:
            metrics = end_to_end(pdm, args.workload, args.seed, cases, ops,
                                 rounds)
        else:
            metrics = spans.layer_metrics(tracer, len(rounds))
            metrics["bench.op_p50_s"] = (op_p50(rounds), "s")
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for r in ops if not r["ok"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
