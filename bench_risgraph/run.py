#!/usr/bin/env python3
"""Builds bench_risgraph from this checkout and runs its workloads, each in
its own process.

  python3 bench_risgraph/run.py --workload safe_stream --seed 1 --seconds 10 --trace 0
  python3 bench_risgraph/run.py --seed 1                # all four workloads
  python3 bench_risgraph/run.py --seed 1 --trace        # traced: per-layer metrics
  python3 bench_risgraph/run.py --seed 1 --repeat 5 --results a.json
  python3 bench_risgraph/run.py --check-bounds a.json b.json

Run it from the root of the checkout. The build goes to .bench_build/cmake;
result files and traces go to .bench_build/results. With one workload and no
--repeat the last line of output is the workload's JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ["safe_stream", "unsafe_stream", "durable_feed", "rpc_mixed"]
RUN_TIMEOUT_S = 600


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "bench_risgraph"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: building bench_risgraph failed")
    return os.path.join(BUILD, "bench_risgraph")


def benchmark_spec():
    """BENCHMARK.json at the root, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_workload(binary, args, workload, spec):
    """Runs one workload process. Returns (exit code, output lines, result);
    result is None unless the last line is a JSON result naming exactly the
    metrics BENCHMARK.json declares."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
           "--out", RESULTS]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return proc.returncode or 1, lines, None
    result = json.loads(lines[-1])
    if spec is not None:
        key = "per_layer" if args.trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            log(f"run.py: {workload} reported {sorted(got.items())}, "
                f"BENCHMARK.json declares {sorted(want.items())}")
            return 1, lines[:-1], None
    return proc.returncode, lines, result


def parse_metric_lines(lines):
    """`<workload>.<metric> <value> <unit>` lines -> {metric: [value, unit]}."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or "." not in parts[0]:
            continue
        try:
            value = float(parts[1])
        except ValueError:
            continue
        out[parts[0].split(".", 1)[1]] = [value, parts[2]]
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs):
    """{workload: {metric: {median, q1, q3, n, unit}}} over the runs that
    exited 0."""
    values = {}
    for run in (r for r in runs if r["exit"] == 0):
        for name, (value, unit) in run["lines"].items():
            values.setdefault(run["workload"], {}).setdefault(
                name, (unit, []))[1].append(value)
    summary = {}
    for workload, metrics in values.items():
        for name, (unit, vals) in metrics.items():
            q1, med, q3 = quartiles(vals)
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "unit": unit}
    return summary


def spread(s):
    """Quartile distance as a share of the median."""
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def check_bounds(path_a, path_b, spec):
    """Compares the medians of two result files within the end-to-end
    bounds of BENCHMARK.json. Returns the exit code."""
    if spec is None:
        sys.exit("run.py: --check-bounds needs BENCHMARK.json")
    with open(path_a) as f:
        a = summarize(json.load(f)["runs"])
    with open(path_b) as f:
        b = summarize(json.load(f)["runs"])
    ok = True
    print(f"{'workload.metric':40} {'median A':>14} {'median B':>14} "
          f"{'B vs A':>8} {'bound':>6} {'iqr A':>6} {'iqr B':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            sa = a[workload].get(m["name"])
            sb = b[workload].get(m["name"])
            if sa is None or sb is None:
                continue
            rel = (sb["median"] - sa["median"]) / sa["median"]
            agree = abs(rel) <= m["bound"]
            ok &= agree
            print(f"{workload + '.' + m['name']:40} {sa['median']:14.6g} "
                  f"{sb['median']:14.6g} {rel:+8.3f} {m['bound']:6.2f} "
                  f"{spread(sa):6.3f} {spread(sb):6.3f}  "
                  f"{'agree' if agree else 'DIFFER'}")
    print("all medians agree within bounds" if ok else
          "some medians differ by more than their bound")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="run only this workload (repeatable)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10,
                   help="length of the open-loop phase")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="traced run: per-layer metrics")
    p.add_argument("--repeat", type=int, default=1,
                   help="interleaved repetitions; prints median and quartiles")
    p.add_argument("--quick", action="store_true",
                   help="divide every length by 10 (smoke runs only)")
    p.add_argument("--results", default=os.path.join(RESULTS,
                                                     "bench_risgraph.json"))
    p.add_argument("--check-bounds", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()

    spec = benchmark_spec()
    if args.check_bounds:
        return check_bounds(*args.check_bounds, spec)

    binary = build()
    workloads = args.workload or WORKLOADS
    single = len(workloads) == 1 and args.repeat == 1

    runs = []
    failed = False
    for rep in range(args.repeat):
        for workload in workloads:
            if not single:
                log(f"== {workload} (repetition {rep + 1}/{args.repeat}, "
                    f"seed {args.seed})")
            code, lines, result = run_workload(binary, args, workload, spec)
            for line in lines:
                print(line, flush=True)
            ok = code == 0 and result is not None and result["correct"]
            failed |= not ok
            runs.append({"workload": workload, "rep": rep, "exit": code,
                         "correct": bool(result and result["correct"]),
                         "attempted": result["attempted"] if result else 0,
                         "failed": result["failed"] if result else 0,
                         "lines": parse_metric_lines(lines)})
            if single:
                write_results(args, runs)
                return code if result is not None else (code or 1)

    summary = summarize(runs)
    print(f"\n{'workload.metric':44} {'median':>14} {'q1':>14} {'q3':>14}  "
          "unit")
    for workload in workloads:
        for name, s in summary.get(workload, {}).items():
            print(f"{workload + '.' + name:44} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g}  {s['unit']}")
    write_results(args, runs, summary)
    print("all workloads correct" if not failed else
          "some workload failed a check or did not finish")
    return 1 if failed else 0


def write_results(args, runs, summary=None):
    data = {"seed": args.seed, "seconds": args.seconds,
            "trace": int(args.trace), "quick": args.quick,
            "repeat": args.repeat,
            "runs": runs}
    if summary is not None:
        data["summary"] = summary
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "w") as f:
        json.dump(data, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
