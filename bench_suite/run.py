#!/usr/bin/env python3
"""Campaign benchmark runner: builds bench_suite from source and runs it.

Run from the repository root:

  python3 bench_suite/run.py --workload W --seed N --seconds S --trace 0|1
      Build bench_suite (configured on first use, then incremental) and
      run one workload. The last stdout line is the benchmark's JSON
      result; the exit code is the benchmark's.

  python3 bench_suite/run.py --record SET.json [--runs 10] [--first-seed 1]
      Run every workload --runs times (seeds first-seed onwards,
      workloads taking turns) plus one traced run each, and write every
      run, medians, quartiles and host facts to SET.json. An existing
      SET.json is appended to, so runs of two commits can alternate.

  python3 bench_suite/run.py --compare BASE.json CAND.json
      One row per (workload, end-to-end metric), judged against the
      bounds in BENCHMARK.json: better, same, worse or unresolved.
      Exits 2 if any row is worse.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bench_suite"
WORKDIR = ROOT / ".bench_build" / "run"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build bench_suite; build output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return BUILD / "bench_suite"


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(WORKDIR)]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(binary, workload, seed, seconds, trace):
    proc = subprocess.run([str(binary)] + bench_args(workload, seed, seconds,
                                                     trace),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} trace {trace} exited "
             f"{proc.returncode}")
    result = json.loads(lines[-1])
    if trace == 0:
        print(f"{workload} seed {seed}: " +
              ", ".join(f"{k} {v['value']:.6g}"
                        for k, v in result["metrics"].items()),
              file=sys.stderr)
    return result


def compiler_version():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            exe = line.split("=", 1)[1]
            out = subprocess.run([exe, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout
            return out.splitlines()[0] if out else exe
    return "unknown"


def record(out_path, runs, first_seed):
    """Append `runs` runs of every workload to a set file (created if new)."""
    bench = load_json(ROOT / "BENCHMARK.json")
    binary = build()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if Path(out_path).exists():
        workloads = load_json(out_path)["workloads"]
    else:
        workloads = {name: {"runs": []} for name in names}
    seeds = range(first_seed, first_seed + runs)
    for seed in seeds:
        for name in names:
            result = run_once(binary, name, seed, seconds, 0)
            result["seed"] = seed
            workloads[name]["runs"].append(result)
    for name in names:
        if "per_layer" not in workloads[name]:
            workloads[name]["per_layer"] = run_once(
                binary, name, first_seed, seconds, 1)["metrics"]
    for name, data in workloads.items():
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in data["runs"]]
            q1, med, q3 = quartiles(values)
            summary[metric["name"]] = {"q1": q1, "median": med, "q3": q3,
                                       "spread": (q3 - q1) / med}
        data["summary"] = summary
    document = {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "compiler": compiler_version(),
        "run_seconds": seconds,
        "workloads": workloads,
    }
    with open(out_path, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")


def judge(base, cand, better, bound):
    """Verdict for one metric from two sets of runs (paired by index)."""
    sign = 1.0 if better == "higher" else -1.0
    _, mb, _ = quartiles(base)
    _, mc, _ = quartiles(cand)
    gain = sign * (mc - mb) / mb
    spreads = []
    for values, med in ((base, mb), (cand, mc)):
        q1, _, q3 = quartiles(values)
        spreads.append((q3 - q1) / med)
    clean_win = min(sign * c for c in cand) > max(sign * b for b in base)
    if max(spreads) > bound:
        return gain, "better" if clean_win else "unresolved"
    if gain < -bound:
        return gain, "worse"
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if gain > spreads[0] and wins >= 0.9 * len(pairs):
        return gain, "better"
    return gain, "same"


def compare(base_path, cand_path):
    bench = load_json(ROOT / "BENCHMARK.json")
    base = load_json(base_path)["workloads"]
    cand = load_json(cand_path)["workloads"]
    worse = False
    print(f"{'workload':<16} {'metric':<18} {'base':>12} {'cand':>12} "
          f"{'change':>8}  verdict")
    for w in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[w]["runs"]]
            c = [r["metrics"][name]["value"] for r in cand[w]["runs"]]
            gain, verdict = judge(b, c, metric["better"], metric["bound"])
            worse = worse or verdict == "worse"
            print(f"{w:<16} {name:<18} {quartiles(b)[1]:>12.6g} "
                  f"{quartiles(c)[1]:>12.6g} {100 * gain:>+7.2f}%  "
                  f"{verdict}")
        # Failed operations may not rise, and the work attempted per
        # campaign is a plan property: both are compared as counts.
        failed_b = sum(r["failed"] for r in base[w]["runs"])
        failed_c = sum(r["failed"] for r in cand[w]["runs"])
        verdict = "worse" if failed_c > failed_b else "same"
        worse = worse or verdict == "worse"
        print(f"{w:<16} {'failed_ops':<18} {failed_b:>12} {failed_c:>12} "
              f"{'':>8}  {verdict}")
    print("\nper-layer (informational; counts compared exactly):")
    for w in (w["name"] for w in bench["workloads"]):
        lb = base[w].get("per_layer", {})
        lc = cand[w].get("per_layer", {})
        for name in sorted(set(lb) & set(lc)):
            vb, vc = lb[name]["value"], lc[name]["value"]
            if lb[name]["unit"] == "count":
                note = "equal" if vb == vc else "changed"
            else:
                note = f"{100 * (vc - vb) / vb:+.1f}%" if vb else ""
            print(f"  {w:<16} {name:<32} {vb:>12.6g} {vc:>12.6g}  {note}")
    return 2 if worse else 0


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the campaign benchmark.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0x5EED")
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--record", metavar="SET.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"))
    args = parser.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    if args.record:
        record(args.record, args.runs, args.first_seed)
        return
    if not args.workload:
        parser.error("--workload, --record or --compare is required")
    binary = build()
    proc = subprocess.run([str(binary)] + bench_args(
        args.workload, args.seed, args.seconds, args.trace))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
