#!/usr/bin/env python3
"""Builds and runs kvbench, the end-to-end benchmark of the served path.

One workload (the last line of standard output is the result object):

    python3 kvbench/run.py --workload ed-warm --seed 1 --trace 0

The run length is BENCHMARK.json's run_seconds. --seconds is accepted only
with that value, so that every result file measures the same length.

Every workload, end-to-end and per-layer metrics, written to one file:

    python3 kvbench/run.py --workload all --seed 1 [--repeat 5] --json OUT
        [--trace-dir DIR]

A seconds-long smoke run of every workload that checks every declared
metric is present and finite:

    python3 kvbench/run.py --quick

Two result files side by side, each pairing marked ok, regressed or
unresolved against the bounds in BENCHMARK.json:

    python3 kvbench/run.py --compare BASE.json NEW.json

The build goes to .bench_build/kvbench; server stores go to
.bench_build/tmp and are removed after each run.
"""

import argparse
import ctypes
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "kvbench"
TMP = ROOT / ".bench_build" / "tmp"
WORKLOADS = ["ed-warm", "dtw-warm", "cold-evict", "ingest-append", "federated"]
RUN_TIMEOUT_S = 175
# Compilers and servers keep their temporary files inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(TMP))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds kvbench and kvmatch_cli; False on error."""
    TMP.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists() and not (BUILD / "build.ninja").exists():
        steps.append(["cmake", "-S", str(ROOT / "kvbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "kvbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=ENV)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def die_with_parent():
    # The benchmark (and through it, every server it starts) is killed if
    # this script dies first.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared():
    s = spec()
    return ({m["name"]: m for m in s["end_to_end"]},
            {m["name"]: m for m in s["per_layer"]})


def run_one(workload, seed, trace, quick=False, trace_dir=None):
    """Runs one workload; returns (exit code, stdout lines, result or None).

    The result is accepted only when it names exactly the metrics that
    BENCHMARK.json declares for the mode, with their units, all finite.
    """
    cmd = [str(BUILD / "kvbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec()["run_seconds"]),
           "--trace", "1" if trace else "0",
           "--cli", str(BUILD / "kvmatch" / "kvmatch_cli"), "--tmp", str(TMP)]
    if quick:
        cmd.append("--quick")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV,
                              timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: the benchmark printed no result")
        return done.returncode or 1, lines, None
    end_to_end, per_layer = declared()
    want = per_layer if trace else end_to_end
    got = result.get("metrics", {})
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"undeclared {n}" for n in got if n not in want]
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]["unit"]:
            problems.append(f"{name} unit {m.get('unit')}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not finite")
    if problems:
        log(f"{workload}: result rejected: " + "; ".join(problems))
        return 1, lines, None
    return done.returncode, lines, result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def git_rev():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_all(args):
    """Every workload: untraced runs for the end-to-end metrics, one traced
    run per seed for the per-layer metrics."""
    seeds = parse_seeds(args.seed)
    out = {"rev": git_rev(), "nproc": os.cpu_count(), "tier": "unknown",
           "seeds": seeds, "repeat": args.repeat,
           "seconds": spec()["run_seconds"],
           "workloads": {}}
    end_to_end, per_layer = declared()
    ok = True
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in names:
        runs, layers = [], []
        for seed in seeds:
            for trace in [False] * args.repeat + [True]:
                code, lines, result = run_one(workload, seed, trace,
                                              trace_dir=args.trace_dir)
                for line in lines[:-1]:
                    print(line)
                    if "dispatch tier " in line:
                        out["tier"] = line.rsplit("dispatch tier ", 1)[1]
                if code != 0 or result is None or not result["correct"]:
                    ok = False
                if result is None:
                    continue
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                (layers if trace else runs).append({"seed": seed,
                                                    "metrics": metrics})
        summary = {}
        for name, m in list(end_to_end.items()) + list(per_layer.items()):
            values = [r["metrics"][name] for r in runs + layers
                      if name in r["metrics"]]
            if values:
                med, q1, q3, rel = spread(values)
                summary[name] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": rel, "unit": m["unit"]}
        out["workloads"][workload] = {"runs": runs, "layers": layers,
                                      "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    print(f"{'workload':14} {'metric':34} {'median':>14} {'spread':>8} unit")
    for workload, w in out["workloads"].items():
        for name, s in w["summary"].items():
            print(f"{workload:14} {name:34} {s['median']:14.6g} "
                  f"{s['spread']:8.2%} {s['unit']}")
    return 0 if ok else 1


def run_quick():
    """Every workload at a tenth of the size, both modes."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, _, result = run_one(workload, 1, trace, quick=True)
            good = code == 0 and result is not None and result["correct"]
            failures += not good
            print(f"{workload:14} trace={int(trace)} "
                  f"{'ok' if good else 'FAILED'}"
                  + (f" ({len(result['metrics'])} metrics)" if result else ""))
    return 1 if failures else 0


def compare(base_path, new_path):
    """Per workload and end-to-end metric: base and new medians, the change,
    the bound; ok, regressed, or unresolved when either side's spread is
    wider than the bound (unless every new run beats every base run)."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    # Runs are comparable only at the same inputs, run length, dispatch tier
    # and core count.
    unlike = [k for k in ("seeds", "seconds", "tier", "nproc")
              if base.get(k) != new.get(k)]
    if unlike:
        for k in unlike:
            log(f"{k} differ: {base.get(k)} in {base_path}, "
                f"{new.get(k)} in {new_path}")
        log("the two result files do not describe like runs; not compared")
        return 2
    end_to_end, _ = declared()
    regressed = 0
    print(f"{'workload':14} {'metric':22} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        b = base["workloads"].get(workload)
        n = new["workloads"].get(workload)
        if b is None or n is None:
            continue
        for name, m in end_to_end.items():
            bv = [r["metrics"][name] for r in b["runs"] if name in r["metrics"]]
            nv = [r["metrics"][name] for r in n["runs"] if name in r["metrics"]]
            if not bv or not nv:
                continue
            bmed, _, _, bspread = spread(bv)
            nmed, _, _, nspread = spread(nv)
            sign = -1.0 if m["better"] == "higher" else 1.0
            worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
            all_better = all(sign * (x - y) < 0 for x in nv for y in bv)
            if max(bspread, nspread) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            print(f"{workload:14} {name:22} {bmed:12.5g} {nmed:12.5g} "
                  f"{change:+8.2%} {m['bound']:6.0%}  {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", default="1",
                        help="a seed, or with --workload all a list: 1,2 or 1-10")
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"],
                        help="only BENCHMARK.json's run_seconds is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per seed with --workload all")
    parser.add_argument("--json", help="with --workload all: result file")
    parser.add_argument("--trace-dir", help="write Chrome traces here")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.seconds != spec()["run_seconds"]:
        parser.error(f"the run length is fixed at {spec()['run_seconds']} s "
                     "by BENCHMARK.json")
    if not build():
        return 1
    if args.quick:
        return run_quick()
    if args.workload == "all" or args.json:
        return run_all(args)
    code, lines, result = run_one(args.workload, int(args.seed),
                                  args.trace == 1, trace_dir=args.trace_dir)
    if result is None:
        for line in lines[:-1]:
            log(line)
        return code or 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
